"""Per-layer self time from wrappers installed around the program's public functions.

The program is not instrumented for this benchmark: :class:`LayerTracer`
replaces each listed function or method with a timing wrapper for the
length of one traced repetition and puts the original back afterwards.

A wrapper's *self time* is its duration minus the time covered by the
wrapped calls nested inside it, so the self times of one repetition add up
to the wall time of the outermost wrapped call.  Each wrapper also counts
its calls, and an optional ``count`` hook adds named work counts computed
from the call's arguments and result (fine pixels hashed, summands summed,
cache hits).

Functions are imported by name into other modules (``regrid`` is called
as ``repro.clamr.simulation.regrid``), so a function target is patched in
every loaded ``repro`` module that holds the same object, under whatever
name it holds it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.Class.attr``."""

    layer: str
    module: str
    attr: str
    cls: str | None = None
    count: Callable | None = None  # (args, result) -> {counter: amount}


class LayerTracer:
    """Accumulates self time and calls per layer name.

    Only calls made on the thread that created the tracer are timed; calls
    from other threads (the service's lease heartbeat) pass straight
    through, so they cannot corrupt the nesting stack.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._child_s: list[float] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- timing --------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, count: Callable | None = None) -> Callable:
        """A wrapper around ``fn`` that books its time under ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - t0
                nested = self._child_s.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - nested
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if self._child_s:
                    self._child_s[-1] += duration
                if count is not None:
                    for key, amount in count(args, result).items():
                        self.counts[key] = self.counts.get(key, 0) + amount

        wrapper.__wrapped_layer__ = layer
        return wrapper

    def snapshot(self) -> dict:
        """A copy of every accumulator, for per-phase differences."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- patching ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; raises if one cannot be found."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        try:
            for target in targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if target.cls is not None:
            owner = getattr(module, target.cls)
            raw = owner.__dict__[target.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(target.layer, raw.__func__, target.count))
            else:
                patched = self.wrap(target.layer, raw, target.count)
            self._set(owner, target.attr, raw, patched)
            return
        original = getattr(module, target.attr)
        patched = self.wrap(target.layer, original, target.count)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, original, patched)

    def _set(self, owner, attr: str, original, patched) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def delta(before: dict, after: dict) -> dict:
    """``after - before`` for every accumulator of two snapshots."""
    out = {}
    for kind, values in after.items():
        base = before.get(kind, {})
        out[kind] = {key: value - base.get(key, 0) for key, value in values.items()}
    return out
