"""The CLI's settable surface, pinned against a committed golden.

For every (sub)subcommand the golden records each argument's dest,
option strings, default, choices, type name, required flag, nargs and
action class.  Help wording is deliberately not pinned; everything a
user can set, and what it defaults to, is.

Regenerate (only when a surface change is intended) with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


def _plain(value):
    """A JSON-stable form of a default or choices value."""
    if isinstance(value, range):
        return list(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _argument(action: argparse.Action) -> dict:
    return {
        "dest": action.dest,
        "option_strings": list(action.option_strings),
        "default": _plain(action.default),
        "choices": None if action.choices is None else _plain(list(action.choices)),
        "type": None if action.type is None else getattr(action.type, "__name__", repr(action.type)),
        "required": bool(action.required),
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def cli_surface(parser: argparse.ArgumentParser | None = None, path: str = "repro") -> dict:
    """``{"repro ledger record": [argument, ...], ...}`` for every parser."""
    parser = parser or build_parser()
    out: dict[str, list] = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(cli_surface(sub, f"{path} {name}"))
            rows.append({**_argument(action), "choices": sorted(action.choices)})
            continue
        rows.append(_argument(action))
    out[path] = sorted(rows, key=lambda r: (r["dest"], r["option_strings"]))
    return dict(sorted(out.items()))


def test_cli_surface_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    surface = json.loads(json.dumps(cli_surface()))
    assert sorted(surface) == sorted(golden), "subcommands added or removed"
    for command, rows in golden.items():
        assert surface[command] == rows, f"settable surface of {command!r} changed"


if __name__ == "__main__":
    commands = [
        f"  {json.dumps(command)}: [\n"
        + ",\n".join(f"    {json.dumps(row, sort_keys=True)}" for row in rows)
        + "\n  ]"
        for command, rows in cli_surface().items()
    ]
    print("{\n" + ",\n".join(commands) + "\n}")
