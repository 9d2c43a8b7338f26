"""Unit + property tests for the CLAMR cell-soup mesh."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr.mesh import AmrMesh
from repro.scenarios.registry import all_scenarios
from repro.scenarios.runner import build_simulation
from tests.test_clamr_fuzz import random_mesh_and_state


def refined_mesh() -> AmrMesh:
    """A 2x2 coarse mesh with the (0,0) coarse cell split into 4 children."""
    i = np.array([1, 0, 1, 0, 1, 0, 1])
    j = np.array([0, 1, 1, 0, 0, 1, 1])
    level = np.array([0, 0, 0, 1, 1, 1, 1])
    return AmrMesh(nx=2, ny=2, max_level=1, i=i, j=j, level=level)


class TestConstruction:
    def test_uniform_coarse(self):
        m = AmrMesh.uniform(4, 3)
        assert m.ncells == 12
        assert m.check_balance()

    def test_uniform_at_level(self):
        m = AmrMesh.uniform(2, 2, max_level=2, level=2)
        assert m.ncells == 64

    def test_level_exceeding_max_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh.uniform(2, 2, max_level=1, level=2)

    def test_cells_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh(nx=2, ny=2, max_level=0, i=[0, 5], j=[0, 0], level=[0, 0])

    def test_overlap_rejected(self):
        # a refined cell overlapping its parent
        with pytest.raises(ValueError, match="overlap"):
            AmrMesh(
                nx=1, ny=1, max_level=1,
                i=[0, 0, 1, 0, 1], j=[0, 0, 0, 1, 1], level=[0, 1, 1, 1, 1],
            )

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap|cover"):
            AmrMesh(nx=2, ny=1, max_level=0, i=[0], j=[0], level=[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh(nx=1, ny=1, max_level=0, i=[], j=[], level=[])


class TestGeometry:
    def test_cell_sizes_by_level(self):
        m = refined_mesh()
        sizes = m.cell_size()
        np.testing.assert_allclose(sizes[m.level == 0], 1.0)
        np.testing.assert_allclose(sizes[m.level == 1], 0.5)

    def test_areas_sum_to_domain(self):
        m = refined_mesh()
        assert m.cell_area().sum() == pytest.approx(4.0)

    def test_coarse_size_scaling(self):
        m = AmrMesh.uniform(4, 4, coarse_size=0.25)
        assert m.cell_size()[0] == 0.25
        assert m.cell_area().sum() == pytest.approx(1.0)

    def test_centers_inside_domain(self):
        m = refined_mesh()
        x, y = m.cell_centers()
        assert (x > 0).all() and (x < 2).all()
        assert (y > 0).all() and (y < 2).all()


class TestNeighbors:
    def test_uniform_interior_neighbors(self):
        m = AmrMesh.uniform(3, 3)
        # center cell is index 4 (row-major j*3+i)
        c = 4
        assert m.nlft[c] == 3 and m.nrht[c] == 5
        assert m.nbot[c] == 1 and m.ntop[c] == 7

    def test_boundary_self_reference(self):
        m = AmrMesh.uniform(3, 3)
        assert m.nlft[0] == 0 and m.nbot[0] == 0  # lower-left corner
        assert m.nrht[8] == 8 and m.ntop[8] == 8  # upper-right corner

    def test_coarse_fine_convention(self):
        m = refined_mesh()
        # the coarse cell to the right of the refined quad is (1,0,0)=index 0;
        # its left neighbor must be the *bottom* fine cell (1,0,1)=index 4
        coarse_right = 0
        assert m.level[m.nlft[coarse_right]] == 1
        fine = m.nlft[coarse_right]
        assert m.i[fine] == 1 and m.j[fine] == 0
        # the second fine neighbor is reachable as ntop of the first
        second = m.ntop[fine]
        assert m.level[second] == 1 and m.j[second] == 1

    def test_fine_sees_coarse(self):
        m = refined_mesh()
        # fine cell (1,0,1)=index 4 has the coarse (1,0,0)=index 0 on its right
        assert m.nrht[4] == 0

    def test_balance_check_detects_violation(self):
        # 4x1 coarse with one cell refined twice -> neighbor 2 levels apart
        i = [1, 2, 3] + [0, 1, 0] + [2, 3, 2, 3]
        j = [0, 0, 0] + [1, 1, 0] + [0, 0, 1, 1]
        lvl = [0, 0, 0] + [1, 1, 1] + [2, 2, 2, 2]
        m = AmrMesh(nx=4, ny=1, max_level=2, i=i, j=j, level=lvl)
        assert not m.check_balance()

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_symmetry_uniform(self, nx, ny):
        """On a uniform mesh, neighbor links are mutual."""
        m = AmrMesh.uniform(nx, ny)
        cells = np.arange(m.ncells)
        interior_r = m.nrht != cells
        assert (m.nlft[m.nrht[interior_r]] == cells[interior_r]).all()
        interior_t = m.ntop != cells
        assert (m.nbot[m.ntop[interior_t]] == cells[interior_t]).all()


class TestHashAndSampling:
    def test_hash_covers_domain(self):
        m = refined_mesh()
        image = m.build_hash()
        assert image.shape == (4, 4)
        assert (image >= 0).all()

    def test_sample_to_uniform_piecewise_constant(self):
        m = refined_mesh()
        values = np.arange(m.ncells, dtype=np.float64)
        img = m.sample_to_uniform(values)
        # coarse cell index 0 covers a 2x2 fine block at i in [2,4), j in [0,2)
        block = img[0:2, 2:4]
        assert (block == 0.0).all()

    def test_sample_wrong_length_raises(self):
        m = refined_mesh()
        with pytest.raises(ValueError):
            m.sample_to_uniform(np.zeros(3))

    def test_memory_nbytes_positive(self):
        assert refined_mesh().memory_nbytes() > 0


def paint_count_hash(mesh: AmrMesh) -> np.ndarray:
    """The reference hash: paint every pixel and count how often it is painted.

    Same image and the same errors as :meth:`AmrMesh.build_hash`, which
    validates by counting instead; an ``np.add.at`` paint-count image makes
    overlaps (count > 1) and gaps (count == 0) visible pixel by pixel.
    """
    span = mesh.cell_span_fine().astype(np.int64)
    i0 = mesh.i.astype(np.int64) * span
    j0 = mesh.j.astype(np.int64) * span
    image = np.full((mesh.nyf, mesh.nxf), -1, dtype=np.int64)
    paint_count = np.zeros((mesh.nyf, mesh.nxf), dtype=np.int32)
    cells = np.arange(mesh.ncells, dtype=np.int64)
    for lvl in np.unique(mesh.level):
        sel = np.flatnonzero(mesh.level == lvl)
        s = int(span[sel[0]])
        offsets = np.arange(s, dtype=np.int64)
        rows = j0[sel][:, None] + offsets[None, :]
        cols = i0[sel][:, None] + offsets[None, :]
        ridx = np.repeat(rows[:, :, None], s, axis=2)
        cidx = np.repeat(cols[:, None, :], s, axis=1)
        image[ridx, cidx] = cells[sel][:, None, None]
        np.add.at(paint_count, (ridx, cidx), 1)
    if (paint_count > 1).any():
        raise ValueError("mesh cells overlap")
    if (paint_count == 0).any():
        raise ValueError("mesh does not cover the domain (gaps present)")
    return image


def assert_hash_matches_oracle(mesh: AmrMesh) -> None:
    """Same image, and the same four neighbor arrays when built from the oracle."""
    np.testing.assert_array_equal(mesh.build_hash(), paint_count_hash(mesh))
    twin = copy.copy(mesh)
    with mock.patch.object(AmrMesh, "build_hash", paint_count_hash):
        twin.rebuild_neighbors()
    for side in ("nlft", "nrht", "nbot", "ntop"):
        np.testing.assert_array_equal(getattr(mesh, side), getattr(twin, side), err_msg=side)


def with_cells(mesh: AmrMesh, keep: np.ndarray, extra=()) -> AmrMesh:
    """A copy of ``mesh`` holding cells ``keep`` plus ``extra`` (i, j, level) triples.

    The arrays are swapped in after construction, so no validation runs.
    """
    out = copy.copy(mesh)
    add = np.array(list(extra), dtype=mesh.i.dtype).reshape(-1, 3)
    out.i = np.concatenate([mesh.i[keep], add[:, 0]])
    out.j = np.concatenate([mesh.j[keep], add[:, 1]])
    out.level = np.concatenate([mesh.level[keep], add[:, 2]])
    return out


def parent_of(mesh: AmrMesh, c: int) -> tuple[int, int, int]:
    return int(mesh.i[c]) // 2, int(mesh.j[c]) // 2, int(mesh.level[c]) - 1


def inside(mesh: AmrMesh, c: int, square: tuple[int, int, int]) -> bool:
    """Whether cell ``c`` lies inside the (i, j, level) square."""
    i, j, lvl = square
    shift = int(mesh.level[c]) - lvl
    return shift >= 0 and (int(mesh.i[c]) >> shift, int(mesh.j[c]) >> shift) == (i, j)


def hash_error(fn, mesh: AmrMesh) -> str:
    with pytest.raises(ValueError) as err:
        fn(mesh)
    return str(err.value)


def check_corruptions(mesh: AmrMesh, rng: np.random.Generator) -> None:
    """Gap, overlap, and both at once: build_hash fails exactly as the oracle does."""
    cells = np.arange(mesh.ncells)
    refined = cells[mesh.level > 0]
    drop = int(rng.integers(mesh.ncells))
    if refined.size:
        child = int(rng.choice(refined))
        cover = parent_of(mesh, child)
    else:
        child = int(rng.integers(mesh.ncells))
        cover = (int(mesh.i[child]), int(mesh.j[child]), int(mesh.level[child]))

    gap = with_cells(mesh, cells != drop)
    overlap = with_cells(mesh, cells, [cover])
    corrupt = {"gap": gap, "overlap": overlap}
    # drop a cell the added square does not cover, so a gap remains; when
    # the square is the whole domain, duplicate one cell and drop another
    outside = cells[[not inside(mesh, c, cover) for c in cells]]
    if outside.size:
        corrupt["both"] = with_cells(mesh, cells != int(rng.choice(outside)), [cover])
    elif mesh.ncells > 1:
        dup = (int(mesh.i[0]), int(mesh.j[0]), int(mesh.level[0]))
        corrupt["both"] = with_cells(mesh, cells != 1, [dup])
    for kind, bad in corrupt.items():
        expected = hash_error(paint_count_hash, bad)
        assert hash_error(AmrMesh.build_hash, bad) == expected, kind
        want = "mesh cells overlap" if kind != "gap" else "mesh does not cover the domain (gaps present)"
        assert expected == want, kind


class TestHashMatchesPaintCountOracle:
    @given(st.integers(0, 10_000), st.integers(0, 5), st.integers(1, 6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_random_balanced_meshes(self, seed, rounds, nx, max_level):
        mesh, _ = random_mesh_and_state(seed, rounds, nx=nx, max_level=max_level)
        assert_hash_matches_oracle(mesh)
        check_corruptions(mesh, np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "scenario", [sc.name for sc in all_scenarios() if sc.family == "clamr"]
    )
    def test_registered_scenarios(self, scenario):
        sim, _, steps, _ = build_simulation(scenario)
        meshes = [sim.mesh]
        sim.run(steps)
        meshes.append(sim.mesh)
        for k, mesh in enumerate(meshes):
            assert_hash_matches_oracle(mesh)
            check_corruptions(mesh, np.random.default_rng(k))

    def test_duplicate_cell_is_an_overlap(self):
        m = refined_mesh()
        bad = with_cells(m, np.arange(m.ncells), [(m.i[3], m.j[3], m.level[3])])
        assert hash_error(AmrMesh.build_hash, bad) == hash_error(paint_count_hash, bad)
        assert hash_error(AmrMesh.build_hash, bad) == "mesh cells overlap"
