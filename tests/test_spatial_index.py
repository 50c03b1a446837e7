"""Tests for spatial indices: grid equivalence with brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    Box,
    BruteForceIndex,
    Conductor,
    GridIndex,
    Structure,
    build_index,
)


def random_structure(seed: int, n: int = 30) -> Structure:
    rng = np.random.default_rng(seed)
    conductors = []
    for i in range(n):
        x, y, z = rng.uniform(0, 40, 3)
        sx, sy, sz = rng.uniform(0.3, 2.0, 3)
        conductors.append(
            Conductor.single(
                f"c{i}", Box.from_bounds(x, x + sx, y, y + sy, z, z + sz)
            )
        )
    return Structure(
        conductors, enclosure=Box.from_bounds(-5, 50, -5, 50, -5, 50)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_matches_brute_force_under_cap(seed):
    s = random_structure(seed)
    brute = BruteForceIndex(s)
    h_cap = 3.0
    grid = GridIndex(s, h_cap=h_cap)
    rng = np.random.default_rng(seed + 50)
    pts = rng.uniform(-5, 50, (400, 3))
    d_b, c_b = brute.query(pts)
    d_g, c_g = grid.query(pts)
    near = d_b < h_cap
    assert np.allclose(d_g[near], d_b[near])
    assert np.array_equal(c_g[near], c_b[near])
    far = ~near
    assert np.all(d_g[far] == h_cap)
    assert np.all(c_g[far] == -1)


def test_grid_csr_structure():
    """Candidate lists are precomputed into consistent CSR arrays."""
    s = random_structure(3)
    grid = GridIndex(s, h_cap=2.0)
    n_cells = int(np.prod(grid._n_cells))
    assert grid._indptr.shape == (n_cells + 1,)
    assert grid._indptr[0] == 0
    assert grid._indptr[-1] == grid._indices.shape[0]
    assert np.all(np.diff(grid._indptr) >= 0)
    # Within each cell, candidates are sorted ascending (argmin tie-break).
    for c in range(0, n_cells, max(1, n_cells // 50)):
        cand = grid._indices[grid._indptr[c] : grid._indptr[c + 1]]
        assert np.all(np.diff(cand) > 0)
    # Queries are pure: repeating them gives identical answers.
    pts = np.full((5, 3), 10.0)
    d1, c1 = grid.query(pts)
    d2, c2 = grid.query(pts)
    assert np.array_equal(d1, d2) and np.array_equal(c1, c2)


def test_grid_rejects_bad_cap():
    s = random_structure(4)
    with pytest.raises(GeometryError):
        GridIndex(s, h_cap=0.0)


def test_empty_points():
    s = random_structure(5)
    d, c = GridIndex(s, h_cap=1.0).query(np.empty((0, 3)))
    assert d.shape == (0,) and c.shape == (0,)


def test_brute_l2_query():
    s = random_structure(6)
    brute = BruteForceIndex(s)
    pts = np.random.default_rng(7).uniform(0, 40, (50, 3))
    d_inf, _ = brute.query(pts)
    d_2, _ = brute.query_l2(pts)
    assert np.all(d_inf <= d_2 + 1e-12)


def test_build_index_selection():
    # With the far-field fast path (default), the grid wins at every size.
    small = random_structure(8, n=10)
    assert isinstance(build_index(small, h_cap=1.0), GridIndex)
    # Opting out restores the historical size-based selection.
    assert isinstance(
        build_index(small, h_cap=1.0, far_field=False), BruteForceIndex
    )
    big = random_structure(9, n=40)
    assert isinstance(
        build_index(big, h_cap=1.0, far_field=False, brute_force_limit=20),
        GridIndex,
    )


@pytest.mark.parametrize("bounds_resolution", [1, 2])
def test_far_field_fast_path_matches_plain_grid(bounds_resolution):
    """The far-field fast path must be bitwise-identical to the plain
    gather path."""
    s = random_structure(11)
    h_cap = 3.0
    plain = GridIndex(s, h_cap=h_cap, far_field=False)
    fast = GridIndex(
        s,
        h_cap=h_cap,
        far_field=True,
        bounds_resolution=bounds_resolution,
    )
    rng = np.random.default_rng(12)
    pts = rng.uniform(-5, 50, (700, 3))
    d_p, c_p = plain.query(pts)
    d_f, c_f = fast.query(pts)
    assert np.array_equal(d_p, d_f)
    assert np.array_equal(c_p, c_f)
    # The structure has open space, so the fast path must actually engage.
    assert fast.n_far_cells > 0
    assert fast.stats.far_field_hits > 0
    assert fast.stats.candidates_pruned > 0
    assert fast.stats.near_points < fast.stats.points


def test_query_stats_counters_and_reset():
    s = random_structure(13)
    grid = GridIndex(s, h_cap=2.0)
    pruned = grid.stats.candidates_pruned
    pts = np.random.default_rng(14).uniform(-5, 50, (100, 3))
    grid.query(pts)
    st = grid.stats
    assert st.queries == 1 and st.points == 100
    assert st.far_field_hits + st.near_points == 100
    assert 0.0 <= st.far_field_rate <= 1.0
    assert st.as_dict()["candidates_pruned"] == pruned
    st.reset()
    assert st.points == 0 and st.candidates_pruned == pruned  # build-time


def test_query_into_matches_query():
    s = random_structure(15)
    grid = GridIndex(s, h_cap=2.5)
    pts = np.random.default_rng(16).uniform(-5, 50, (64, 3))
    d1, c1 = grid.query(pts)
    dist = np.empty(64, dtype=np.float64)
    cond = np.empty(64, dtype=np.int64)
    grid.query_into(pts, dist, cond)
    assert np.array_equal(d1, dist) and np.array_equal(c1, cond)


def test_cell_bounds_are_conservative():
    """Every enclosure point's capped distance lies within its cell's
    bounds (empty cells carry ``inf``, i.e. "provably beyond the cap")."""
    s = random_structure(17)
    h_cap = 3.0
    grid = GridIndex(s, h_cap=h_cap, bounds_resolution=2)
    brute = BruteForceIndex(s)
    rng = np.random.default_rng(18)
    pts = rng.uniform(-5, 50, (500, 3))  # the enclosure exactly
    d_true, _ = brute.query(pts)
    d_cap = np.minimum(d_true, h_cap)
    cells = grid._cell_ids(pts)
    assert np.all(np.minimum(grid._cell_dmin[cells], h_cap) <= d_cap + 1e-12)
    # dmax is an upper bound on the *uncapped* nearest distance wherever a
    # candidate exists; empty cells legitimately report inf.
    cdmax = grid._cell_dmax[cells]
    finite = np.isfinite(cdmax)
    assert np.all(d_true[finite] <= cdmax[finite] + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_boxes=st.integers(1, 25),
    h_cap=st.floats(0.5, 6.0),
    far_field=st.booleans(),
    bounds_resolution=st.integers(1, 3),
)
def test_grid_equals_brute_force_property(
    seed, n_boxes, h_cap, far_field, bounds_resolution
):
    """``GridIndex.query`` == capped ``BruteForceIndex.query`` — distance
    bits, winner index, and the lowest-box-index tie-break — for every
    fast-path knob combination, on query clouds that include points
    exactly on cell boundaries and at integer multiples of ``h_cap``."""
    s = random_structure(seed, n=n_boxes)
    grid = GridIndex(
        s,
        h_cap=h_cap,
        far_field=far_field,
        bounds_resolution=bounds_resolution,
    )
    rng = np.random.default_rng(seed ^ 0xA5A5)
    pts = rng.uniform(-5, 50, (160, 3))
    # Adversarial coordinates: snap a third of the points onto the grid's
    # cell lattice (query cells are decided by a floor there) and another
    # third onto integer multiples of h_cap from the origin (distances tie
    # the cap exactly, exercising the strict `< h_cap` winner test).
    cell = grid._cell
    lattice = grid._origin + np.round((pts[:50] - grid._origin) / cell) * cell
    pts[:50] = np.clip(lattice, -5, 50)
    caps = np.round(pts[50:100] / h_cap) * h_cap
    pts[50:100] = np.clip(caps, -5, 50)
    d_b, c_b = BruteForceIndex(s).query(pts)
    far = d_b >= h_cap
    d_ref = np.where(far, h_cap, d_b)
    c_ref = np.where(far, -1, c_b)
    d_g, c_g = grid.query(pts)
    assert np.array_equal(d_g, d_ref)
    assert np.array_equal(c_g, c_ref)


def test_owner_mapping_multibox():
    net = Conductor(
        "net",
        (
            Box.from_bounds(0, 1, 0, 1, 0, 1),
            Box.from_bounds(5, 6, 0, 1, 0, 1),
        ),
    )
    other = Conductor.single("o", Box.from_bounds(10, 11, 0, 1, 0, 1))
    s = Structure([net, other], enclosure=Box.from_bounds(-5, 16, -5, 6, -5, 6))
    brute = BruteForceIndex(s)
    d, c = brute.query(np.array([[5.5, 0.5, 0.5], [10.5, 0.5, 0.5]]))
    assert c.tolist() == [0, 1]
    assert np.allclose(d, 0.0)
