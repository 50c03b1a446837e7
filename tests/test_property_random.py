"""Property-based tests over randomly generated structures.

Hypothesis drives the whole pipeline on arbitrary (small, valid) rectilinear
structures; the asserted invariants must hold for *every* geometry, not just
the curated fixtures: termination, destination validity, batch-order
independence, physical signs, and regularizer reliability.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Box, Conductor, FRWConfig, Structure, regularize
from repro.frw import build_context, run_walks, stream_spec, streams_from_spec
from repro.reliability import check_properties


@st.composite
def random_structures(draw):
    """2-4 disjoint unit-ish boxes on a coarse lattice (guaranteed gaps)."""
    n = draw(st.integers(2, 4))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    conductors = []
    for k, (ix, iy, iz) in enumerate(cells):
        # Cell pitch 3, box size 1.4-2.0: at least 1.0 gap between boxes.
        size = 1.4 + 0.2 * ((ix + iy + iz + k) % 4)
        x, y, z = 3.0 * ix, 3.0 * iy, 3.0 * iz
        conductors.append(
            Conductor.single(
                f"c{k}",
                Box.from_bounds(x, x + size, y, y + size, z, z + size),
            )
        )
    return Structure(conductors, auto_margin=0.5)


@given(random_structures(), st.integers(0, 10_000))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engine_invariants_on_random_geometry(structure, seed):
    structure.validate(min_gap=0.5)
    cfg = FRWConfig.frw_r(seed=seed)
    ctx = build_context(structure, 0, cfg)
    streams = streams_from_spec(stream_spec(cfg, 0))
    uids = np.arange(400, dtype=np.uint64)
    res = run_walks(ctx, streams, uids)
    # Termination with valid destinations.
    assert np.all(res.dest >= 0)
    assert np.all(res.dest < structure.n_conductors)
    assert res.truncated == 0
    # Order independence (spot check with a permutation).
    perm = np.random.default_rng(seed).permutation(uids.shape[0])
    res2 = run_walks(ctx, streams_from_spec(stream_spec(cfg, 0)), uids[perm])
    assert np.array_equal(res2.omega, res.omega[perm])
    # Self-capacitance estimate positive (coarse budget, but the diagonal
    # dominates strongly for isolated boxes).
    m = uids.shape[0]
    c_self = res.omega[res.dest == 0].sum() / m
    assert c_self > 0


@given(random_structures(), st.integers(0, 10_000))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_regularizer_reliable_on_random_extractions(structure, seed):
    from repro import FRWSolver

    cfg = FRWConfig.frw_rr(
        seed=seed,
        batch_size=600,
        min_walks=600,
        max_walks=600,
        tolerance=0.49,
    )
    result = FRWSolver(structure, cfg).extract()
    report = check_properties(result.matrix)
    assert report.reliable
    # Row sums exactly zero to machine precision for every geometry.
    scale = np.abs(result.matrix.values).max()
    assert np.abs(result.matrix.values.sum(axis=1)).max() <= 1e-12 * max(scale, 1e-30)
