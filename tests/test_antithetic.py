"""Tests for generalized antithetic sampling (MirroredDraws + grouped
accumulation).

Three layers of guarantees:

1. RNG: partner draws are *exact* elementwise transforms of the primary's
   Philox words (hypothesis property tests recompute the transforms
   independently), identity paths are bit-exact, and the slot-0 transform
   lands on the antipodal transition-cube cell.
2. Estimator: group-mean accumulation keeps the mean bit-consistent with
   the raw mean and reports the variance *of group means*; mismatched
   merges and grouped/ungrouped mixing raise instead of corrupting.
3. Extraction: antithetic-off stays byte-identical to the pinned PR 6
   goldens across {thread, fork, spawn, forkserver} x n_workers {1,2,4};
   antithetic-on rows are bit-identical across the same matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig
from repro.errors import ConfigError, RNGError
from repro.frw import (
    PersistentExecutor,
    build_context,
    extract_row_alg2,
    run_walks,
    run_walks_pipelined,
    stream_spec,
)
from repro.frw.estimator import RowAccumulator
from repro.frw.parallel import streams_from_spec
from repro.greens.cube_table import get_cube_table
from repro.rng import (
    MAX_GROUP,
    MirroredDraws,
    WalkStreams,
    antipodal_uniform,
    mirror_params,
    mirror_uniform,
)

from test_engine_golden import GOLDEN, N_WALKS, SEED, _check, _digest


# ----------------------------------------------------------------------
# Transform primitives
# ----------------------------------------------------------------------


def test_mirror_params_family():
    reflect, offset = mirror_params(2)
    assert reflect.tolist() == [0.0, 1.0]
    assert offset.tolist() == [0.0, 0.0]
    reflect, offset = mirror_params(4)
    assert reflect.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert offset.tolist() == [0.0, 0.0, 0.5, 0.5]
    for bad in (1, 0, MAX_GROUP + 1):
        with pytest.raises(RNGError):
            mirror_params(bad)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60)
def test_mirror_uniform_identity_row_bit_exact(u):
    """reflect=0, offset=0 must pass the value through unchanged: the
    branchless whole-block transform relies on it."""
    arr = np.array([u])
    mirror_uniform(arr, np.float64(0.0), np.float64(0.0))
    assert arr[0] == u
    arr = np.array([u])
    antipodal_uniform(arr, np.float64(0.0), np.float64(0.0))
    assert arr[0] == u


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=1, max_value=MAX_GROUP - 1),
    st.integers(min_value=2, max_value=MAX_GROUP),
)
@settings(max_examples=120)
def test_transforms_stay_in_unit_interval(u, k, group):
    k = min(k, group - 1)
    reflect, offset = mirror_params(group)
    for fn in (mirror_uniform, antipodal_uniform):
        arr = np.array([u])
        fn(arr, reflect[k], offset[k])
        assert 0.0 <= arr[0] < 1.0


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60)
def test_antipodal_preserves_third(u):
    """The slot-0 transform reflects *within* the draw's third of [0,1),
    so the selected face pair (cube axis) never changes."""
    reflect, offset = mirror_params(2)
    arr = np.array([u])
    antipodal_uniform(arr, reflect[1], offset[1])
    p_in = math.floor(u * 3.0)
    p_out = math.floor(arr[0] * 3.0)
    if p_out != p_in:
        # Rounding may park the reflected value exactly on a third
        # boundary (a measure-zero set); anywhere else is a bug.
        assert abs(arr[0] * 3.0 - round(arr[0] * 3.0)) < 1e-15


# ----------------------------------------------------------------------
# MirroredDraws: partner words are exact transforms of the primary words
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=MAX_GROUP),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_mirrored_draws_are_exact_transforms(seed, step, count, group, depth):
    """The core property: partner k's draw at (step, slot) equals the
    fixed transform of the *primary's* word at (step, slot), recomputed
    here independently of MirroredDraws' vectorised path."""
    base = WalkStreams(seed, 0)
    md = MirroredDraws(base, group, depth=depth)
    uids = np.arange(4 * group, dtype=np.uint64)
    got = md.draws(uids, step, count)
    primary_words = base.draws(uids - uids % np.uint64(group), step, count)
    reflect, offset = mirror_params(group)
    for i, uid in enumerate(uids):
        k = int(uid) % group
        expect = primary_words[i].copy()
        if k > 0 and 1 <= step <= depth:
            antipodal_uniform(expect[:1], reflect[k], offset[k])
            if count > 1:
                mirror_uniform(expect[1:], reflect[k], offset[k])
        assert got[i].tolist() == expect.tolist()


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=2, max_value=MAX_GROUP),
)
@settings(max_examples=60, deadline=None)
def test_mirrored_scalar_matches_vectorised(seed, uid, step, group):
    md = MirroredDraws(WalkStreams(seed, 3), group, depth=2)
    vec = md.draws(np.array([uid], dtype=np.uint64), step, 4)[0]
    assert vec.tolist() == md.draws_scalar(uid, step, 4)


def test_mirrored_draws_per_walk_step_array():
    """The engine passes per-walk step arrays; the transform mask must be
    evaluated per element."""
    base = WalkStreams(11, 0)
    md = MirroredDraws(base, 2, depth=1)
    uids = np.array([0, 1, 2, 3], dtype=np.uint64)
    steps = np.array([0, 1, 1, 2], dtype=np.uint64)
    got = md.draws(uids, steps, 3)
    prim = base.draws(uids - uids % np.uint64(2), steps, 3)
    # uid 0 (primary), uid 1 at step 1 (transformed), uid 2 primary,
    # uid 3 at step 2 > depth (identity).
    assert np.array_equal(got[0], prim[0])
    assert not np.array_equal(got[1], prim[1])
    assert np.array_equal(got[2], prim[2])
    assert np.array_equal(got[3], prim[3])


def test_mirrored_draws_batch_invariant():
    """Partner values are pure per-UID functions: any batching/order of
    the same UIDs yields bit-identical numbers (the DOP-invariance
    guarantee inherited from the base stream)."""
    md = MirroredDraws(WalkStreams(5, 1), 4, depth=2)
    uids = np.arange(32, dtype=np.uint64)
    full = md.draws(uids, 1, 3)
    perm = np.argsort(np.mod(uids * np.uint64(13), np.uint64(32)))
    assert np.array_equal(md.draws(uids[perm], 1, 3), full[perm])
    parts = [md.draws(uids[i : i + 5], 1, 3) for i in range(0, 32, 5)]
    assert np.array_equal(np.concatenate(parts), full)


def test_mirrored_draws_rejects_bad_depth():
    with pytest.raises(RNGError):
        MirroredDraws(WalkStreams(1, 0), 2, depth=0)


def test_partner_first_hop_is_antipodal_cell():
    """Slot-0 transform + reflected jitter: partner k=1's first hop lands
    on the *antipodal* transition-cube point — same axis, opposite side,
    point-mirrored transverse cell, mirrored jitter.  This is what makes
    the first-hop flux weights (odd centre-gradient kernel) cancel."""
    table = get_cube_table()
    base = WalkStreams(2024, 0)
    md = MirroredDraws(base, 2, depth=1)
    uids = np.arange(4096, dtype=np.uint64)
    u = md.draws(uids, 1, 3)
    cells = table.sample_cells(u[:, 0])
    prim, part = cells[0::2], cells[1::2]
    assert np.array_equal(table.face_axis[prim], table.face_axis[part])
    assert np.array_equal(table.face_side[prim], 1 - table.face_side[part])
    assert np.array_equal(
        table.cell_i[prim], table.nf - 1 - table.cell_i[part]
    )
    assert np.array_equal(
        table.cell_j[prim], table.nf - 1 - table.cell_j[part]
    )
    # Hop positions on the unit cube are point reflections through the
    # centre (up to one cell width of jitter discretisation).
    pos = table.unit_positions(cells, u[:, 1], u[:, 2])
    np.testing.assert_allclose(
        pos[0::2] + pos[1::2], 1.0, atol=1.5 / table.nf
    )


def test_group_mean_variance_drops_on_first_hop_weight():
    """End-to-end variance sanity on the real kernel: the sample variance
    of group-mean first-hop weights must be far below the raw per-walk
    variance (this is the whole point of the transform)."""
    table = get_cube_table()
    base = WalkStreams(7, 0)
    md = MirroredDraws(base, 2, depth=1)
    uids = np.arange(8192, dtype=np.uint64)
    u = md.draws(uids, 1, 3)
    cells = table.sample_cells(u[:, 0])
    w = table.grad_ratio[2, cells]  # one gradient axis of the flux weight
    gm = w.reshape(-1, 2).mean(axis=1)
    assert gm.var() < 0.05 * w.var()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


def test_config_antithetic_knob_validation():
    ok = FRWConfig.frw_r(antithetic=True, batch_size=1024, min_walks=1024)
    assert ok.antithetic_group == 2 and ok.antithetic_depth == 1
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic_group=1)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic_group=9)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic_depth=0)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic=True, batch_size=1000, antithetic_group=3)
    with pytest.raises(ConfigError):
        FRWConfig.frw_nc(antithetic=True)  # MT streams are stateful
    with pytest.raises(ConfigError):
        FRWConfig(variant="alg1", antithetic=True)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic=True, min_walks=2, batch_size=1024)


def test_stream_spec_shape_depends_on_antithetic():
    """Off-path specs stay 3-tuples so worker pickle payloads are byte
    identical to pre-antithetic builds; on-path specs carry the knobs."""
    off = stream_spec(FRWConfig.frw_r(seed=3), 1)
    assert off == ("philox", 3, 1)
    on = stream_spec(
        FRWConfig.frw_r(
            seed=3, antithetic=True, antithetic_group=4, antithetic_depth=2,
            batch_size=1024, min_walks=1024,
        ),
        1,
    )
    assert on == ("philox", 3, 1, 4, 2)
    streams = streams_from_spec(on)
    assert isinstance(streams, MirroredDraws)
    assert streams.group == 4 and streams.depth == 2
    assert not isinstance(streams_from_spec(off), MirroredDraws)


# ----------------------------------------------------------------------
# Grouped accumulation
# ----------------------------------------------------------------------


def _fake_batch(n, n_cond=3, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(n),
        rng.integers(0, n_cond, size=n),
        rng.integers(1, 20, size=n),
    )


def test_add_group_batch_mean_matches_raw_mean():
    omega, dest, steps = _fake_batch(96)
    raw = RowAccumulator(3, 0, group_size=1)
    raw.add_batch(omega, dest, steps)
    grouped = RowAccumulator(3, 0, group_size=4)
    grouped.add_group_batch(omega, dest, steps)
    np.testing.assert_allclose(
        grouped.row().values, raw.row().values, rtol=1e-12
    )
    assert grouped.walks == raw.walks == 96
    assert grouped.samples == 24 and raw.samples == 96
    assert np.array_equal(grouped.row().hits, raw.row().hits)
    assert grouped.row().total_steps == raw.row().total_steps


def test_add_group_batch_variance_is_of_group_means():
    omega, dest, _ = _fake_batch(64, n_cond=2, seed=1)
    acc = RowAccumulator(2, 0, group_size=2)
    acc.add_group_batch(omega, dest)
    # Reference: per-group mean weight landing on conductor 0.
    w0 = np.where(dest == 0, omega, 0.0).reshape(-1, 2).mean(axis=1)
    m = w0.shape[0]
    expect = w0.var(ddof=1) / m
    np.testing.assert_allclose(acc.row().sigma2[0], expect, rtol=1e-10)
    # And self_relative_error is derived from the same quantity.
    np.testing.assert_allclose(
        acc.self_relative_error,
        math.sqrt(expect) / abs(w0.mean()),
        rtol=1e-10,
    )


def test_grouped_accumulator_refuses_per_walk_paths():
    acc = RowAccumulator(3, 0, group_size=2)
    omega, dest, steps = _fake_batch(8)
    with pytest.raises(ConfigError):
        acc.add_walk(1.0, 0)
    with pytest.raises(ConfigError):
        acc.add_batch(omega, dest, steps)
    with pytest.raises(ConfigError):
        acc.add_walks_ordered(omega, dest, steps)
    with pytest.raises(ConfigError):
        RowAccumulator(3, 0, group_size=1).add_group_batch(omega, dest)
    with pytest.raises(ConfigError):
        acc.add_group_batch(omega[:7], dest[:7])  # not whole groups
    with pytest.raises(ConfigError):
        RowAccumulator(3, 0, group_size=0)


def test_merge_asserts_matching_configuration():
    """Regression test for the silent-mixing bug: merge() used to absorb
    accumulators with different summation modes or conductor counts."""
    base = RowAccumulator(3, 0, summation="kahan")
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 0, summation="naive"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(4, 0, summation="kahan"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 1, summation="kahan"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 0, summation="kahan", group_size=2))
    with pytest.raises(ConfigError):
        base.merge(object())
    # And matching configurations still merge.
    other = base.spawn()
    omega, dest, steps = _fake_batch(16)
    other.add_batch(omega, dest, steps)
    base.merge(other)
    assert base.walks == 16


def test_add_batch_asserts_shapes_and_range():
    acc = RowAccumulator(3, 0)
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(4), np.zeros(3, dtype=np.int64))
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(2), np.array([0, 3]))
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(1), np.array([-1]))


# ----------------------------------------------------------------------
# Engine: group-aligned refill is scheduling-only
# ----------------------------------------------------------------------


def test_pipeline_group_param_is_bit_invisible(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=SEED))
    uids = np.arange(300, dtype=np.uint64)
    ref = run_walks(ctx, WalkStreams(SEED, 0), uids)
    for group in (2, 4, 8):
        res = run_walks_pipelined(
            ctx, WalkStreams(SEED, 0), uids, width=64, lookahead=2,
            group=group,
        )
        assert np.array_equal(ref.omega, res.omega)
        assert np.array_equal(ref.dest, res.dest)
        assert np.array_equal(ref.steps, res.steps)


# ----------------------------------------------------------------------
# Extraction: off-path byte-identity to the PR 6 goldens
# ----------------------------------------------------------------------

#: ``("thread", None)`` runs the serial engine on ``n_workers`` concurrent
#: threads sharing one stream provider; the process rows use the pool.
BACKENDS = [
    ("thread", None),
    ("process", "fork"),
    ("process", "spawn"),
    ("process", "forkserver"),
]


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("backend,start_method", BACKENDS)
def test_antithetic_off_matches_pinned_goldens(
    three_wires, threaded_walks, backend, start_method, n_workers
):
    """antithetic=False must leave the walk bytes untouched: the engine
    fed through the stream-spec plumbing still reproduces the pinned
    golden digests on concurrent threads and on every process start
    method and worker count."""
    cfg = FRWConfig.frw_r(seed=SEED)
    assert not cfg.antithetic  # the default is off
    ctx = build_context(three_wires, 0, cfg)
    uids = np.arange(N_WALKS, dtype=np.uint64)
    if backend == "thread":
        streams = streams_from_spec(stream_spec(cfg, 0))
        res = threaded_walks(ctx, streams, uids, n_threads=n_workers)
    else:
        with PersistentExecutor(
            backend, n_workers=n_workers, chunk_size=96,
            mp_start_method=start_method,
        ) as ex:
            key = ex.register(ctx, stream_spec(cfg, 0))
            res = ex.run(key, uids)
    _check("homogeneous", res)
    assert _digest(res) == GOLDEN["homogeneous"]["sha256"]


# ----------------------------------------------------------------------
# Extraction: on-path bit-identity across the execution matrix
# ----------------------------------------------------------------------

_ANTI_BASE = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512, max_walks=1024,
    tolerance=1e-6, antithetic=True,
)


@pytest.fixture(scope="module")
def anti_reference(plates):
    cfg = FRWConfig.frw_r(**_ANTI_BASE, executor="serial", pipeline=False)
    return extract_row_alg2(build_context(plates, 0, cfg))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial", pipeline=True),
        dict(executor="serial", rng_prefetch_depth=1),
        dict(executor="serial", pipeline_lookahead=3),
        dict(executor="process", n_workers=1),
        dict(executor="process", n_workers=2, chunk_size=77),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
        dict(executor="process", n_workers=2, mp_start_method="spawn"),
        dict(executor="process", n_workers=2, mp_start_method="forkserver"),
    ],
)
def test_antithetic_on_bitwise_across_backends(plates, anti_reference, kwargs):
    """The acceptance criterion: with antithetic sampling enabled, the
    extracted row is bitwise identical across executor backends, worker
    counts, and process start methods — the partner transform is inside
    the per-UID draw function, so the schedule cannot touch it."""
    ref_row, ref_stats = anti_reference
    cfg = FRWConfig.frw_r(**_ANTI_BASE, **kwargs)
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps
    assert stats.batches == ref_stats.batches


@pytest.mark.parametrize("group,depth", [(4, 1), (2, 2), (8, 3)])
def test_antithetic_group_depth_bitwise(plates, group, depth):
    base = dict(_ANTI_BASE, antithetic_group=group, antithetic_depth=depth)
    ref_cfg = FRWConfig.frw_r(**base, executor="serial", pipeline=False)
    ref_row, _ = extract_row_alg2(build_context(plates, 0, ref_cfg))
    cfg = FRWConfig.frw_r(**base, executor="serial")
    row, _ = extract_row_alg2(build_context(plates, 0, cfg))
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert row.walks == ref_row.walks


def test_antithetic_estimate_agrees_with_plain(plates):
    """Unbiasedness end-to-end: antithetic on/off agree within combined
    error bars on the plate capacitor."""
    base = dict(
        seed=99, batch_size=512, min_walks=8192, max_walks=8192,
        tolerance=1e-9, executor="serial",
    )
    off_row, _ = extract_row_alg2(
        build_context(plates, 0, FRWConfig.frw_r(**base))
    )
    on_row, _ = extract_row_alg2(
        build_context(plates, 0, FRWConfig.frw_r(**base, antithetic=True))
    )
    c_off, c_on = off_row.values[0], on_row.values[0]
    err = 5.0 * math.sqrt(off_row.sigma2[0] + on_row.sigma2[0])
    assert abs(c_on - c_off) <= err
    # The variance-reduction claim, on the real estimator.
    assert on_row.sigma2[0] < off_row.sigma2[0]


def test_solver_meta_records_antithetic(three_wires):
    from repro.frw.solver import FRWSolver

    cfg = FRWConfig.frw_r(
        seed=4, batch_size=256, min_walks=512, max_walks=512,
        antithetic=True, antithetic_group=2, executor="serial",
    )
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract([0])
    meta = result.matrix.meta["schedule"]["antithetic"]
    assert meta == {"group": 2, "depth": 1}
    off = FRWConfig.frw_r(
        seed=4, batch_size=256, min_walks=512, max_walks=512,
        executor="serial",
    )
    with FRWSolver(three_wires, off) as solver:
        result = solver.extract([0])
    assert result.matrix.meta["schedule"]["antithetic"] is None
