"""Prefetch-depth invariance: the layer-8 RNG prefetch ring is bit-invisible.

Three layers of guarantees:

1. RNG: ``draws_span`` — the fused multi-step Philox pass that fills the
   ring — produces *exactly* the words of the per-step ``draws`` calls it
   replaces, for plain ``WalkStreams`` and through the ``MirroredDraws``
   antithetic view (hypothesis property tests over uids/steps/depths).
2. Engine: ``run_walks_pipelined`` reproduces the pinned scalar-reference
   goldens at every ``rng_prefetch_depth`` (also pinned per-depth in
   ``test_engine_golden``); the stateful MT ablation streams cannot seek,
   so they silently run at depth 1 and stay bit-identical too.
3. Extraction: rows are byte-identical across ``rng_prefetch_depth``
   {1, 2, 4, 8} x backends x n_workers {1, 2, 4}, antithetic off *and*
   on — prefetching changes when draws are generated, never what they
   are, so no schedule can observe it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig
from repro.errors import ConfigError
from repro.frw import build_context, extract_row_alg2, make_streams
from repro.frw.engine import run_walks_pipelined
from repro.rng import MirroredDraws, WalkStreams
from repro.rng.counter_stream import MAX_PREFETCH_STEPS

from test_engine_golden import SEED, _build_structure, _digest

# No module-wide sanitizer fixture here: hypothesis legitimately uses the
# global stdlib RNG between examples.  The extraction tests arm it per
# call through FRWConfig.sanitize instead (see _BASE below).


# ----------------------------------------------------------------------
# RNG layer: the fused span pass is the per-step draws, verbatim
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
    depth=st.integers(min_value=1, max_value=MAX_PREFETCH_STEPS),
    count=st.integers(min_value=1, max_value=8),
)
def test_draws_span_equals_per_step_draws(seed, data, depth, count):
    n = data.draw(st.integers(min_value=1, max_value=33), label="n")
    uids = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=n,
                max_size=n,
            ),
            label="uids",
        ),
        dtype=np.uint64,
    )
    steps = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=n,
                max_size=n,
            ),
            label="steps",
        ),
        dtype=np.uint64,
    )
    streams = WalkStreams(seed, 0)
    span = streams.draws_span(uids, steps, depth, count)
    assert span.shape == (depth, n, count)
    for k in range(depth):
        expect = streams.draws(uids, steps + np.uint64(k), count)
        np.testing.assert_array_equal(span[k], expect)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base=st.integers(min_value=0, max_value=2**40),
    step0=st.integers(min_value=0, max_value=200),
    depth=st.integers(min_value=1, max_value=8),
    group=st.sampled_from([2, 4, 8]),
    anti_depth=st.integers(min_value=1, max_value=7),
)
def test_mirrored_draws_span_equals_per_step(
    seed, base, step0, depth, group, anti_depth
):
    """The antithetic view's span applies the same transforms the per-step
    path applies — one (depth, n) step grid instead of a scalar step, same
    words out."""
    n = 2 * group + 1
    uids = np.arange(base, base + n, dtype=np.uint64)
    mirrored = MirroredDraws(WalkStreams(seed, 0), group=group, depth=anti_depth)
    steps = np.arange(step0, step0 + n, dtype=np.uint64)
    span = mirrored.draws_span(uids, steps, depth, 3)
    for k in range(depth):
        expect = mirrored.draws(uids, steps + np.uint64(k), 3)
        np.testing.assert_array_equal(span[k], expect)


def test_draws_span_validates_arguments():
    streams = WalkStreams(7, 0)
    uids = np.arange(4, dtype=np.uint64)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, 0, 3)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, MAX_PREFETCH_STEPS + 1, 3)


# ----------------------------------------------------------------------
# Engine layer: pinned goldens at every depth, MT fallback included
# ----------------------------------------------------------------------
def test_config_prefetch_knob_validation():
    assert FRWConfig.frw_r().rng_prefetch_depth == 8
    FRWConfig.frw_r(rng_prefetch_depth=1)
    FRWConfig.frw_r(rng_prefetch_depth=16)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(rng_prefetch_depth=0)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(rng_prefetch_depth=17)


def test_mt_streams_fall_back_to_no_prefetch():
    """The stateful MT ablation streams cannot seek to arbitrary steps, so
    they have no ``draws_span``; asking for a deep ring silently runs the
    per-step path and the walk bytes do not change."""
    ctx = build_context(
        _build_structure("homogeneous"), 0, FRWConfig.frw_r(seed=SEED)
    )
    cfg_mt = FRWConfig.frw_nc(seed=SEED)
    uids = np.arange(128, dtype=np.uint64)
    base = run_walks_pipelined(
        ctx, make_streams(cfg_mt, 0), uids, width=64, prefetch=1
    )
    deep = run_walks_pipelined(
        ctx, make_streams(cfg_mt, 0), uids, width=64, prefetch=8
    )
    assert _digest(base) == _digest(deep)


def test_wide_vectors_cross_fusion_threshold_bit_identical():
    """A vector width past the adaptive-fusion budget starts on the
    per-step path (ring parked drained) and drops below the threshold as
    the walk population drains — one run mixes both phases, and the bytes
    still cannot tell (the threshold is a pure scheduling decision)."""
    from repro.frw.engine import SPAN_FUSE_BUDGET

    ctx = build_context(
        _build_structure("homogeneous"), 0, FRWConfig.frw_r(seed=SEED)
    )
    n = 5000  # > SPAN_FUSE_BUDGET / (2 * depth) for every depth tested
    uids = np.arange(n, dtype=np.uint64)
    ref = _digest(
        run_walks_pipelined(
            ctx, WalkStreams(SEED, 0), uids, width=n, prefetch=1
        )
    )
    for depth in (2, 8):
        assert n > SPAN_FUSE_BUDGET // (2 * depth)  # crosses the budget
        res = run_walks_pipelined(
            ctx, WalkStreams(SEED, 0), uids, width=n, prefetch=depth
        )
        assert _digest(res) == ref


# ----------------------------------------------------------------------
# Extraction layer: depth x backend x workers x antithetic bit-identity
# ----------------------------------------------------------------------
_BASE = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512, max_walks=1024,
    tolerance=1e-6, sanitize=True,
)

_BACKENDS = [
    dict(executor="serial", pipeline=True),
    dict(executor="serial", pipeline=False),
    dict(executor="serial", pipeline_lookahead=3),
    dict(executor="process", n_workers=2, chunk_size=77),
    dict(executor="process", n_workers=2),
    dict(executor="process", n_workers=4),
    dict(executor="process", n_workers=2, mp_start_method="spawn"),
]


def _extract(structure, **overrides):
    cfg = FRWConfig.frw_r(**_BASE, **overrides)
    return extract_row_alg2(build_context(structure, 0, cfg))


def _assert_rows_equal(got, ref):
    row, stats = got
    ref_row, ref_stats = ref
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps


@pytest.fixture(scope="module")
def prefetch_reference(plates):
    """Depth-1 serial extraction: the no-ring baseline every (depth,
    backend, workers) combination must reproduce byte for byte."""
    return _extract(plates, rng_prefetch_depth=1, executor="serial",
                    pipeline=False)


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("kwargs", _BACKENDS)
def test_rows_bitwise_across_depth_and_backends(
    plates, prefetch_reference, depth, kwargs
):
    _assert_rows_equal(
        _extract(plates, rng_prefetch_depth=depth, **kwargs),
        prefetch_reference,
    )


@pytest.fixture(scope="module")
def prefetch_anti_reference(plates):
    return _extract(plates, rng_prefetch_depth=1, executor="serial",
                    pipeline=False, antithetic=True)


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial", pipeline=True),
        dict(executor="serial", pipeline=False),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=2, mp_start_method="spawn"),
    ],
)
def test_antithetic_rows_bitwise_across_depths(
    plates, prefetch_anti_reference, depth, kwargs
):
    """Prefetching composes with the antithetic MirroredDraws view: the
    partner transforms are applied inside the span pass, so grouped rows
    are byte-identical at every ring depth and backend."""
    _assert_rows_equal(
        _extract(
            plates, rng_prefetch_depth=depth, antithetic=True, **kwargs
        ),
        prefetch_anti_reference,
    )
