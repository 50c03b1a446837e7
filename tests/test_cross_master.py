"""Golden cross-master bit-identity suite for the interleaved scheduler.

The acceptance criterion of the scheduler: every row of a multi-master
``extract()`` under the interleaved scheduler — any backend, any
``n_workers``, allocation on or off — equals the pre-PR serial per-master
rows bit for bit (``values``/``sigma2``/``hits``/``walks``/``batches``).
"""

import tracemalloc

import numpy as np
import pytest

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure
from repro.frw import RowProgress, build_context, extract_row_alg2
from repro.frw.scheduler import (
    allocate_quota,
    reweight_needed,
    variance_weights,
)

BASE = dict(
    seed=13,
    n_threads=4,
    batch_size=256,
    min_walks=512,
    max_walks=1536,
    tolerance=2e-2,
    # Golden suites run with the runtime RNG sanitizer armed: any global
    # np.random/random use during extraction fails loudly instead of
    # surfacing as one-bit drift later.
    sanitize=True,
)


@pytest.fixture(scope="module")
def golden_rows(three_wires):
    """Pre-PR reference: serial per-master extraction (plain engine)."""
    cfg = FRWConfig.frw_r(
        **BASE, executor="serial", pipeline=False, interleave_masters=False
    )
    return [
        extract_row_alg2(build_context(three_wires, m, cfg))
        for m in range(3)
    ]


def _assert_rows_match(result, golden):
    for got, (row, stats) in zip(result.rows, golden):
        assert np.array_equal(got.values, row.values)
        assert np.array_equal(got.sigma2, row.sigma2)
        assert np.array_equal(got.hits, row.hits)
        assert got.walks == row.walks
        assert got.total_steps == row.total_steps
    for got, (row, stats) in zip(result.stats, golden):
        assert got.batches == stats.batches
        assert got.converged == stats.converged


@pytest.mark.parametrize("allocation", ["even", "variance"])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_interleaved_bitwise_golden(
    three_wires, golden_rows, on_threads, backend, n_workers, allocation
):
    """``process`` runs one extraction on an ``n_workers`` pool; ``thread``
    runs ``n_workers`` serial extractions at once, each on its own thread
    (as the service's slots do), all sharing the per-thread RNG scratch
    design."""
    if backend == "thread":
        cfg = FRWConfig.frw_r(**BASE, executor="serial", allocation=allocation)

        def solve():
            with FRWSolver(three_wires, cfg) as solver:
                return solver.extract()

        results = on_threads([solve] * n_workers)
    else:
        cfg = FRWConfig.frw_r(
            **BASE, executor=backend, n_workers=n_workers, allocation=allocation
        )
        with FRWSolver(three_wires, cfg) as solver:
            results = [solver.extract()]
    for result in results:
        _assert_rows_match(result, golden_rows)


def test_interleaved_serial_executor_bitwise(three_wires, golden_rows):
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    result = FRWSolver(three_wires, cfg).extract()
    _assert_rows_match(result, golden_rows)


def test_interleave_opt_out_bitwise(three_wires, golden_rows):
    cfg = FRWConfig.frw_r(
        **BASE, executor="process", n_workers=2, interleave_masters=False
    )
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    assert result.matrix.meta["schedule"]["interleaved"] is False
    _assert_rows_match(result, golden_rows)


def test_register_wave_bitwise(three_wires, golden_rows):
    """Waved admission (one master at a time) changes only the schedule."""
    cfg = FRWConfig.frw_r(
        **BASE, executor="process", n_workers=2, register_wave=1
    )
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    _assert_rows_match(result, golden_rows)


def test_schedule_telemetry_and_asset_cache(three_wires):
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    sched = result.matrix.meta["schedule"]
    assert sched["interleaved"] is True
    assert sched["allocation"] == "even"
    # The structure index and cube table are built once and shared.
    cache = sched["asset_cache"]
    assert cache["index_builds"] == 1
    assert cache["index_hits"] == 2
    assert cache["table_builds"] == 1
    # The far-field fast path was live: the shared grid index reports its
    # query telemetry, and the 3-wire case has real open space.
    qs = sched["query_stats"]
    assert qs is not None
    assert qs["far_field_hits"] > 0
    assert qs["points"] == qs["far_field_hits"] + qs["near_points"]
    # Dispatch counters: every accumulated batch was dispatched, and the
    # discard count accounts for the speculative overshoot.
    accumulated = sum(s.batches for s in result.stats)
    assert sched["dispatched_batches"] == accumulated + sched["discarded_batches"]
    for s in result.stats:
        assert s.dispatched_batches >= s.batches
        assert s.allocation_rounds >= s.batches
        assert 0.0 <= s.speculation_ratio <= 1.0


def test_lazy_registration_for_master_subset():
    """A 2-master subset of a 10-conductor structure builds and registers
    exactly 2 contexts (registration is lazy-but-batched)."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(10)
    ]
    structure = Structure(
        wires, enclosure=Box.from_bounds(-4, 23, -4, 12, -4, 5)
    )
    cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=2)
    with FRWSolver(structure, cfg) as solver:
        result = solver.extract(masters=[0, 5])
        assert sorted(solver._contexts) == [0, 5]
        assert len(solver._executor._registry) == 2
    assert result.matrix.masters == [0, 5]
    # The subset rows match a fresh solver extracting the same masters.
    with FRWSolver(structure, cfg) as fresh:
        again = fresh.extract(masters=[0, 5])
    assert np.array_equal(result.matrix.values, again.matrix.values)


# ----------------------------------------------------------------------
# Allocation policy units
# ----------------------------------------------------------------------
def test_allocate_quota_even_split():
    q = allocate_quota(np.ones(3), total=9, min_share=1)
    assert q.tolist() == [3, 3, 3]


def test_allocate_quota_min_share_and_weights():
    q = allocate_quota(np.array([0.0, 0.0, 10.0]), total=6, min_share=1)
    assert q.tolist() == [1, 1, 4]
    assert q.sum() == 6


def test_allocate_quota_deterministic_ties():
    a = allocate_quota(np.array([1.0, 1.0, 1.0]), total=5, min_share=1)
    b = allocate_quota(np.array([1.0, 1.0, 1.0]), total=5, min_share=1)
    assert a.tolist() == b.tolist()
    assert a.sum() == 5


def test_allocate_quota_all_zero_weights_falls_back_even():
    q = allocate_quota(np.zeros(4), total=8, min_share=1)
    assert q.tolist() == [2, 2, 2, 2]


def test_variance_weights_shape():
    w = variance_weights(np.array([np.inf, 0.05, 0.005]), tolerance=0.01)
    assert w[0] == pytest.approx(32.0**2)  # no estimate yet: max weight
    assert w[1] == pytest.approx(25.0)  # 5x over tolerance
    assert w[2] == 0.0  # converged: no speculation


def test_reweight_needed_first_round_and_shape_change():
    w = np.array([1.0, 2.0])
    assert reweight_needed(w, None, threshold=0.25)
    assert reweight_needed(w, np.array([1.0, 2.0, 3.0]), threshold=0.25)


def test_reweight_needed_ignores_uniform_decay():
    """All weights shrinking together (every master converging) must not
    trigger a reweight — the *shares* are unchanged."""
    prev = np.array([8.0, 4.0, 4.0])
    assert not reweight_needed(prev / 10.0, prev, threshold=0.05)
    assert not reweight_needed(prev * 3.0, prev, threshold=0.05)


def test_reweight_needed_fires_on_share_shift():
    prev = np.array([1.0, 1.0])  # shares (0.5, 0.5)
    moved = np.array([4.0, 1.0])  # shares (0.8, 0.2): moved 0.3 in L-inf
    assert reweight_needed(moved, prev, threshold=0.25)
    assert not reweight_needed(moved, prev, threshold=0.35)


def test_reweight_needed_zero_threshold_always_fires():
    w = np.array([1.0, 2.0])
    assert reweight_needed(w, w.copy(), threshold=0.0)


def test_reweight_needed_all_zero_weights_stable():
    """Converged-everywhere rounds normalise to even shares, not NaN."""
    zeros = np.zeros(3)
    assert not reweight_needed(zeros, np.ones(3), threshold=0.25)


def test_variance_allocation_hysteresis_bitwise(three_wires, golden_rows):
    """Hysteresis changes only the schedule, never the rows; disabling it
    (threshold 0) restores the per-round reweighting and is bitwise too."""
    for hysteresis in (0.0, 0.25, 1.0):
        cfg = FRWConfig.frw_r(
            **BASE,
            executor="process",
            n_workers=4,
            allocation="variance",
            allocation_hysteresis=hysteresis,
        )
        with FRWSolver(three_wires, cfg) as solver:
            result = solver.extract()
        _assert_rows_match(result, golden_rows)


def _rng_live_bytes() -> int:
    """Bytes currently allocated from repro.rng source lines."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*repro/rng/*")]
    )
    return sum(stat.size for stat in snap.statistics("filename"))


def test_rng_scratch_does_not_grow_with_masters(on_threads, monkeypatch):
    """The interleaved serial scheduler keeps one engine pipeline per
    master alive, but RNG scratch is per thread: the repro.rng bytes live
    at every batch checkpoint are the same for 2 and for 5 masters.
    Measured: 1,709,748 bytes at 2 masters and 1,712,628 at 5 (one fixed
    ~1.6 MB scratch per thread); the previous per-provider scratch held
    4,179,796 and 10,545,172."""
    wires = Structure(
        [
            Conductor.single(f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1, 0, 8, 0, 1))
            for i in range(5)
        ],
        enclosure=Box.from_bounds(-4, 13, -4, 12, -4, 5),
    )
    cfg = FRWConfig.frw_r(
        seed=3, batch_size=2048, min_walks=4096, max_walks=4096,
        tolerance=1e-6, executor="serial",
    )
    peak: dict[int, int] = {}
    absorb = RowProgress.absorb

    def traced_absorb(self, results):
        key = n_masters[0]
        peak[key] = max(peak.get(key, 0), _rng_live_bytes())
        return absorb(self, results)

    monkeypatch.setattr(RowProgress, "absorb", traced_absorb)
    n_masters = [0]
    tracemalloc.start()
    try:
        for masters in ([0, 1], [0, 1, 2, 3, 4]):
            n_masters[0] = len(masters)
            # A fresh thread starts with no scratch, so its allocation is
            # traced.
            on_threads([lambda: FRWSolver(wires, cfg).extract(masters)])
    finally:
        tracemalloc.stop()
    assert 0 < peak[5] <= peak[2] + 16384
    assert peak[5] < 2 * 1024 * 1024
