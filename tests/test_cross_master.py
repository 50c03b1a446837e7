"""Golden cross-master bit-identity suite for the interleaved scheduler.

The acceptance criterion of the scheduler, the one Alg. 2 driver: every
row it extracts — one master or many, any backend, any ``n_workers`` —
equals the per-master reference ``extract_row_alg2`` rows bit for bit
(``values``/``sigma2``/``hits``/``walks``/``batches``).
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure
from repro.frw import (
    RowProgress,
    StageTimers,
    WalkPipeline,
    build_context,
    extract_row_alg2,
    extract_rows_interleaved,
    multilevel_extract,
    plan_groups,
)
from repro.frw.scheduler import allocate_quota

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
    """Reference: per-master extraction, one batch at a time."""
    cfg = FRWConfig.frw_r(**BASE)
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


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_interleaved_bitwise_golden(
    three_wires, golden_rows, on_threads, backend, n_workers
):
    """``process`` runs one extraction on an ``n_workers`` pool; ``thread``
    runs ``n_workers`` serial extractions at once, each on its own thread
    (as the service's slots do), all sharing the per-thread RNG scratch
    design."""
    if backend == "thread":
        cfg = FRWConfig.frw_r(**BASE, executor="serial")

        def solve():
            with FRWSolver(three_wires, cfg) as solver:
                return solver.extract()

        results = on_threads([solve] * n_workers)
    else:
        cfg = FRWConfig.frw_r(**BASE, executor=backend, n_workers=n_workers)
        with FRWSolver(three_wires, cfg) as solver:
            results = [solver.extract()]
    for result in results:
        _assert_rows_match(result, golden_rows)


def test_interleaved_serial_executor_bitwise(three_wires, golden_rows):
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    result = FRWSolver(three_wires, cfg).extract()
    _assert_rows_match(result, golden_rows)


def test_single_master_extract_on_pool_bitwise(three_wires, golden_rows):
    """A one-master ``extract()`` has nothing to interleave with, but runs
    through the same scheduler: it registers its context and runs on the
    solver's pool."""
    cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=2)
    with FRWSolver(three_wires, cfg) as solver:
        results = [solver.extract(masters=[m]) for m in range(3)]
        assert len(solver._executor._registry) == 3
    for m, result in enumerate(results):
        assert result.matrix.meta["schedule"]["interleaved"] is False
        _assert_rows_match(result, golden_rows[m : m + 1])


def _ten_wires() -> Structure:
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(10)
    ]
    return Structure(wires, enclosure=Box.from_bounds(-4, 23, -4, 12, -4, 5))


def test_wave_admission_bitwise(monkeypatch):
    """Ten masters exceed the wave of ``max(8, 2 * workers)`` live masters
    on the serial engine and on process(2): the last two are admitted only
    after earlier ones converge (at most 8 arena lanes are ever open), and
    every row still equals the per-master reference."""
    structure = _ten_wires()
    cfg = FRWConfig.frw_r(
        **{**BASE, "min_walks": 256, "max_walks": 512, "tolerance": 1e-6}
    )
    ref = _per_master(structure, cfg)
    open_lanes = {"now": 0, "max": 0}
    add, close = WalkPipeline.add_lane, WalkPipeline.close_lane

    def spy_add(self, *args, **kwargs):
        open_lanes["now"] += 1
        open_lanes["max"] = max(open_lanes["max"], open_lanes["now"])
        return add(self, *args, **kwargs)

    def spy_close(self, lane):
        close(self, lane)
        open_lanes["now"] -= 1

    monkeypatch.setattr(WalkPipeline, "add_lane", spy_add)
    monkeypatch.setattr(WalkPipeline, "close_lane", spy_close)
    with FRWSolver(structure, cfg) as solver:
        serial = solver.extract()
    monkeypatch.undo()
    assert open_lanes["max"] == 8
    _assert_same_rows(serial, ref)
    with FRWSolver(structure, cfg.with_(executor="process", n_workers=2)) as solver:
        pooled = solver.extract()
    _assert_same_rows(pooled, ref)


def test_schedule_telemetry_and_asset_cache(three_wires):
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    sched = result.matrix.meta["schedule"]
    assert sched["interleaved"] is True
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
    structure = _ten_wires()
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
# Quota split units
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


def _rng_live_bytes() -> int:
    """Bytes currently allocated from repro.rng source lines."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*repro/rng/*")]
    )
    return sum(stat.size for stat in snap.statistics("filename"))


def test_rng_scratch_does_not_grow_with_masters(on_threads, monkeypatch):
    """The interleaved serial scheduler keeps every master's stream
    provider alive in its one arena, but RNG scratch is per thread: the
    repro.rng bytes live
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


# ----------------------------------------------------------------------
# One slot arena for every master (the serial scheduler's engine)
# ----------------------------------------------------------------------
_FUSED = dict(
    seed=13,
    n_threads=4,
    batch_size=256,
    min_walks=512,
    max_walks=1024,
    tolerance=1e-6,
    executor="serial",
    sanitize=True,
)


def _five_wires() -> Structure:
    return Structure(
        [
            Conductor.single(
                f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1, 0, 8, 0, 1)
            )
            for i in range(5)
        ],
        enclosure=Box.from_bounds(-4, 13, -4, 12, -4, 5),
    )


def _mixed_wires() -> Structure:
    """Three unlike wires: masters differ in Gaussian-surface area (flux
    prefactor) and in clearance (absorption tolerance), so a lane that
    borrowed another master's numbers would change bits."""
    return Structure(
        [
            Conductor.single("a", Box.from_bounds(0, 1, 0, 8, 0, 1)),
            Conductor.single("b", Box.from_bounds(1.8, 2.4, 0, 6, 0, 0.5)),
            Conductor.single("c", Box.from_bounds(3.9, 5.3, 1, 9, 0, 1.6)),
        ],
        enclosure=Box.from_bounds(-4, 9, -4, 13, -4, 6),
    )


def _assert_same_rows(got, ref):
    assert len(got.rows) == len(ref.rows)
    for a, b in zip(got.rows, ref.rows):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert np.array_equal(a.hits, b.hits)
        assert a.walks == b.walks
        assert a.total_steps == b.total_steps
    for a, b in zip(got.stats, ref.stats):
        assert a.batches == b.batches
        assert a.converged == b.converged
        assert a.truncated == b.truncated


def _per_master(structure, cfg, threads=None):
    """The per-master reference: one ``extract_row_alg2`` per master, one
    batch at a time.  ``threads`` maps a master to the virtual-thread DOP
    it replays at (multilevel group plans)."""
    threads = threads or {}
    with FRWSolver(structure, cfg) as solver:
        pairs = [
            extract_row_alg2(
                solver.context(m),
                cfg.with_(n_threads=threads.get(m, cfg.n_threads)),
            )
            for m in range(len(structure.conductors))
        ]
    return SimpleNamespace(
        rows=[row for row, _ in pairs], stats=[stats for _, stats in pairs]
    )


def _count_arenas(monkeypatch):
    """Count WalkPipeline constructions and lanes added to them."""
    seen = {"arenas": 0, "lanes": 0}
    init, add = WalkPipeline.__init__, WalkPipeline.add_lane

    def counting_init(self, *args, **kwargs):
        seen["arenas"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        seen["lanes"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(WalkPipeline, "__init__", counting_init)
    monkeypatch.setattr(WalkPipeline, "add_lane", counting_add)
    return seen


@pytest.mark.parametrize(
    "variant, overrides",
    [
        ("frw_r", {}),
        ("frw_nk", {}),
        ("frw_nc", {}),
        ("frw_r", {"antithetic": True}),
        ("frw_r", {"antithetic": True, "antithetic_group": 4}),
        ("frw_r", {"pipeline_lookahead": 0}),
        ("frw_r", {"pipeline_lookahead": 3}),
        ("frw_r", {"rng_prefetch_depth": 1}),
    ],
    ids=[
        "frw-r",
        "frw-nk",
        "frw-nc-mt",
        "antithetic",
        "antithetic-g4",
        "lookahead-0",
        "lookahead-3",
        "prefetch-1",
    ],
)
def test_fused_arena_rows_byte_equal_per_master_loop(
    monkeypatch, variant, overrides
):
    """All masters in one arena give the rows of the per-master loop bit
    for bit, and the serial scheduler really builds one arena for them."""
    structure = _mixed_wires()
    contexts = [build_context(structure, m, FRWConfig()) for m in range(3)]
    assert len({c.absorb_tol for c in contexts}) > 1
    assert len({c.flux_scale for c in contexts}) == 3
    cfg = getattr(FRWConfig, variant)(**_FUSED, **overrides)
    ref = _per_master(structure, cfg)
    seen = _count_arenas(monkeypatch)
    with FRWSolver(structure, cfg) as solver:
        fused = solver.extract()
    assert fused.matrix.meta["schedule"]["interleaved"] is True
    assert seen == {"arenas": 1, "lanes": 3}
    _assert_same_rows(fused, ref)


def test_fused_arena_layered_dielectric_byte_equal(layered_wires):
    """Interface (hemisphere) steps of two masters share vector steps; the
    per-lane absorption tolerance and flux prefactor keep their bits."""
    cfg = FRWConfig.frw_r(**{**_FUSED, "max_walks": 1536})
    ref = _per_master(layered_wires, cfg)
    with FRWSolver(layered_wires, cfg) as solver:
        fused = solver.extract()
    _assert_same_rows(fused, ref)


def test_fused_arena_multilevel_thread_overrides_byte_equal(three_wires):
    """multilevel_extract's per-master DOP overrides ride the fused arena
    and give the per-master loop's rows."""
    cfg = FRWConfig.frw_r(**{**_FUSED, "n_threads": 8})
    plan = plan_groups([0, 1, 2], cfg.n_threads, 2)
    threads = {
        m: max(1, t)
        for group, t in zip(plan.groups, plan.threads_per_group)
        for m in group
    }
    ref = _per_master(three_wires, cfg, threads)
    with FRWSolver(three_wires, cfg) as solver:
        fused = multilevel_extract(solver, min_threads_per_group=2)
    assert sorted({s.thread_work.shape[0] for s in fused.stats}) != [8]
    _assert_same_rows(fused, ref)


def test_fused_arena_evicts_stopped_master(three_wires, monkeypatch):
    """A master whose stopping rule fires first leaves the arena with its
    in-flight walks evicted while the other masters keep running; every
    row still equals the per-master loop's."""
    cfg = FRWConfig.frw_r(
        seed=13,
        n_threads=4,
        batch_size=256,
        min_walks=256,
        max_walks=4096,
        tolerance=0.1,
        executor="serial",
        sanitize=True,
    )
    closes = []
    close = WalkPipeline.close_lane

    def spy(self, lane):
        in_flight = int(np.count_nonzero(self._tag[: self.active] == lane))
        close(self, lane)
        closes.append(
            {
                "lane": lane,
                "in_flight": in_flight,
                "left": int(np.count_nonzero(self._tag[: self.active] == lane)),
                "others": self.active,
            }
        )

    monkeypatch.setattr(WalkPipeline, "close_lane", spy)
    with FRWSolver(three_wires, cfg) as solver:
        fused = solver.extract()
    batches = [s.batches for s in fused.stats]
    # Master 1 (the middle wire) converges batches before the others.
    assert batches[1] < min(batches[0], batches[2])
    first = closes[0]
    assert first["lane"] == 1
    assert first["in_flight"] > 0
    assert first["left"] == 0
    assert first["others"] > 0
    assert len(closes) == 3
    monkeypatch.undo()
    _assert_same_rows(fused, _per_master(three_wires, cfg))


def test_fused_arena_halves_vector_steps():
    """On a 5-master bus the fused arena takes at most half the vector
    steps of five one-master extractions combined (a StageTimers count,
    not a timing): every step advances all masters' walks."""
    bus = _five_wires()
    cfg = FRWConfig.frw_r(
        seed=3,
        n_threads=4,
        batch_size=512,
        min_walks=2048,
        max_walks=2048,
        tolerance=1e-6,
        executor="serial",
    )
    per_master = StageTimers()
    with FRWSolver(bus, cfg) as solver:
        for m in range(5):
            extract_rows_interleaved([m], cfg, solver.context, timers=per_master)
    fused_timers = StageTimers()
    with FRWSolver(bus, cfg) as solver:
        rows, stats = extract_rows_interleaved(
            list(range(5)), cfg, solver.context, timers=fused_timers
        )
    assert sum(s.walks for s in stats) == 5 * 2048
    assert 0 < fused_timers.steps <= 0.5 * per_master.steps


def test_arena_lanes_must_share_assets(three_wires):
    """Lanes whose contexts were built without a common SharedAssets do
    not share an index, so they cannot share an arena."""
    from repro.frw.parallel import PipelinedBatchRunner
    from repro.rng import WalkStreams

    cfg = FRWConfig.frw_r(**_FUSED)
    runner = PipelinedBatchRunner(
        build_context(three_wires, 0, cfg), WalkStreams(13, 0), 256
    )
    with pytest.raises(ValueError, match="SharedAssets"):
        runner.add_master(build_context(three_wires, 1, cfg), WalkStreams(13, 1))
