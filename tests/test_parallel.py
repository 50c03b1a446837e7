"""Tests for the walk executors: the process pool, the solver's
single-master extraction over it, and the serial engine driven from
several threads at once."""

import numpy as np

from repro import FRWConfig
from repro.frw import build_context, run_walks
from repro.rng import WalkStreams


def test_parallel_matches_serial_bitwise(plates, threaded_walks):
    """The serial engine run on four concurrent threads that share one
    stream provider (per-thread RNG scratch and arenas) matches one
    in-order run bit for bit."""
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(2000, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    parallel = threaded_walks(ctx, WalkStreams(77, 0), uids, n_threads=4)
    assert np.array_equal(serial.omega, parallel.omega)
    assert np.array_equal(serial.dest, parallel.dest)
    assert np.array_equal(serial.steps, parallel.steps)
    assert serial.truncated == parallel.truncated


def test_parallel_chunk_size_irrelevant(plates, threaded_walks):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(501, dtype=np.uint64)  # odd size: ragged chunks
    streams = WalkStreams(77, 0)
    a = threaded_walks(ctx, streams, uids, chunk_size=64)
    b = threaded_walks(ctx, streams, uids, chunk_size=200)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.dest, b.dest)


def test_single_worker_shortcut(plates, threaded_walks):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(100, dtype=np.uint64)
    res = threaded_walks(ctx, WalkStreams(77, 0), uids, n_threads=1)
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


# ----------------------------------------------------------------------
# The persistent process pool
# ----------------------------------------------------------------------
import pytest

from repro.frw import PersistentExecutor, extract_row_alg2, stream_spec
from repro.frw.solver import FRWSolver


def test_process_pool_matches_serial(plates):
    """The distributed-memory backend: bit-identical to the serial engine."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(600, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(n_workers=2) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        procs = ex.run_async(key, uids, max_chunks=4).result()
    assert np.array_equal(serial.omega, procs.omega)
    assert np.array_equal(serial.dest, procs.dest)


def test_process_pool_single_worker_shortcut(plates):
    """A one-worker pool runs in-process and never starts a pool."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(50, dtype=np.uint64)
    with PersistentExecutor(n_workers=1) as ex:
        res = ex.run(ex.register(ctx, stream_spec(cfg, 0)), uids)
        assert ex._process_pool is None
        assert ex.dispatches == 0
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


@pytest.mark.parametrize("backend", ["process"])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_persistent_executor_bitwise(plates, backend, n_workers):
    """The pool at any worker count is bit-identical to the serial engine."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(700, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(n_workers=n_workers) as ex:
        assert ex.backend == backend
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run_async(key, uids, max_chunks=8).result()
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)
    assert np.array_equal(serial.steps, res.steps)
    assert serial.truncated == res.truncated


def test_persistent_executor_reused_across_masters(plates):
    """One pool serves several registered contexts (masters)."""
    cfg = FRWConfig.frw_r(seed=5)
    with PersistentExecutor(n_workers=2) as ex:
        for master in (0, 1):
            ctx = build_context(plates, master, cfg)
            key = ex.register(ctx, stream_spec(cfg, master))
            uids = np.arange(300, dtype=np.uint64)
            ref = run_walks(ctx, WalkStreams(5, master), uids)
            res = ex.run(key, uids)
            assert np.array_equal(ref.omega, res.omega)
            assert np.array_equal(ref.dest, res.dest)


def test_executor_register_is_idempotent(plates):
    cfg = FRWConfig.frw_r(seed=5)
    ctx = build_context(plates, 0, cfg)
    with PersistentExecutor(n_workers=2) as ex:
        k1 = ex.register(ctx, stream_spec(cfg, 0))
        k2 = ex.register(ctx, stream_spec(cfg, 0))
        assert k1 == k2


def test_executor_close_idempotent():
    ex = PersistentExecutor(n_workers=2)
    ex.close()
    ex.close()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial"),
        dict(executor="serial", pipeline_lookahead=3),
        dict(executor="process", n_workers=1),
        dict(executor="process", n_workers=3),
        dict(executor="serial", n_workers=4),
        dict(executor="serial", rng_prefetch_depth=1),
        dict(executor="serial", rng_prefetch_depth=16),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
    ],
)
def test_extract_row_backends_bitwise(plates, kwargs):
    """The acceptance criterion: the row ``FRWSolver.extract_row`` returns
    (values, sigma2, hits, walks, steps) is bitwise identical to the
    per-master reference across all executor backends and worker counts
    — the knobs trade wall time only."""
    base = dict(
        seed=13, n_threads=4, batch_size=256, min_walks=512,
        max_walks=1024, tolerance=1e-6,
    )
    ref_cfg = FRWConfig.frw_r(**base)
    ref_row, ref_stats = extract_row_alg2(build_context(plates, 0, ref_cfg))
    with FRWSolver(plates, FRWConfig.frw_r(**base, **kwargs)) as solver:
        row, stats = solver.extract_row(0)
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps
    assert stats.batches == ref_stats.batches


def test_solver_owns_executor_lifecycle(plates):
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=512,
        executor="process", n_workers=2,
    )
    with FRWSolver(plates, cfg) as solver:
        ex = solver.walk_executor()
        assert ex is not None
        assert solver.walk_executor() is ex  # created once, reused
        solver.extract_row(0)
    assert solver._executor is None  # released on exit


def test_solver_serial_config_has_no_executor(plates):
    for cfg in (
        FRWConfig.frw_r(),
        FRWConfig.frw_r(executor="serial", n_workers=4),
        FRWConfig.frw_r(executor="process", n_workers=1),
    ):
        assert FRWSolver(plates, cfg).walk_executor() is None


def test_process_single_worker_serial_fallback(plates, monkeypatch):
    """executor='process' with one worker degrades to the in-process
    arena, so an auto-sized pool is safe on single-core hosts.  The
    scheduler looks its runner classes up at call time: a
    ``SerialBatchRunner`` at lookahead 0, a ``PipelinedBatchRunner``
    otherwise."""
    from repro.frw import cross_master

    built = []
    for name in ("PipelinedBatchRunner", "SerialBatchRunner"):
        cls = getattr(cross_master, name)

        def build(*args, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(cross_master, name, build)
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=512,
        executor="process", n_workers=1,
    )
    for lookahead in (1, 0):
        with FRWSolver(plates, cfg.with_(pipeline_lookahead=lookahead)) as solver:
            solver.extract_row(0)
            assert solver.walk_executor() is None
    assert built == ["PipelinedBatchRunner", "SerialBatchRunner"]


# ----------------------------------------------------------------------
# Shared-memory context plane: spawn-safe process backend
# ----------------------------------------------------------------------
import os

from repro.errors import ConfigError
from repro.frw import shm
from repro.frw.parallel import resolve_start_method, resolve_workers


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_spawn_backend_bitwise(plates, n_workers):
    """The spawn start method inherits nothing — everything the workers
    see travels through the manifest protocol.  Bit-identity here is the
    proof the shared-memory plane carries the full context."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(700, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(n_workers=n_workers, mp_start_method="spawn") as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run_async(key, uids, max_chunks=8).result()
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)
    assert np.array_equal(serial.steps, res.steps)
    assert serial.truncated == res.truncated


def test_second_wave_registration_keeps_pool(plates):
    """Registering more contexts must publish blocks, not restart the
    pool: the worker PID set is unchanged across registration waves."""
    cfg = FRWConfig.frw_r(seed=5)
    with PersistentExecutor(n_workers=2) as ex:
        ctx0 = build_context(plates, 0, cfg)
        k0 = ex.register(ctx0, stream_spec(cfg, 0))
        uids = np.arange(300, dtype=np.uint64)
        res0 = ex.run(k0, uids)
        pids_before = {p.pid for p in ex._process_pool._pool}
        # Second wave: a new master registers while the pool is warm.
        ctx1 = build_context(plates, 1, cfg)
        k1 = ex.register(ctx1, stream_spec(cfg, 1))
        res1 = ex.run(k1, uids)
        pids_after = {p.pid for p in ex._process_pool._pool}
        assert pids_before == pids_after
        assert np.array_equal(
            run_walks(ctx0, WalkStreams(5, 0), uids).omega, res0.omega
        )
        assert np.array_equal(
            run_walks(ctx1, WalkStreams(5, 1), uids).omega, res1.omega
        )


def test_executor_dispatch_telemetry(plates):
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(400, dtype=np.uint64)
    with PersistentExecutor(n_workers=2) as ex:
        ex.register(ctx, stream_spec(cfg, 0))
        key = ex.register(ctx, stream_spec(cfg, 0))  # same key: one block
        ex.run_async(key, uids, max_chunks=4).result()
        stats = ex.dispatch_stats()
        assert stats["dispatches"] == 4  # 400 uids in 4 chunks of 100
        assert stats["published_contexts"] == 1
        assert stats["published_nbytes"] > 0
        # Steady-state messages are (manifest, uids): a few KB each.
        assert 0 < stats["pickle_bytes_per_dispatch"] < 16384
        workers = ex.worker_stats()
        assert set(workers["attach_counts"].values()) <= {0, 1}
        assert workers["total_attaches"] <= ex.n_workers


def test_executor_close_unlinks_blocks(plates):
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    ex = PersistentExecutor(n_workers=2)
    key = ex.register(ctx, stream_spec(cfg, 0))
    blocks = shm.published_blocks()
    assert blocks  # registration published the context
    ex.close()
    assert all(b not in shm.published_blocks() for b in blocks)


def test_solver_releases_shared_blocks(plates):
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=512,
        executor="process", n_workers=2,
    )
    with FRWSolver(plates, cfg) as solver:
        solver.extract_row(0)
        assert shm.published_blocks()  # context lives on the plane
    assert shm.published_blocks() == []  # context-manager exit unlinked


def test_resolve_start_method():
    assert resolve_start_method("fork") == "fork"
    assert resolve_start_method("spawn") == "spawn"
    assert resolve_start_method("auto") in ("fork", "spawn")
    with pytest.raises(ConfigError):
        resolve_start_method("greenlet")


def test_resolve_workers_prefers_affinity(monkeypatch):
    """Auto worker count must follow the CPUs this process may run on
    (cgroup/taskset limits), not the host's total CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_workers(0) == 2
    assert resolve_workers(5) == 5  # explicit counts pass through


def test_resolve_workers_affinity_fallback(monkeypatch):
    def boom(pid):
        raise OSError("no affinity syscall")

    monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_workers(0) == 3


def test_single_master_process_extraction_bitwise(plates):
    """A single-master extraction on process(2) runs through the
    cross-master scheduler: ``extract_row`` and ``extract([m])`` give the
    reference row byte for byte, with the default lookahead and with
    lookahead 0 (which only the serial arena reads)."""
    base = dict(
        seed=13, n_threads=4, batch_size=256, min_walks=512,
        max_walks=1024, tolerance=1e-6,
    )
    ref_row, ref_stats = extract_row_alg2(
        build_context(plates, 0, FRWConfig.frw_r(**base))
    )
    for lookahead in (1, 0):
        cfg = FRWConfig.frw_r(
            **base, executor="process", n_workers=2,
            pipeline_lookahead=lookahead,
        )
        with FRWSolver(plates, cfg) as solver:
            row, stats = solver.extract_row(0)
            full = solver.extract([0])
        for got, got_stats in ((row, stats), (full.rows[0], full.stats[0])):
            assert np.array_equal(got.values, ref_row.values)
            assert np.array_equal(got.sigma2, ref_row.sigma2)
            assert np.array_equal(got.hits, ref_row.hits)
            assert got.walks == ref_row.walks
            assert got_stats.batches == ref_stats.batches


def test_single_master_process_extraction_counts_speculation(plates):
    """The scheduler keeps ``2 * workers`` batches in flight for a lone
    master, so the stopping rule discards some; the telemetry must
    account for every dispatched batch."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=128, min_walks=256, max_walks=256,
        executor="process", n_workers=2,
    )
    with FRWSolver(plates, cfg) as solver:
        row, stats = solver.extract_row(0)
    assert stats.dispatched_batches == stats.batches + stats.discarded_batches
    assert stats.discarded_batches >= 1  # the quota ran past the stop
