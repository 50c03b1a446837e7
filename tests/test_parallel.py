"""Tests for the walk executors: the process pool, the in-process batch
runners, and the serial engine driven from several threads at once."""

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


def test_process_pool_matches_serial(plates):
    """The distributed-memory backend: bit-identical to the serial engine."""
    from repro.frw import run_walks_processes

    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(600, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    procs = run_walks_processes(ctx, 77, 0, uids, n_workers=2, chunk_size=150)
    assert np.array_equal(serial.omega, procs.omega)
    assert np.array_equal(serial.dest, procs.dest)


def test_process_pool_single_worker_shortcut(plates):
    from repro.frw import run_walks_processes

    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(50, dtype=np.uint64)
    res = run_walks_processes(ctx, 77, 0, uids, n_workers=1)
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


# ----------------------------------------------------------------------
# Persistent executors and batch runners
# ----------------------------------------------------------------------
import pytest

from repro.frw import (
    PersistentExecutor,
    extract_row_alg2,
    make_batch_runner,
    stream_spec,
)
from repro.frw.solver import FRWSolver


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_persistent_executor_bitwise(plates, backend, n_workers):
    """Any backend at any worker count is bit-identical to the serial engine."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(700, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(backend, n_workers=n_workers, chunk_size=96) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run(key, uids)
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)
    assert np.array_equal(serial.steps, res.steps)
    assert serial.truncated == res.truncated


def test_persistent_executor_reused_across_masters(plates):
    """One pool serves several registered contexts (masters)."""
    cfg = FRWConfig.frw_r(seed=5)
    with PersistentExecutor("process", n_workers=2) as ex:
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
    with PersistentExecutor("process", n_workers=2) as ex:
        k1 = ex.register(ctx, stream_spec(cfg, 0))
        k2 = ex.register(ctx, stream_spec(cfg, 0))
        assert k1 == k2


def test_executor_close_idempotent():
    ex = PersistentExecutor("process", n_workers=2)
    ex.close()
    ex.close()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial", pipeline=True),
        dict(executor="serial", pipeline=True, pipeline_lookahead=3),
        dict(executor="process", n_workers=1),
        dict(executor="process", n_workers=2, chunk_size=77),
        dict(executor="serial", n_workers=4),
        dict(executor="serial", rng_prefetch_depth=1),
        dict(executor="serial", rng_prefetch_depth=16),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
    ],
)
def test_extract_row_backends_bitwise(plates, kwargs):
    """The acceptance criterion: the extracted row (values, sigma2, hits,
    walks, steps) is bitwise identical across all executor backends and
    worker counts — the knobs trade wall time only."""
    base = dict(
        seed=13, n_threads=4, batch_size=256, min_walks=512,
        max_walks=1024, tolerance=1e-6,
    )
    ref_cfg = FRWConfig.frw_r(**base, executor="serial", pipeline=False)
    ref_row, ref_stats = extract_row_alg2(build_context(plates, 0, ref_cfg))
    cfg = FRWConfig.frw_r(**base, **kwargs)
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
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


def test_make_batch_runner_serial_fallback(plates):
    """executor='process' with one worker degrades to the in-process path,
    so an auto-sized pool is safe on single-core hosts."""
    from repro.frw.parallel import PipelinedBatchRunner, SerialBatchRunner

    cfg = FRWConfig.frw_r(executor="process", n_workers=1)
    ctx = build_context(plates, 0, cfg)
    runner, owned = make_batch_runner(ctx, cfg)
    assert owned is None
    assert isinstance(runner, PipelinedBatchRunner)
    runner2, owned2 = make_batch_runner(ctx, cfg.with_(pipeline=False))
    assert isinstance(runner2, SerialBatchRunner)
    assert owned2 is None


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
    with PersistentExecutor(
        "process", n_workers=n_workers, chunk_size=96, mp_start_method="spawn"
    ) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run(key, uids)
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)
    assert np.array_equal(serial.steps, res.steps)
    assert serial.truncated == res.truncated


def test_second_wave_registration_keeps_pool(plates):
    """Registering more contexts must publish blocks, not restart the
    pool: the worker PID set is unchanged across registration waves."""
    cfg = FRWConfig.frw_r(seed=5)
    with PersistentExecutor("process", n_workers=2, chunk_size=128) as ex:
        assert not ex.restarts_on_register
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


def test_legacy_fork_inheritance_still_bitwise(plates):
    """shared_context=False keeps the historical fork-inheritance
    protocol working (and restarting on registration)."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(400, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(
        "process", n_workers=2, chunk_size=128, shared_context=False
    ) as ex:
        assert ex.restarts_on_register
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run(key, uids)
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)


def test_executor_dispatch_telemetry(plates):
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(400, dtype=np.uint64)
    with PersistentExecutor("process", n_workers=2, chunk_size=100) as ex:
        ex.register(ctx, stream_spec(cfg, 0))
        ex.run(ex.register(ctx, stream_spec(cfg, 0)), uids)
        stats = ex.dispatch_stats()
        assert stats["dispatches"] == 4  # 400 uids / 100-uid chunks
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
    ex = PersistentExecutor("process", n_workers=2)
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


def test_spawn_requires_shared_context():
    with pytest.raises(ConfigError):
        PersistentExecutor(
            "process", n_workers=2,
            mp_start_method="spawn", shared_context=False,
        )
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(mp_start_method="spawn", shared_context=False)


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


def test_pipelined_process_runner_bitwise(plates):
    """ProcessBatchRunner with lookahead overlaps chunks from consecutive
    batches across the pool; rows must stay bit-identical to the
    unpipelined process path and the serial engine."""
    base = dict(
        seed=13, n_threads=4, batch_size=256, min_walks=512,
        max_walks=1024, tolerance=1e-6,
    )
    ref_cfg = FRWConfig.frw_r(**base, executor="serial", pipeline=False)
    ref_row, ref_stats = extract_row_alg2(build_context(plates, 0, ref_cfg))
    for kwargs in (
        dict(executor="process", n_workers=2, pipeline=True),
        dict(executor="process", n_workers=2, pipeline=True,
             pipeline_lookahead=3),
        dict(executor="process", n_workers=2, pipeline=False),
    ):
        cfg = FRWConfig.frw_r(**base, **kwargs)
        row, stats = extract_row_alg2(build_context(plates, 0, cfg))
        assert np.array_equal(row.values, ref_row.values)
        assert np.array_equal(row.sigma2, ref_row.sigma2)
        assert row.walks == ref_row.walks
        assert stats.batches == ref_stats.batches


def test_pipelined_runner_counts_speculation(plates):
    """Lookahead dispatches batches the stopping rule then discards; the
    runner must surface them so the telemetry stays honest."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=128, min_walks=256, max_walks=256,
        executor="process", n_workers=2, pipeline=True, pipeline_lookahead=2,
    )
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert stats.dispatched_batches == stats.batches + stats.discarded_batches
    assert stats.discarded_batches >= 1  # lookahead ran past the stop
