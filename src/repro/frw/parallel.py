"""Real multi-core executors and batch runners for walk computation.

The virtual-thread scheduler reproduces parallel *floating-point behaviour*;
this module provides actual concurrency for throughput.  The centrepiece is
:class:`PersistentExecutor`: a process pool that is created once, reused
across batches *and* master conductors, and shipped each
:class:`~repro.frw.context.ExtractionContext` once — replacing the historical
pool-per-call pattern.  A batch's walk UIDs are split into chunks executed by
the pool and results are reassembled in UID order, so the extraction output
is bit-identical to the serial engine — real parallelism changes wall time
only, which is exactly the DOP-independence contract of Alg. 2.  There is
no thread pool: the engine's per-step NumPy calls are too small to overlap
under the GIL, and a thread pool ran slower than the in-process serial
engine (docs/PERFORMANCE.md, layer 1).

On top of the executor sit the *batch runners* used by
``extract_row_alg2``: each runner exposes ``run_batch(batch_index)`` and
differs only in how the walks are scheduled:

* :class:`SerialBatchRunner` — the historical one-batch-at-a-time engine.
* :class:`PipelinedBatchRunner` — one refill-capable
  :class:`~repro.frw.engine.WalkPipeline` spanning all batches.
* :class:`ProcessBatchRunner` — chunks dispatched to the persistent
  process pool, with cross-batch *dispatch pipelining*: while batch ``u``
  is being harvested, chunks of batches ``u+1 .. u+lookahead`` are already
  in flight, so the pool never drains at a batch boundary.  UIDs are a
  pure function of the batch index and results reassemble in UID order,
  so speculation trades wall time only.

The process backend ships contexts through the **shared-memory context
plane** (:mod:`repro.frw.shm`) by default: registering a context publishes
its arrays into a shared block once, and per-batch messages carry only a
small manifest + the UID chunk — workers attach lazily and cache the
attachment, so steady-state dispatch is manifest-only and works under any
start method (``fork``, ``spawn``, ``forkserver``).  The legacy
fork-inheritance protocol survives behind ``shared_context=False``.

Every path reuses the engine's slot arena across batches: the in-process
runners own persistent :class:`~repro.frw.engine.WalkPipeline` instances
(one arena each, alive for the whole run), and chunk tasks that go through
:func:`~repro.frw.engine.run_walks` in pool workers hit its per-thread
workspace cache, so steady-state batch execution allocates no walk-state
arrays anywhere.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time

import numpy as np

from ..config import EXECUTOR_KINDS, MP_START_METHODS, FRWConfig
from ..errors import ConfigError
from . import shm
from .context import ExtractionContext
from .engine import StageTimers, WalkPipeline, WalkResults, run_walks

#: A stream spec is ``(rng_kind, seed, stream)`` — enough to rebuild a
#: per-walk stream provider anywhere (in this process or a pool worker),
#: which is what makes "any worker can evaluate any walk" real.
#: Antithetic configs extend it to ``(rng_kind, seed, stream, group,
#: depth)``; the 3-tuple form is kept for antithetic-off configs so their
#: dispatch payloads and worker caches stay byte-identical to before.
StreamSpec = tuple


def stream_spec(config: FRWConfig, master: int) -> StreamSpec:
    """The stream spec of one master under a config (domain-separated)."""
    if config.antithetic:
        return (
            config.rng,
            config.seed,
            master,
            config.antithetic_group,
            config.antithetic_depth,
        )
    return (config.rng, config.seed, master)


def streams_from_spec(spec: StreamSpec):
    """Build a fresh per-walk stream provider from a spec."""
    kind, seed, stream = spec[:3]
    if kind == "mt":
        from ..rng import MTWalkStreams

        return MTWalkStreams(seed, stream)
    from ..rng import WalkStreams

    streams = WalkStreams(seed, stream)
    if len(spec) == 5:
        from ..rng import MirroredDraws

        streams = MirroredDraws(streams, spec[3], spec[4])
    return streams


def resolve_workers(n_workers: int) -> int:
    """Worker count with ``0`` meaning auto.

    Auto prefers ``os.sched_getaffinity(0)`` — the CPUs this process may
    actually run on — over ``os.cpu_count()``: in containers and under
    taskset/cgroup limits the two differ, and sizing a pool by the host
    count oversubscribes the allowed cores (or, with a restricted
    ``cpu_count``, undersizes it).  Falls back to the host count where
    affinity is not exposed (macOS, Windows).
    """
    if n_workers > 0:
        return int(n_workers)
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def resolve_start_method(method: str = "auto") -> str:
    """Concrete multiprocessing start method for the process backend.

    ``"auto"`` resolves to ``fork`` where the platform offers it (cheapest
    pool start) and ``spawn`` otherwise.  Explicit methods are validated
    against the platform's supported set.
    """
    if method not in MP_START_METHODS:
        raise ConfigError(
            f"mp_start_method must be one of {MP_START_METHODS}, got "
            f"{method!r}"
        )
    available = multiprocessing.get_all_start_methods()
    if method == "auto":
        return "fork" if "fork" in available else "spawn"
    if method not in available:  # pragma: no cover - platform dependent
        raise ConfigError(
            f"start method {method!r} is not supported on this platform "
            f"(available: {available})"
        )
    return method


def _chunk_bounds(n: int, workers: int, chunk_size: int) -> list[tuple[int, int]]:
    if chunk_size <= 0:
        chunk_size = max(64, (n + workers - 1) // max(1, workers))
    chunk_size = max(1, min(chunk_size, n)) if n else 1
    return [(start, min(start + chunk_size, n)) for start in range(0, n, chunk_size)]


def _reassemble(uids: np.ndarray, parts: list[WalkResults]) -> WalkResults:
    omega = np.concatenate([p.omega for p in parts])
    dest = np.concatenate([p.dest for p in parts])
    steps = np.concatenate([p.steps for p in parts])
    truncated = sum(p.truncated for p in parts)
    return WalkResults(
        uids=uids, omega=omega, dest=dest, steps=steps, truncated=truncated
    )


# ----------------------------------------------------------------------
# Process-pool worker side.  Two context-shipping protocols:
#
# * Shared-memory plane (default): the parent publishes each context into
#   a shared block (repro.frw.shm) and dispatches (manifest, uids) work
#   items.  Workers attach lazily — the first chunk of a context maps the
#   block and rebuilds the context over zero-copy views; every later chunk
#   hits the attachment cache.  Works under fork, spawn, and forkserver.
# * Legacy fork inheritance (shared_context=False): the parent stores
#   contexts in _FORK_REGISTRY immediately before forking the pool and
#   workers inherit that memory; per-batch messages carry only (key, uids).
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

_FORK_REGISTRY: dict = {}
_WORKER_STREAMS: dict = {}


def _process_chunk(key: int, uids: np.ndarray) -> WalkResults:
    ctx, spec = _FORK_REGISTRY[key]
    streams = _WORKER_STREAMS.get(key)
    if streams is None:
        streams = streams_from_spec(spec)
        # det: allow(DET006) per-process memo of this worker's own stream
        # family; streams are counter-based (stateless per uid), so the cache
        # only avoids re-deriving keys and cannot affect sample values.
        _WORKER_STREAMS[key] = streams
    return run_walks(ctx, streams, uids)


def _shm_chunk(manifest, uids: np.ndarray) -> WalkResults:
    """Worker entry of the shared-context protocol: attach (cached), run."""
    ctx = shm.attach_context(manifest)
    cache_key = (manifest.block, manifest.spec)
    streams = _WORKER_STREAMS.get(cache_key)
    if streams is None:
        streams = streams_from_spec(manifest.spec)
        # det: allow(DET006) per-process memo of this worker's own stream
        # family; streams are counter-based (stateless per uid), so the cache
        # only avoids re-deriving keys and cannot affect sample values.
        _WORKER_STREAMS[cache_key] = streams
    return run_walks(ctx, streams, uids)


def _worker_probe(delay: float) -> tuple[int, int]:
    """Identify the executing worker: ``(pid, blocks attached so far)``.

    Each probe sleeps briefly so a ``map(..., chunksize=1)`` of one probe
    per pool slot lands on distinct workers instead of racing onto one.
    """
    time.sleep(float(delay))
    return os.getpid(), shm.attach_count()


class PendingBatch:
    """Handle to a dispatched walk batch (one UID set, maybe chunked).

    Either ``waiters`` (per-chunk blocking getters, e.g. future results)
    or ``thunk`` (a lazy whole-batch computation) backs the handle;
    :meth:`result` gathers and reassembles in UID order.  Lazy handles
    compute nothing until gathered, so speculative batches that a
    stopping rule obsoletes are free to drop.
    """

    __slots__ = ("uids", "_waiters", "_thunk", "_result")

    def __init__(self, uids: np.ndarray, waiters=None, thunk=None):
        self.uids = uids
        self._waiters = waiters
        self._thunk = thunk
        self._result: WalkResults | None = None

    def result(self) -> WalkResults:
        """Block until the batch completes; UID-ordered results."""
        if self._result is None:
            if self._waiters is not None:
                parts = [wait() for wait in self._waiters]
                self._result = (
                    parts[0]
                    if len(parts) == 1
                    else _reassemble(self.uids, parts)
                )
            else:
                self._result = self._thunk()
            self._waiters = None
            self._thunk = None
        return self._result


class PersistentExecutor:
    """A walk-execution pool created once and reused for a whole extraction.

    Parameters
    ----------
    backend:
        ``"process"`` (``"serial"`` is accepted and makes :meth:`run` a
        plain in-process engine call, for uniform call sites).
    n_workers:
        Pool width; ``0`` means auto (host CPU count).
    chunk_size:
        UIDs per work item; ``0`` means auto (even split over workers).

    mp_start_method:
        Start method of the process backend (``"auto"``, ``"fork"``,
        ``"spawn"``, ``"forkserver"``; see :func:`resolve_start_method`).
    shared_context:
        Ship contexts through the shared-memory plane (default): the pool
        is created once, registration publishes blocks, workers attach
        lazily, and per-batch messages carry only the manifest.  With
        ``False`` the legacy fork-inheritance protocol is used: contexts
        travel by forking *after* registration, and registering a new
        context after the fork restarts the pool once.

    Contexts are registered once per master (:meth:`register`); thereafter
    any number of batches can be dispatched with :meth:`run`.  Dispatch
    telemetry (work items, pickled payload bytes) accumulates in
    :meth:`dispatch_stats`; :meth:`worker_stats` probes the live pool for
    worker PIDs and per-worker attachment counts.
    """

    def __init__(
        self,
        backend: str = "process",
        n_workers: int = 0,
        chunk_size: int = 0,
        mp_start_method: str = "auto",
        shared_context: bool = True,
    ):
        # Set first so __del__/close stay safe if validation below raises.
        self._closed = True
        if backend not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor backend must be one of {EXECUTOR_KINDS}, got {backend!r}"
            )
        self.backend = backend
        self.n_workers = resolve_workers(n_workers)
        self.chunk_size = int(chunk_size)
        self.mp_start_method = mp_start_method
        self.shared_context = bool(shared_context)
        if backend == "process":
            # Resolve eagerly so a bad method/platform combination fails at
            # construction, not mid-extraction.
            self._start_method = resolve_start_method(mp_start_method)
            if not self.shared_context and self._start_method != "fork":
                raise ConfigError(
                    "shared_context=False ships contexts by fork "
                    "inheritance and requires the fork start method, "
                    f"got {self._start_method!r}"
                )
        else:
            self._start_method = None
        self._process_pool = None
        self._registry: dict[int, tuple[ExtractionContext, StreamSpec]] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._manifests: dict[int, "shm.ContextManifest"] = {}
        self._next_key = 0
        self._version = 0
        self._forked_version = -1
        self._closed = False
        self.dispatches = 0
        self.dispatch_pickle_bytes = 0

    # ------------------------------------------------------------------
    # Registration (context shipping)
    # ------------------------------------------------------------------
    def register(self, ctx: ExtractionContext, spec: StreamSpec) -> int:
        """Register a context + stream spec once; returns its dispatch key.

        On the shared-context process backend this *publishes* the context
        into a shared-memory block immediately — the pool (if any) keeps
        running and workers attach on first dispatch.  On the legacy
        fork-inheritance backend it bumps the registry version, which
        triggers one pool restart at the next dispatch.
        """
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is not None:
            return key
        key = self._next_key
        self._next_key += 1
        self._registry[key] = (ctx, spec)
        self._keys[ident] = key
        self._version += 1
        if self.backend == "process" and self.shared_context:
            self._manifests[key] = shm.publish_context(ctx, spec)
        return key

    @property
    def restarts_on_register(self) -> bool:
        """Whether registering a new context forces a pool restart.

        Only the legacy fork-inheritance protocol does; the shared-memory
        context plane creates the pool once and later registrations just
        publish new blocks, which workers attach lazily.  Schedulers use
        this to decide whether in-flight handles must be drained before
        admitting a new registration wave.
        """
        return self.backend == "process" and not self.shared_context

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------
    def _processes(self):
        if self.shared_context:
            # Shared-memory plane: one pool for the executor's lifetime.
            # Contexts live in published blocks, so registration never
            # requires a restart and any start method works.
            if self._process_pool is None:
                mp_ctx = multiprocessing.get_context(self._start_method)
                self._process_pool = mp_ctx.Pool(processes=self.n_workers)
                self._forked_version = self._version
            return self._process_pool
        if self._process_pool is None or self._forked_version != self._version:
            if self._process_pool is not None:
                self._process_pool.terminate()
                self._process_pool.join()
                self._process_pool = None
            mp_ctx = multiprocessing.get_context("fork")
            # Ship every registered context to the workers via fork
            # inheritance: set the module-level registry, then fork.
            _FORK_REGISTRY.clear()
            _FORK_REGISTRY.update(self._registry)
            self._process_pool = mp_ctx.Pool(processes=self.n_workers)
            self._forked_version = self._version
        return self._process_pool

    # ------------------------------------------------------------------
    # Batch dispatch
    # ------------------------------------------------------------------
    def run(self, key: int, uids: np.ndarray) -> WalkResults:
        """Execute one batch of walks, reassembled in UID order."""
        return self.run_async(key, uids).result()

    def run_async(
        self, key: int, uids: np.ndarray, max_chunks: int | None = None
    ) -> "PendingBatch":
        """Dispatch one batch without blocking; returns a handle.

        The handle's :meth:`PendingBatch.result` reassembles the chunk
        results in UID order, so a gathered batch is bit-identical to the
        serial engine no matter how its chunks were scheduled.  On the
        serial fallback the handle is *lazy* — the walks run on the first
        ``result()`` call, so handles that are dropped (speculative
        batches past a stopping rule) cost nothing.

        ``max_chunks`` caps how many work items the batch splits into
        (the cross-master scheduler keeps batches whole when enough other
        masters' batches fill the pool — wide engine vectors beat fine
        chunking).  An explicit ``chunk_size`` on the executor wins over
        the cap; chunking never changes results, only the schedule.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        ctx, spec = self._registry[key]
        if self.backend == "serial" or self.n_workers == 1 or n < 2:
            return PendingBatch(
                uids, thunk=lambda: run_walks(ctx, streams_from_spec(spec), uids)
            )
        if max_chunks is not None and self.chunk_size <= 0:
            max_chunks = max(1, int(max_chunks))
            bounds = _chunk_bounds(
                n, max_chunks, (n + max_chunks - 1) // max_chunks
            )
        else:
            bounds = _chunk_bounds(n, self.n_workers, self.chunk_size)
        chunks = [uids[a:b] for a, b in bounds]
        self.dispatches += len(chunks)
        pool = self._processes()
        if self.shared_context:
            manifest = self._manifests[key]
            payloads = [(manifest, c) for c in chunks]
            worker = _shm_chunk
        else:
            payloads = [(key, c) for c in chunks]
            worker = _process_chunk
        self.dispatch_pickle_bytes += sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads
        )
        asyncs = [pool.apply_async(worker, p) for p in payloads]
        return PendingBatch(uids, waiters=[a.get for a in asyncs])

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry.

        ``pickle_bytes`` counts the pickled payload of every process-pool
        work item, so ``pickle_bytes_per_dispatch`` directly measures the
        steady-state per-dispatch payload — manifest-only under the shared-context
        plane, regardless of context size.
        """
        n = max(1, self.dispatches)
        return {
            "dispatches": self.dispatches,
            "pickle_bytes": self.dispatch_pickle_bytes,
            "pickle_bytes_per_dispatch": round(
                self.dispatch_pickle_bytes / n, 1
            ),
            "published_contexts": len(self._manifests),
            "published_nbytes": sum(
                m.nbytes for m in self._manifests.values()
            ),
        }

    def worker_stats(self, probes_per_worker: int = 4, delay: float = 0.02) -> dict:
        """Best-effort process-pool probe: worker PIDs and attach counts.

        Maps short sleep probes across the pool (``chunksize=1`` so they
        spread over workers) and reports, per observed worker PID, how many
        shared context blocks that worker has attached.  Empty for
        non-process backends.  Scheduling decides which workers answer, so
        this is telemetry — results never feed back into walk values.
        """
        if self.backend != "process":
            return {}
        pool = self._processes()
        n = max(1, self.n_workers) * max(1, int(probes_per_worker))
        rows = pool.map(_worker_probe, [delay] * n, chunksize=1)
        attaches: dict[int, int] = {}
        for pid, count in rows:
            attaches[pid] = max(count, attaches.get(pid, 0))
        pids = sorted(attaches)
        return {
            "worker_pids": pids,
            "attach_counts": {str(pid): attaches[pid] for pid in pids},
            "total_attaches": sum(attaches[pid] for pid in pids),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release published blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._process_pool is not None:
            self._process_pool.terminate()
            self._process_pool.join()
            self._process_pool = None
        # Unlink after the workers are gone: attached mappings die with
        # them, so no segment outlives the executor in /dev/shm.
        if self._manifests:
            for key in sorted(self._manifests):
                shm.release_manifest(self._manifests[key])
            self._manifests.clear()

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except (OSError, RuntimeError, ValueError) as exc:
            # Pool teardown can race interpreter shutdown (half-collected
            # module globals, dead worker pipes).  Those failures are
            # expected here and only here; anything else should propagate.
            _LOG.debug("PersistentExecutor.__del__: close() failed: %r", exc)


# ----------------------------------------------------------------------
# Batch runners: uniform per-batch API over the scheduling strategies.
# ----------------------------------------------------------------------
def _batch_feed(batch_size: int):
    """UID feed for ``WalkPipeline``: every UID of each batch in turn."""

    def feed(batch_index: int) -> np.ndarray:
        base = batch_index * batch_size
        return np.arange(base, base + batch_size, dtype=np.uint64)

    return feed


class SerialBatchRunner:
    """One batch at a time through the plain engine (the historical path).

    Implemented as a *persistent* lookahead-0 :class:`WalkPipeline`: with
    no lookahead, each batch drains completely before the next one feeds,
    so the schedule — and therefore every result bit — is identical to
    calling :func:`run_walks` per batch, but the slot arena and step
    scratch are allocated once and reused for the whole run.
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        streams,
        batch_size: int,
        timers: StageTimers | None = None,
        group: int = 1,
        prefetch: int | None = None,
    ):
        self.ctx = ctx
        self.streams = streams
        self.batch_size = int(batch_size)
        self._pipe = WalkPipeline(
            ctx,
            streams,
            _batch_feed(self.batch_size),
            width=self.batch_size,
            lookahead=0,
            timers=timers,
            group=group,
            prefetch=prefetch,
        )

    def run_batch(self, batch_index: int) -> WalkResults:
        return self._pipe.next_batch()

    def close(self) -> None:
        pass


class PipelinedBatchRunner:
    """A single refill pipeline spanning all batches (serial hardware)."""

    def __init__(
        self,
        ctx: ExtractionContext,
        streams,
        batch_size: int,
        lookahead: int = 1,
        timers: StageTimers | None = None,
        group: int = 1,
        prefetch: int | None = None,
    ):
        self._pipe = WalkPipeline(
            ctx,
            streams,
            _batch_feed(batch_size),
            width=batch_size,
            lookahead=lookahead,
            timers=timers,
            group=group,
            prefetch=prefetch,
        )

    def run_batch(self, batch_index: int) -> WalkResults:
        return self._pipe.next_batch()

    def close(self) -> None:
        pass


class ProcessBatchRunner:
    """Batches dispatched to the persistent process pool, pipelined across
    batch boundaries (RidgeWalker's dispatch model).

    ``run_batch(u)`` keeps up to ``lookahead`` batches beyond ``u`` in
    flight, so while batch ``u`` is being gathered the pool is already
    computing ``u+1 .. u+lookahead`` — the workers never drain at a batch
    boundary.  Batch UIDs are a pure function of the batch index and every
    batch reassembles in UID order, so speculation changes wall time only;
    batches still in flight when the stopping rule fires are counted in
    ``speculative_discarded`` (dispatched work the row never consumed).
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        spec: StreamSpec,
        batch_size: int,
        executor: PersistentExecutor,
        lookahead: int = 1,
    ):
        self.batch_size = int(batch_size)
        self.executor = executor
        self.lookahead = max(0, int(lookahead))
        self._key = executor.register(ctx, spec)
        self._inflight: dict[int, PendingBatch] = {}
        self._next_dispatch = 0
        self.speculative_discarded = 0

    def _dispatch(self, batch_index: int) -> PendingBatch:
        base = batch_index * self.batch_size
        uids = np.arange(base, base + self.batch_size, dtype=np.uint64)
        return self.executor.run_async(self._key, uids)

    def run_batch(self, batch_index: int) -> WalkResults:
        target = max(batch_index + 1 + self.lookahead, batch_index + 1)
        while self._next_dispatch < target:
            self._inflight[self._next_dispatch] = self._dispatch(
                self._next_dispatch
            )
            self._next_dispatch += 1
        handle = self._inflight.pop(batch_index, None)
        if handle is None:
            # Out-of-order harvest (not used by extract_row_alg2, but the
            # runner API allows it): dispatch on demand.
            handle = self._dispatch(batch_index)
        return handle.result()

    def close(self) -> None:
        # The pool is shared and owned elsewhere; dropped handles are never
        # gathered, so the only cost of speculation is worker time already
        # spent (bounded by `lookahead` batches).
        self.speculative_discarded += len(self._inflight)
        self._inflight.clear()


def make_batch_runner(
    ctx: ExtractionContext,
    config: FRWConfig,
    executor: PersistentExecutor | None = None,
    timers: StageTimers | None = None,
):
    """Pick the batch runner for a config.

    Returns ``(runner, owned_executor)`` where ``owned_executor`` is a
    :class:`PersistentExecutor` created here (caller must close it), or
    ``None`` when the executor was supplied (e.g. by ``FRWSolver``, which
    keeps one pool alive across masters) or not needed.

    ``timers`` (optional) accumulates the engine's per-stage wall time:
    serial/pipelined runners charge it directly.  The process runner
    cannot report stages — the engine loops run in pool workers — and
    leaves ``timers`` untouched.
    """
    backend = config.executor
    workers = (
        executor.n_workers if executor is not None else resolve_workers(config.n_workers)
    )
    spec = stream_spec(config, ctx.master)
    group = config.antithetic_group if config.antithetic else 1
    # In-process runners get the prefetch depth explicitly; process
    # workers rebuild their pipelines from the shipped context and inherit
    # it from ``ctx.config.rng_prefetch_depth`` (prefetching is
    # bit-invisible, so the knob never needs to cross the wire separately).
    prefetch = config.rng_prefetch_depth
    owned = None
    if backend != "serial" and workers > 1 and executor is None:
        owned = PersistentExecutor(
            backend,
            config.n_workers,
            config.chunk_size,
            mp_start_method=config.mp_start_method,
            shared_context=config.shared_context,
        )
        executor = owned
    if backend == "serial" or workers <= 1 or executor is None:
        streams = streams_from_spec(spec)
        if config.pipeline:
            runner = PipelinedBatchRunner(
                ctx,
                streams,
                config.batch_size,
                config.pipeline_lookahead,
                timers=timers,
                group=group,
                prefetch=prefetch,
            )
        else:
            runner = SerialBatchRunner(
                ctx,
                streams,
                config.batch_size,
                timers=timers,
                group=group,
                prefetch=prefetch,
            )
    else:
        runner = ProcessBatchRunner(
            ctx,
            spec,
            config.batch_size,
            executor,
            lookahead=config.pipeline_lookahead if config.pipeline else 0,
        )
    return runner, owned


# ----------------------------------------------------------------------
# One-shot convenience (kept for benchmarks and direct engine use; the
# extraction path goes through PersistentExecutor + batch runners).
# ----------------------------------------------------------------------
def run_walks_processes(
    ctx: ExtractionContext,
    seed: int,
    stream: int,
    uids: np.ndarray,
    n_workers: int,
    chunk_size: int | None = None,
    start_method: str = "auto",
) -> WalkResults:
    """Execute one UID batch across a short-lived process pool.

    Mirrors the distributed-memory deployments of FRW solvers: workers
    share nothing but the published context (one shared-memory block) and
    the global seed; results are reassembled in UID order and are
    bit-identical to the serial engine.  Counter-based streams make this
    trivially correct — any worker can evaluate any walk.

    ``start_method`` picks the pool start method (``"auto"``, ``"fork"``,
    ``"spawn"``, ``"forkserver"``); the shared-memory context plane makes
    all of them produce identical bits on every platform that has them.
    """
    uids = np.asarray(uids, dtype=np.uint64)
    n = uids.shape[0]
    workers = max(1, int(n_workers))
    if workers == 1 or n < 2:
        from ..rng import WalkStreams

        return run_walks(ctx, WalkStreams(seed, stream), uids)
    with PersistentExecutor(
        "process", workers, int(chunk_size or 0), mp_start_method=start_method
    ) as executor:
        key = executor.register(ctx, ("philox", seed, stream))
        return executor.run(key, uids)
