"""The process pool and the in-process batch runners of Alg. 2.

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

The serial path has no pool.  Its *batch runners* are slot arenas the
cross-master scheduler (:mod:`repro.frw.cross_master`, the one Alg. 2
driver) grows with one lane per live master; ``run_batch(u, master)``
returns a master's next batch in UID order:

* :class:`SerialBatchRunner` — one batch at a time per master
  (``pipeline_lookahead=0``).
* :class:`PipelinedBatchRunner` — one refill-capable
  :class:`~repro.frw.engine.WalkPipeline` spanning ``pipeline_lookahead``
  batches ahead.

On the process backend the scheduler dispatches batches straight to the
executor (:meth:`PersistentExecutor.run_async`) and keeps up to
``max(live masters, 2 * workers)`` of them in flight, so the pool never
drains at a batch boundary.

The process backend ships contexts through the **shared-memory context
plane** (:mod:`repro.frw.shm`): registering a context publishes its arrays
into a shared block once, and per-batch messages carry only a small
manifest + the UID chunk — workers attach lazily and cache the attachment,
so the pool is created once, never restarts, and steady-state dispatch is
manifest-only under any start method (``fork``, ``spawn``,
``forkserver``).

Every path reuses the engine's slot arena across batches: the in-process
runners own a persistent :class:`~repro.frw.engine.WalkPipeline` (one
arena, shared by all of their masters and alive for the whole run), and
chunk tasks that go through
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

from ..config import MP_START_METHODS, FRWConfig
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


def _chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """``n`` UIDs split into at most ``parts`` contiguous, even chunks."""
    size = max(1, -(-n // max(1, parts)))
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def _reassemble(uids: np.ndarray, parts: list[WalkResults]) -> WalkResults:
    omega = np.concatenate([p.omega for p in parts])
    dest = np.concatenate([p.dest for p in parts])
    steps = np.concatenate([p.steps for p in parts])
    truncated = sum(p.truncated for p in parts)
    return WalkResults(
        uids=uids, omega=omega, dest=dest, steps=steps, truncated=truncated
    )


# ----------------------------------------------------------------------
# Process-pool worker side.  The parent publishes each context into a
# shared block (repro.frw.shm) and dispatches (manifest, uids) work items.
# Workers attach lazily — the first chunk of a context maps the block and
# rebuilds the context over zero-copy views; every later chunk hits the
# attachment cache.  Works under fork, spawn, and forkserver.
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

_WORKER_STREAMS: dict = {}


def _shm_chunk(manifest, uids: np.ndarray) -> WalkResults:
    """Worker entry: attach the context (cached), run the chunk."""
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
    """A process pool created once and reused for a whole extraction.

    Parameters
    ----------
    n_workers:
        Pool width; ``0`` means auto (the CPUs this process may run on;
        see :func:`resolve_workers`).
    mp_start_method:
        Start method of the pool (``"auto"``, ``"fork"``, ``"spawn"``,
        ``"forkserver"``; see :func:`resolve_start_method`).

    Contexts are registered once per master (:meth:`register`), which
    publishes them into shared-memory blocks; the pool is created once on
    first dispatch, workers attach lazily, and per-batch messages carry
    only the manifest.  Any number of batches can then be dispatched with
    :meth:`run` or :meth:`run_async`.  Dispatch
    telemetry (work items, pickled payload bytes) accumulates in
    :meth:`dispatch_stats`; :meth:`worker_stats` probes the live pool for
    worker PIDs and per-worker attachment counts.  The serial backend has
    no executor (``FRWSolver.walk_executor`` returns ``None``).
    """

    def __init__(self, n_workers: int = 0, mp_start_method: str = "auto"):
        # Set first so __del__/close stay safe if validation below raises.
        self._closed = True
        self.n_workers = resolve_workers(n_workers)
        self.mp_start_method = mp_start_method
        # Resolve eagerly so a bad method/platform combination fails at
        # construction, not mid-extraction.
        self._start_method = resolve_start_method(mp_start_method)
        self._process_pool = None
        self._registry: dict[int, tuple[ExtractionContext, StreamSpec]] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._manifests: dict[int, "shm.ContextManifest"] = {}
        self._next_key = 0
        self._closed = False
        self.dispatches = 0
        self.dispatch_pickle_bytes = 0

    @property
    def backend(self) -> str:
        """Always ``"process"`` (the ``FRWConfig.executor`` it serves)."""
        return "process"

    # ------------------------------------------------------------------
    # Registration (context shipping)
    # ------------------------------------------------------------------
    def register(self, ctx: ExtractionContext, spec: StreamSpec) -> int:
        """Register a context + stream spec once; returns its dispatch key.

        This *publishes* the context into a shared-memory block
        immediately — the pool (if any) keeps running and workers attach
        on first dispatch.
        """
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is not None:
            return key
        key = self._next_key
        self._next_key += 1
        self._registry[key] = (ctx, spec)
        self._keys[ident] = key
        self._manifests[key] = shm.publish_context(ctx, spec)
        return key

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------
    def _processes(self):
        """The pool, created on first use and kept for the executor's
        lifetime: contexts live in published blocks, so registration
        never requires a restart."""
        if self._process_pool is None:
            mp_ctx = multiprocessing.get_context(self._start_method)
            self._process_pool = mp_ctx.Pool(processes=self.n_workers)
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
        serial engine no matter how its chunks were scheduled.  A
        one-worker pool (or a one-UID batch) runs in-process and *lazily*
        — the walks run on the first ``result()`` call, so handles that
        are dropped (speculative batches past a stopping rule) cost
        nothing.

        The batch splits into ``max_chunks`` even work items (default:
        one per worker).  The cross-master scheduler keeps batches whole
        when enough other masters' batches fill the pool — wide engine
        vectors beat fine chunking; chunking never changes results, only
        the schedule.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        ctx, spec = self._registry[key]
        if self.n_workers == 1 or n < 2:
            return PendingBatch(
                uids, thunk=lambda: run_walks(ctx, streams_from_spec(spec), uids)
            )
        bounds = _chunk_bounds(
            n, self.n_workers if max_chunks is None else max_chunks
        )
        chunks = [uids[a:b] for a, b in bounds]
        self.dispatches += len(chunks)
        pool = self._processes()
        manifest = self._manifests[key]
        payloads = [(manifest, c) for c in chunks]
        self.dispatch_pickle_bytes += sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads
        )
        asyncs = [pool.apply_async(_shm_chunk, p) for p in payloads]
        return PendingBatch(uids, waiters=[a.get for a in asyncs])

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry.

        ``pickle_bytes`` counts the pickled payload of every process-pool
        work item, so ``pickle_bytes_per_dispatch`` directly measures the
        steady-state per-dispatch payload — manifest-only, regardless of
        context size.
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
        shared context blocks that worker has attached.  Scheduling
        decides which workers answer, so this is telemetry — results never
        feed back into walk values.
        """
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
# In-process batch runners: the serial scheduler's one slot arena.
# ----------------------------------------------------------------------
def _batch_feed(batch_size: int):
    """UID feed for ``WalkPipeline``: every UID of each batch in turn."""

    def feed(batch_index: int) -> np.ndarray:
        base = batch_index * batch_size
        return np.arange(base, base + batch_size, dtype=np.uint64)

    return feed


class _ArenaRunner:
    """Batches of one or more masters through one shared slot arena.

    Wraps a :class:`WalkPipeline` whose lanes are masters, all with the
    same ``batch_size`` lane cap, lookahead and antithetic group.  The
    runner is built for its first master; :meth:`add_master` admits more.
    ``run_batch(u, master)`` steps the shared arena until that master's
    next batch is complete (other masters' walks advance and bank their
    results along the way) and returns it in UID order; ``close(master)``
    evicts a master whose stopping rule fired.
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        streams,
        batch_size: int,
        lookahead: int = 1,
        timers: StageTimers | None = None,
        group: int = 1,
    ):
        self.batch_size = int(batch_size)
        self._pipe = WalkPipeline(
            ctx,
            streams,
            _batch_feed(self.batch_size),
            width=self.batch_size,
            lookahead=lookahead,
            timers=timers,
            group=group,
        )
        self._lanes = {ctx.master: 0}

    def add_master(self, ctx: ExtractionContext, streams) -> None:
        """Admit another master's batch stream into the shared arena."""
        if ctx.master in self._lanes:
            raise ValueError(f"master {ctx.master} already runs in this arena")
        self._lanes[ctx.master] = self._pipe.add_lane(
            ctx, streams, _batch_feed(self.batch_size)
        )

    def run_batch(self, batch_index: int, master: int) -> WalkResults:
        """The master's next batch (batches come in order; ``batch_index``
        names it for the runner API)."""
        return self._pipe.next_batch(self._lanes[master])

    def close(self, master: int) -> None:
        """Evict one master's in-flight walks from the arena."""
        self._pipe.close_lane(self._lanes[master])


class SerialBatchRunner(_ArenaRunner):
    """One batch at a time per master (``pipeline_lookahead=0``).

    A persistent lookahead-0 arena: each master's batch drains completely
    before its next one feeds, so the schedule — and therefore every
    result bit — is identical to calling :func:`run_walks` per batch, but
    the slot arena and step scratch are allocated once and reused for the
    whole run.
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        streams,
        batch_size: int,
        timers: StageTimers | None = None,
        group: int = 1,
    ):
        super().__init__(ctx, streams, batch_size, 0, timers=timers, group=group)


class PipelinedBatchRunner(_ArenaRunner):
    """One refill pipeline spanning all batches of one or more masters
    (serial hardware)."""
