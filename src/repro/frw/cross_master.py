"""Cross-master interleaved extraction scheduler: the one Alg. 2 driver
(Sec. IV multi-level parallelism, realised over the real executors).

Every reproducible extraction — one master or many, serial or process,
``FRWSolver.extract_row``, ``FRWSolver.extract`` and
``multilevel_extract`` — runs through :func:`extract_rows_interleaved`.
Running masters one after another would leave master ``i``'s convergence
tail (a last ragged batch draining on one worker) idling the rest of the
pool while master ``i+1`` has not started, so all masters' batch streams
are interleaved instead:

* every master keeps its own UID stream, batch order, accumulator, machine
  RNG, and Alg. 2 global checkpoints — exactly the per-master state of
  :func:`~repro.frw.alg2_reproducible.extract_row_alg2`, shared through
  :class:`~repro.frw.alg2_reproducible.RowProgress`;
* on the process backend, batches from different masters are dispatched
  concurrently over the one
  :class:`~repro.frw.parallel.PersistentExecutor` — whole (full engine
  vector width) while enough masters fill the pool, chunked and
  reassembled in UID order when live masters run short of workers.  The
  in-flight quota, ``max(live masters, 2 * workers)`` batches, is split
  evenly over the unconverged masters, so the pool only goes idle when
  every unconverged master's next batch is in flight;
* on the serial path (no pool) there is **one engine for all masters**:
  every admitted master is a lane of a single slot arena
  (:class:`~repro.frw.parallel.PipelinedBatchRunner`, or
  :class:`~repro.frw.parallel.SerialBatchRunner` with
  ``pipeline_lookahead=0``, grown with ``add_master``).  Harvesting master
  ``m``'s next batch steps the shared arena until that batch is complete,
  so every vector step advances all live masters' walks and its fixed
  dispatch cost is paid once, not once per master; a master whose
  stopping rule fires has its in-flight walks evicted from the arena.

Reproducibility: a master's row is a pure function of its accumulated
batch prefix (results are schedule-independent, accumulation happens in
batch order through ``RowProgress``), and the quota only decides *which*
speculative batches are in flight — never their contents.  Every row is
therefore bit-identical to the per-master reference
:func:`~repro.frw.alg2_reproducible.extract_row_alg2`, at any backend or
worker count.

At most ``max(8, 2 * workers)`` masters are live at once; a later master
is admitted when an earlier one converges, so its context is built — and,
on the process backend, published to the shared-memory plane — only when
it starts.  Publishing never restarts the pool, so admission never waits
for in-flight batches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..config import FRWConfig
from .alg2_reproducible import RowProgress, RunStats
from .context import ExtractionContext
from .engine import StageTimers
from .estimator import CapacitanceRow
from .parallel import (
    PendingBatch,
    PersistentExecutor,
    PipelinedBatchRunner,
    SerialBatchRunner,
    stream_spec,
    streams_from_spec,
)
from .scheduler import allocate_quota


class _MasterRun:
    """In-flight extraction state of one master under the scheduler."""

    __slots__ = (
        "master",
        "ctx",
        "cfg",
        "progress",
        "key",
        "runner",
        "executor",
        "inflight",
        "next_dispatch",
        "next_accum",
        "done",
        "row",
        "stats",
    )

    def __init__(
        self,
        master: int,
        ctx: ExtractionContext,
        cfg: FRWConfig,
        executor: PersistentExecutor | None,
        runner=None,
    ):
        self.master = master
        self.ctx = ctx
        self.cfg = cfg
        self.progress = RowProgress(ctx, cfg)
        self.executor = executor
        self.inflight: dict[int, PendingBatch] = {}
        self.next_dispatch = 0
        self.next_accum = 0
        self.done = False
        self.row: CapacitanceRow | None = None
        self.stats: RunStats | None = None
        if executor is not None:
            self.key = executor.register(ctx, stream_spec(cfg, master))
        else:
            # Serial path: this master is a lane of the shared arena
            # runner; dispatch is lazy (PendingBatch thunks), so
            # speculative batches past the stopping rule are never
            # harvested.
            self.key = None
        self.runner = runner

    def dispatch_next(self, max_chunks: int | None = None) -> None:
        """Put this master's next batch in flight (UIDs are fixed by the
        batch index, so dispatch order across masters is irrelevant).

        ``max_chunks`` caps intra-batch splitting: with many masters in
        flight the pool is already full of whole batches, and full-width
        engine vectors beat fine chunking (chunking never changes the
        row — only the schedule)."""
        u = self.next_dispatch
        base = u * self.cfg.batch_size
        uids = np.arange(base, base + self.cfg.batch_size, dtype=np.uint64)
        if self.executor is not None:
            handle = self.executor.run_async(self.key, uids, max_chunks)
        else:
            runner, master = self.runner, self.master
            handle = PendingBatch(
                uids, thunk=lambda: runner.run_batch(u, master)
            )
        self.inflight[u] = handle
        self.next_dispatch = u + 1
        self.progress.stats.dispatched_batches += 1

    def harvest_next(self) -> bool:
        """Absorb the next in-order batch; returns ``True`` when the
        stopping rule fired (remaining in-flight batches are discarded)."""
        handle = self.inflight.pop(self.next_accum)
        self.next_accum += 1
        if self.progress.absorb(handle.result()):
            self.done = True
            self.progress.stats.discarded_batches += len(self.inflight)
            self.inflight.clear()
            if self.runner is not None:
                # Evict this master's in-flight lanes from the arena.
                self.runner.close(self.master)
                self.runner = None
            self.row, self.stats = self.progress.finalize()
        return self.done


def extract_rows_interleaved(
    masters: list[int],
    config: FRWConfig,
    context_for: Callable[[int], ExtractionContext],
    executor: PersistentExecutor | None = None,
    thread_overrides: dict[int, int] | None = None,
    timers: StageTimers | None = None,
) -> tuple[list[CapacitanceRow], list[RunStats]]:
    """Extract the masters' rows (one or more) as one interleaved batch
    stream.

    ``context_for`` supplies (and may cache) per-master contexts —
    typically ``FRWSolver.context``.  ``thread_overrides`` maps a master
    to the virtual-thread DOP its accumulation replays at (multi-level
    group plans); walk samples are DOP-independent, so overrides move
    only the last floating-point bits, exactly as in the serial path.
    ``timers`` (optional) collects the serial arena's per-stage engine
    breakdown and vector-step count; pool workers cannot report stages.

    Returns ``(rows, stats)`` aligned with ``masters``; every row is
    bit-identical to ``extract_row_alg2`` run per master with the same
    per-master config.
    """
    workers = executor.n_workers if executor is not None else 1
    wave = max(8, 2 * workers)
    overrides = thread_overrides or {}

    def master_config(master: int) -> FRWConfig:
        t = overrides.get(master)
        if t is None or t == config.n_threads:
            return config
        return config.with_(n_threads=max(1, t))

    pending = deque(masters)
    active: list[_MasterRun] = []
    # Serial path: one slot arena for every live master (built for the
    # first admitted master; later ones join it as lanes).
    arena = None

    def admit(m: int) -> _MasterRun:
        nonlocal arena
        ctx, cfg = context_for(m), master_config(m)
        if executor is not None:
            return _MasterRun(m, ctx, cfg, executor)
        streams = streams_from_spec(stream_spec(cfg, m))
        if arena is not None:
            arena.add_master(ctx, streams)
        else:
            group = cfg.antithetic_group if cfg.antithetic else 1
            if cfg.pipeline_lookahead == 0:
                arena = SerialBatchRunner(
                    ctx, streams, cfg.batch_size, timers=timers, group=group
                )
            else:
                arena = PipelinedBatchRunner(
                    ctx,
                    streams,
                    cfg.batch_size,
                    cfg.pipeline_lookahead,
                    timers=timers,
                    group=group,
                )
        return _MasterRun(m, ctx, cfg, None, arena)

    def activate_wave() -> None:
        live = sum(1 for st in active if not st.done)
        take = min(wave - live, len(pending))
        for _ in range(take):
            active.append(admit(pending.popleft()))

    activate_wave()
    while True:
        live = [st for st in active if not st.done]
        if not live:
            if not pending:
                break
            activate_wave()
            live = [st for st in active if not st.done]

        # Allocation round: decide each live master's in-flight quota.
        if executor is None:
            # Serial dispatch is lazy — speculation is free but useless,
            # so one (never-computed-until-harvest) batch per master.
            quotas = np.ones(len(live), dtype=np.int64)
        else:
            # Enough batches to keep every worker busy, split evenly.
            quotas = allocate_quota(
                np.ones(len(live)), max(len(live), 2 * workers), min_share=1
            )
        # Cross-master concurrency already fills the pool, so a batch
        # only splits when live masters are fewer than workers.
        max_chunks = -(-workers // len(live))
        for st, quota in zip(live, quotas):
            st.progress.stats.allocation_rounds += 1
            while len(st.inflight) < quota:
                st.dispatch_next(max_chunks)

        # Harvest round: every live master absorbs its next in-order
        # batch and runs its own global checkpoint.
        finished_any = False
        for st in live:
            if st.harvest_next():
                finished_any = True
        if finished_any and pending:
            activate_wave()

    by_master = {st.master: st for st in active}
    rows = [by_master[m].row for m in masters]
    stats = [by_master[m].stats for m in masters]
    return rows, stats
