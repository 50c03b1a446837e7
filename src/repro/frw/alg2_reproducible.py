"""Alg. 2 — the parallel FRW scheme with DOP-independent reproducibility.

Walks are issued in globally numbered batches of ``B``; each walk's random
stream is a pure function of its ID (fine-grained reseeding, realised here
with counter-based streams so reseeding is free); batches are dynamically
scheduled over ``T`` threads with per-thread accumulators merged at a global
checkpoint where the stopping criterion is evaluated.  Because the *set* of
executed walks at every checkpoint is `{0 .. uB-1}` regardless of ``T``, the
result differs across DOPs only through floating-point summation order —
which Kahan accumulation compresses to the last one or two digits.

The vectorised engine computes all walk outcomes of a batch at once (this
is exact: outcomes are schedule-independent by construction), then the
virtual-thread simulation replays the dynamic-queue accumulation order so
the floating-point behaviour matches a real ``T``-thread execution,
including merge order and machine timing noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import FRWConfig
from ..rng import (
    MirroredDraws,
    MTWalkStreams,
    WalkStreams,
    seeded_generator,
    splitmix64,
)
from .context import ExtractionContext, build_context
from .estimator import CapacitanceRow, RowAccumulator
from .parallel import PersistentExecutor, make_batch_runner
from .scheduler import jittered_durations, simulate_dynamic_queue


@dataclass
class RunStats:
    """Bookkeeping of one row extraction (for Table III / Fig. 5)."""

    walks: int = 0
    batches: int = 0
    total_steps: int = 0
    truncated: int = 0
    wall_time: float = 0.0
    converged: bool = False
    #: Accumulated per-thread work (jittered step counts) across batches.
    thread_work: np.ndarray = field(default_factory=lambda: np.zeros(1))
    #: Accumulated batch makespans (modeled parallel time units).
    makespan: float = 0.0
    #: Cross-master schedule telemetry: batches submitted to the executor
    #: for this master (``>= batches`` when speculation ran ahead).
    dispatched_batches: int = 0
    #: Speculative batches dispatched but never accumulated (discarded when
    #: the stopping rule fired; their walk samples are simply unused).
    discarded_batches: int = 0
    #: Allocation rounds this master participated in (interleaved mode).
    allocation_rounds: int = 0

    @property
    def parallel_efficiency(self) -> float:
        """Load-balance efficiency of the simulated schedule."""
        if self.makespan == 0.0:
            return 1.0
        return float(self.thread_work.sum()) / (
            self.thread_work.shape[0] * self.makespan
        )

    @property
    def speculation_ratio(self) -> float:
        """Fraction of dispatched batches that were discarded."""
        if self.dispatched_batches == 0:
            return 0.0
        return self.discarded_batches / self.dispatched_batches


def make_streams(config: FRWConfig, master: int):
    """Per-walk stream provider for the configured RNG kind.

    Each master conductor gets an independent stream family (domain
    separation), so multi-level parallelism cannot collide streams.
    """
    if config.rng == "mt":
        return MTWalkStreams(config.seed, stream=master)
    streams = WalkStreams(config.seed, stream=master)
    if config.antithetic:
        # Antithetic partners re-read their primary's counter words
        # through a mirroring view; config validation guarantees philox.
        streams = MirroredDraws(
            streams, config.antithetic_group, config.antithetic_depth
        )
    return streams


def machine_rng(config: FRWConfig, master: int) -> np.random.Generator:
    """The simulated machine's timing-noise RNG (never affects samples)."""
    return seeded_generator(
        splitmix64(config.machine_seed * 0x10001 + master + 1)
    )


class RowProgress:
    """Streaming accumulate-and-checkpoint state of one row extraction.

    This is the *only* implementation of the per-batch accumulation and
    the Alg. 2 global checkpoint: both :func:`extract_row_alg2` and the
    cross-master interleaved scheduler feed batch results through it, so
    a master's row is bit-identical under any batch execution schedule by
    construction — provided batches are absorbed in batch-index order
    (the machine RNG and the virtual-thread replay consume them in that
    order).
    """

    def __init__(self, ctx: ExtractionContext, config: FRWConfig | None = None):
        cfg = config if config is not None else ctx.config
        self.ctx = ctx
        self.cfg = cfg
        self.acc = RowAccumulator(
            ctx.n_conductors,
            ctx.master,
            summation=cfg.summation,
            group_size=cfg.antithetic_group if cfg.antithetic else 1,
        )
        self.rng_machine = machine_rng(cfg, ctx.master)
        self.stats = RunStats(thread_work=np.zeros(cfg.n_threads))
        self.done = False
        self._t_start = time.perf_counter()

    @property
    def self_relative_error(self) -> float:
        """Current relative half-width of the diagonal entry."""
        return self.acc.self_relative_error

    def absorb(self, results) -> bool:
        """Accumulate one batch (in batch order) and run the checkpoint.

        Returns ``True`` when the stopping rule fired (converged or walk
        cap reached); further batches for this master must be discarded.
        """
        cfg = self.cfg
        acc = self.acc
        stats = self.stats
        durations = jittered_durations(
            results.steps, self.rng_machine, cfg.scheduler_jitter
        )
        schedule = simulate_dynamic_queue(durations, cfg.n_threads)
        if cfg.antithetic:
            # Group-mean accumulation needs whole UID-aligned groups, so
            # it always consumes the batch in UID order regardless of
            # deterministic_merge (the virtual-thread replay would split
            # groups across simulated threads); the schedule still feeds
            # the Fig. 5 load-balance model.  Batches are whole multiples
            # of the group (batch_size % antithetic_group == 0, enforced
            # at config validation), so groups never straddle a batch.
            acc.add_group_batch(results.omega, results.dest, results.steps)
        elif cfg.deterministic_merge:
            # Extension: accumulate in walk-ID order for guaranteed
            # bitwise reproducibility; the schedule still feeds the
            # Fig. 5 model.
            acc.add_batch(results.omega, results.dest, results.steps)
        else:
            for thread_order in schedule.thread_order:
                local = acc.spawn()
                local.add_walks_ordered(
                    results.omega[thread_order],
                    results.dest[thread_order],
                    results.steps[thread_order],
                )
                acc.merge(local)
        stats.thread_work += schedule.thread_work
        stats.makespan += schedule.makespan
        stats.truncated += results.truncated
        stats.batches += 1

        # The global checkpoint (Alg. 2 line 11).
        walks = acc.walks
        if walks >= cfg.min_walks and acc.self_relative_error < cfg.tolerance:
            stats.converged = True
            self.done = True
        elif walks >= cfg.max_walks:
            self.done = True
        return self.done

    def finalize(self) -> tuple[CapacitanceRow, RunStats]:
        """Freeze the totals and return ``(row, stats)``."""
        self.stats.walks = self.acc.walks
        self.stats.total_steps = self.acc.total_steps
        self.stats.wall_time = time.perf_counter() - self._t_start
        return self.acc.row(), self.stats


def extract_row_alg2(
    ctx: ExtractionContext,
    config: FRWConfig | None = None,
    executor: PersistentExecutor | None = None,
    timers=None,
) -> tuple[CapacitanceRow, RunStats]:
    """Extract one capacitance-matrix row with the reproducible scheme.

    Walk batches are produced by a batch runner selected from the config's
    ``executor`` / ``pipeline`` knobs (serial engine, cross-batch pipeline,
    or the persistent process pool).  Every runner
    yields per-batch results in UID order, so the accumulated row is
    bit-identical across all of them — the scheduling knobs trade wall time
    only.  Pass ``executor`` (e.g. from :class:`~repro.frw.solver.FRWSolver`)
    to reuse one pool across masters; otherwise a pool is created and closed
    here when the config calls for one.  ``timers`` (an optional
    :class:`~repro.frw.engine.StageTimers`) collects the engine's per-stage
    breakdown where the runner supports it (see
    :func:`~repro.frw.parallel.make_batch_runner`).
    """
    cfg = config if config is not None else ctx.config
    progress = RowProgress(ctx, cfg)
    runner, owned = make_batch_runner(ctx, cfg, executor, timers=timers)

    try:
        batch_index = 0
        while True:
            results = runner.run_batch(batch_index)
            progress.stats.dispatched_batches += 1
            batch_index += 1
            if progress.absorb(results):
                break
    finally:
        runner.close()
        if owned is not None:
            owned.close()

    # Pipelined process dispatch may leave speculative batches in flight
    # when the stopping rule fires; the runner counts them at close().
    # They were dispatched work the row never consumed — account them so
    # the speculation telemetry matches the cross-master scheduler's.
    discarded = int(getattr(runner, "speculative_discarded", 0))
    if discarded:
        progress.stats.dispatched_batches += discarded
        progress.stats.discarded_batches += discarded

    return progress.finalize()


def extract_row_alg2_from_structure(
    structure, master: int, config: FRWConfig
) -> tuple[CapacitanceRow, RunStats]:
    """Convenience wrapper that builds the context first."""
    return extract_row_alg2(build_context(structure, master, config))
