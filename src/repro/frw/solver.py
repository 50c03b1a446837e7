"""FRWSolver — the user-facing facade over all solver variants.

Typical use::

    from repro import FRWSolver, FRWConfig, Structure

    solver = FRWSolver(structure, FRWConfig.frw_rr(seed=7, n_threads=16,
                                                   tolerance=1e-2))
    result = solver.extract()          # all conductors as masters
    print(result.matrix.pretty())
    print(result.report)               # property metrics

Variant dispatch (Sec. V):

========  =========================================  ====================
variant   scheme                                     post-process
========  =========================================  ====================
alg1      Alg. 1 baseline [1]                        none
frw-nk    Alg. 2, naive summation                    none
frw-nc    Alg. 2, Kahan, MT per-walk reseeding       none
frw-r     Alg. 2, Kahan, CBRNG                       none
frw-rr    Alg. 2, Kahan, CBRNG                       Alg. 3 regularization
========  =========================================  ====================

Multi-master extractions run through the cross-master interleaved
scheduler by default (``config.interleave_masters``): batches from all
masters share the one executor, and per-master rows stay bit-identical
to the serial per-master loop (see :mod:`repro.frw.cross_master`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis.capmatrix import CapacitanceMatrix
from ..config import FRWConfig
from ..errors import ConfigError
from ..geometry import Structure
from ..lint.sanitizer import maybe_forbid_global_rng
from ..reliability import PropertyReport, check_properties, regularize
from .alg1_baseline import extract_row_alg1
from .alg2_reproducible import RunStats, extract_row_alg2
from .context import ExtractionContext, SharedAssets, build_context
from .cross_master import extract_rows_interleaved, resolve_wave
from .estimator import CapacitanceRow
from .parallel import PersistentExecutor, resolve_workers, stream_spec


@dataclass
class ExtractionResult:
    """Full multi-master extraction output."""

    matrix: CapacitanceMatrix
    raw_matrix: CapacitanceMatrix
    rows: list[CapacitanceRow]
    stats: list[RunStats]
    config: FRWConfig
    wall_time: float
    regularization_time: float = 0.0
    report: PropertyReport | None = field(default=None)

    @property
    def total_walks(self) -> int:
        """Walks across all masters."""
        return sum(s.walks for s in self.stats)

    @property
    def total_steps(self) -> int:
        """Walk steps across all masters."""
        return sum(s.total_steps for s in self.stats)

    @property
    def converged(self) -> bool:
        """Whether every master met the stopping criterion."""
        return all(s.converged for s in self.stats)

    def modeled_runtime(self, n_threads: int | None = None) -> float:
        """Parallel runtime model for Fig. 5 (seconds).

        ``max_t(work_t)`` summed over masters, scaled by the measured
        single-thread step throughput of this run.  The schedule work
        counters are collected at the configured DOP; passing
        ``n_threads`` asserts that every master's counters were collected
        at exactly that DOP (a mismatch raises ``ValueError`` instead of
        silently modeling the wrong machine).
        """
        if n_threads is not None:
            collected = sorted(
                {int(s.thread_work.shape[0]) for s in self.stats}
            )
            if collected != [int(n_threads)]:
                raise ValueError(
                    f"modeled_runtime(n_threads={n_threads}) but the "
                    f"schedule was collected at DOP(s) {collected}"
                )
        total_span = math.fsum(float(s.thread_work.max()) for s in self.stats)
        total_work = math.fsum(float(s.thread_work.sum()) for s in self.stats)
        if total_work == 0.0:
            return 0.0
        seconds_per_unit = self.wall_time / total_work
        return total_span * seconds_per_unit


def assemble_result(
    structure: Structure,
    config: FRWConfig,
    masters: list[int],
    rows: list[CapacitanceRow],
    stats: list[RunStats],
    wall_time: float,
    extra_meta: dict | None = None,
) -> ExtractionResult:
    """Matrix assembly + regularization epilogue shared by every
    extraction entry point (``FRWSolver.extract``, ``multilevel_extract``),
    so result metadata cannot drift between them."""
    meta = {
        "variant": config.variant,
        "seed": config.seed,
        "n_threads": config.n_threads,
        "tolerance": config.tolerance,
    }
    if extra_meta:
        meta.update(extra_meta)
    raw = CapacitanceMatrix(
        values=np.stack([r.values for r in rows]),
        masters=list(masters),
        names=structure.names,
        sigma2=np.stack([r.sigma2 for r in rows]),
        hits=np.stack([r.hits for r in rows]),
        meta=meta,
    )
    reg_time = 0.0
    if config.uses_regularization:
        t1 = time.perf_counter()
        matrix = regularize(raw)
        reg_time = time.perf_counter() - t1
    else:
        matrix = raw
    return ExtractionResult(
        matrix=matrix,
        raw_matrix=raw,
        rows=rows,
        stats=stats,
        config=config,
        wall_time=wall_time,
        regularization_time=reg_time,
        report=check_properties(matrix),
    )


class FRWSolver:
    """Parallel FRW capacitance extractor for a :class:`Structure`.

    The solver owns the real-concurrency resources: extraction contexts are
    cached per master (sharing the master-independent assets — spatial
    index, cube table — through one :class:`SharedAssets` cache) and, when
    the config selects the ``process`` executor with more than one worker,
    one :class:`~repro.frw.parallel.PersistentExecutor` is created lazily
    and reused across batches *and* masters.  Call
    :meth:`close` (or use the solver as a context manager) to release the
    pools; results are bit-identical across executor backends, so this only
    affects wall time.
    """

    def __init__(
        self,
        structure: Structure,
        config: FRWConfig | None = None,
        *,
        assets: SharedAssets | None = None,
        executor: PersistentExecutor | None = None,
    ):
        """``assets`` and ``executor`` (optional) inject *borrowed*
        resources owned by a longer-lived host — the memoizing extraction
        service shares one ``SharedAssets`` per canonical geometry and one
        executor fleet across all requests.  A borrowed executor must match
        the config's backend; it is never closed by this solver (only
        owned pools are released by :meth:`close`).
        """
        self.structure = structure
        self.config = config if config is not None else FRWConfig()
        if assets is not None and assets.structure is not structure:
            raise ConfigError(
                "injected SharedAssets was built for a different structure"
            )
        self.assets = assets if assets is not None else SharedAssets(structure)
        self._contexts: dict[int, ExtractionContext] = {}
        self._executor: PersistentExecutor | None = None
        self._owns_executor = executor is None
        if executor is not None:
            if executor.backend != self.config.executor:
                raise ConfigError(
                    f"injected executor backend {executor.backend!r} does "
                    f"not match config.executor {self.config.executor!r}"
                )
            self._executor = executor

    def context(self, master: int) -> ExtractionContext:
        """Cached extraction context for one master conductor."""
        ctx = self._contexts.get(master)
        if ctx is None:
            ctx = build_context(
                self.structure, master, self.config, assets=self.assets
            )
            self._contexts[master] = ctx
        return ctx

    def walk_executor(self) -> PersistentExecutor | None:
        """The solver-owned persistent pool, or ``None`` for serial runs.

        Created on first use; ``None`` whenever the config resolves to
        serial execution (``executor="serial"`` or a single worker), in
        which case the batch runners fall back to the in-process engine.
        """
        cfg = self.config
        if cfg.executor == "serial" or resolve_workers(cfg.n_workers) <= 1:
            return None
        if self._executor is None:
            self._executor = PersistentExecutor(
                cfg.executor,
                cfg.n_workers,
                cfg.chunk_size,
                mp_start_method=cfg.mp_start_method,
                shared_context=cfg.shared_context,
            )
        return self._executor

    def close(self) -> None:
        """Release owned executor pools (idempotent; solver stays usable).

        Borrowed executors (injected at construction) are left running —
        their owner decides their lifetime.
        """
        if self._executor is not None:
            if self._owns_executor:
                self._executor.close()
            self._executor = None
            self._owns_executor = True

    def __enter__(self) -> "FRWSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def extract_row(self, master: int) -> tuple[CapacitanceRow, RunStats]:
        """Extract a single row of the capacitance matrix.

        With ``config.sanitize`` set, the runtime RNG sanitizer is armed
        for the duration of the call: any global-RNG use anywhere in the
        process raises :class:`~repro.errors.DeterminismError`.
        """
        with maybe_forbid_global_rng(self.config.sanitize):
            ctx = self.context(master)
            if self.config.variant == "alg1":
                return extract_row_alg1(ctx, self.config)
            return extract_row_alg2(
                ctx, self.config, executor=self.walk_executor()
            )

    def _extract_serial_masters(
        self,
        masters: list[int],
        executor: PersistentExecutor | None,
        thread_overrides: dict[int, int] | None,
    ) -> tuple[list[CapacitanceRow], list[RunStats]]:
        """The historical master-after-master loop (alg1, opted-out
        interleaving).  Contexts for the process backend are registered
        lazily in waves, so a small master subset of a large structure
        builds and ships only its own contexts."""
        overrides = thread_overrides or {}
        wave = resolve_wave(
            self.config.register_wave,
            executor.n_workers if executor is not None else 1,
        )
        rows: list[CapacitanceRow] = []
        stats: list[RunStats] = []
        for start in range(0, len(masters), wave):
            chunk = masters[start : start + wave]
            if executor is not None and executor.backend == "process":
                # One registration burst per wave.  On the shared-memory
                # plane this publishes the wave's blocks up front (workers
                # attach lazily; the pool keeps running); on the legacy
                # fork-inheritance path the pool restarts once per wave,
                # shipping the whole wave's contexts together.
                for master in chunk:
                    executor.register(
                        self.context(master), stream_spec(self.config, master)
                    )
            for master in chunk:
                cfg = self.config
                t = overrides.get(master)
                if t is not None and t != cfg.n_threads:
                    cfg = cfg.with_(n_threads=max(1, t))
                ctx = self.context(master)
                if cfg.variant == "alg1":
                    row, stat = extract_row_alg1(ctx, cfg)
                else:
                    row, stat = extract_row_alg2(ctx, cfg, executor=executor)
                rows.append(row)
                stats.append(stat)
        return rows, stats

    def extract(
        self,
        masters: list[int] | None = None,
        *,
        thread_overrides: dict[int, int] | None = None,
        extra_meta: dict | None = None,
    ) -> ExtractionResult:
        """Extract rows for the given masters (default: all conductors).

        Multi-master calls run through the cross-master interleaved
        scheduler when ``config.interleave_masters`` is set (batches from
        all masters share the executor; rows are bit-identical to the
        serial per-master loop).  ``thread_overrides`` maps a master to
        the virtual-thread DOP its accumulation replays at (used by
        :func:`~repro.frw.multilevel.multilevel_extract` group plans).

        For ``frw-rr``, masters must be ``0..Nm-1`` (the regularization
        couples rows through the symmetry constraint).
        """
        if masters is None:
            masters = list(range(len(self.structure.conductors)))
        if not masters:
            raise ConfigError("need at least one master conductor")
        executor = self.walk_executor()
        interleaved = (
            self.config.interleave_masters
            and len(masters) > 1
            and self.config.variant != "alg1"
        )
        t0 = time.perf_counter()
        with maybe_forbid_global_rng(self.config.sanitize):
            if interleaved:
                rows, stats = extract_rows_interleaved(
                    masters,
                    self.config,
                    self.context,
                    executor=executor,
                    thread_overrides=thread_overrides,
                )
            else:
                rows, stats = self._extract_serial_masters(
                    masters, executor, thread_overrides
                )
        wall = time.perf_counter() - t0

        meta = {
            "schedule": {
                "interleaved": interleaved,
                "allocation": self.config.allocation,
                "antithetic": (
                    {
                        "group": self.config.antithetic_group,
                        "depth": self.config.antithetic_depth,
                    }
                    if self.config.antithetic
                    else None
                ),
                "asset_cache": self.assets.stats(),
                "query_stats": self.assets.query_stats(),
                "dispatched_batches": sum(s.dispatched_batches for s in stats),
                "discarded_batches": sum(s.discarded_batches for s in stats),
            }
        }
        if extra_meta:
            meta.update(extra_meta)
        return assemble_result(
            self.structure, self.config, masters, rows, stats, wall, meta
        )


def extract(
    structure: Structure,
    config: FRWConfig | None = None,
    masters: list[int] | None = None,
) -> ExtractionResult:
    """One-call extraction convenience function.

    Owns the solver lifecycle: executor pools and shared-memory context
    blocks are released deterministically before returning, so repeated
    one-shot extractions never leak workers, semaphores, or ``/dev/shm``
    segments.
    """
    with FRWSolver(structure, config) as solver:
        return solver.extract(masters)
