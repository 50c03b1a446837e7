"""Deterministic simulation of dynamically-scheduled worker threads.

Reproducibility in parallel FRW is a property of *which walk runs on which
thread and in which order partial sums merge* — not of the physical cores.
This module simulates that scheduling exactly: walks are dispatched from a
shared queue in UID order to whichever of the ``T`` virtual threads frees
first, with walk durations taken from the actual per-walk step counts times
a seeded "machine timing noise" factor.  Two runs with different thread
counts or different machine seeds produce different per-thread accumulation
orders — precisely the perturbation whose effect on the final digits the
Table II experiment measures — while the *walk samples themselves* are
untouched (they come from per-walk counter streams).

The same simulation doubles as the Fig. 5 performance model: per-thread
work totals give the modeled parallel runtime
``max_t(work_t) / throughput``, which exposes the load-balancing behaviour
of the dynamic queue versus static block assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass
class ScheduleResult:
    """Outcome of a simulated batch schedule."""

    #: Per-thread walk positions (indices into the batch) in fetch order.
    thread_order: list[np.ndarray]
    #: Per-thread total work (sum of jittered durations).
    thread_work: np.ndarray
    #: Per-thread finish time.
    thread_finish: np.ndarray

    @property
    def makespan(self) -> float:
        """Parallel completion time of the batch (max thread finish)."""
        return float(self.thread_finish.max()) if self.thread_finish.size else 0.0

    @property
    def total_work(self) -> float:
        """Serial work equivalent."""
        return float(self.thread_work.sum())

    @property
    def efficiency(self) -> float:
        """Load-balance efficiency: total work / (T * makespan)."""
        span = self.makespan
        if span == 0.0:
            return 1.0
        return self.total_work / (self.thread_work.shape[0] * span)


def jittered_durations(
    steps: np.ndarray, rng: np.random.Generator | None, jitter: float
) -> np.ndarray:
    """Walk durations: step counts scaled by multiplicative timing noise.

    The noise models OS scheduling/cache effects; it is drawn from ``rng``
    (the *machine* RNG) and never touches walk samples.
    """
    durations = np.asarray(steps, dtype=np.float64) + 1.0
    if rng is not None and jitter > 0.0:
        noise = 1.0 + jitter * rng.standard_normal(durations.shape[0])
        durations = durations * np.clip(noise, 0.05, None)
    return durations


def simulate_dynamic_queue(
    durations: np.ndarray, n_threads: int
) -> ScheduleResult:
    """Dynamic task-queue schedule: next walk goes to the first free thread.

    Deterministic given ``durations`` and ``n_threads`` (ties broken by
    thread index).  This is the load-balancing scheme of Sec. III-C.

    The loop runs once per walk on the result path, so it works on Python
    floats (``tolist`` is exact) instead of indexing NumPy scalars.  Heap
    entries ``(available, thread)`` are totally ordered — thread indices
    are distinct — so ``heapreplace`` pops exactly the entry a
    ``heappop``/``heappush`` pair would, and every sum is the same IEEE
    double addition: the result is byte-identical to the plain loop.
    """
    t_count = max(1, int(n_threads))
    orders: list[list[int]] = [[] for _ in range(t_count)]
    work = [0.0] * t_count
    # Sorted, hence already a valid heap.
    heap: list[tuple[float, int]] = [(0.0, t) for t in range(t_count)]
    replace = heapq.heapreplace
    durs = np.asarray(durations, dtype=np.float64).tolist()
    for walk, duration in enumerate(durs):
        available, thread = heap[0]
        orders[thread].append(walk)
        work[thread] += duration
        replace(heap, (available + duration, thread))
    finish = np.zeros(t_count, dtype=np.float64)
    for available, thread in heap:
        finish[thread] = available
    return ScheduleResult(
        thread_order=[np.array(o, dtype=np.int64) for o in orders],
        thread_work=np.array(work, dtype=np.float64),
        thread_finish=finish,
    )


def variance_weights(
    rel_errors: np.ndarray, tolerance: float, cap: float = 32.0
) -> np.ndarray:
    """Quota weights from per-master convergence deficits.

    A master's remaining walk demand scales like ``(rel_err / tol)^2``
    (Monte-Carlo half-widths shrink as ``1/sqrt(M)``), so the weight is
    that ratio squared, clamped to ``cap`` — masters with no estimate yet
    (``inf`` half-width) weigh exactly ``cap``, converged masters weigh 0.
    Deterministic: a pure function of the accumulated estimates.
    """
    rel = np.asarray(rel_errors, dtype=np.float64)
    ratio = np.where(np.isfinite(rel), rel / max(tolerance, 1e-300), cap)
    ratio = np.clip(ratio, 0.0, cap)
    weights = ratio * ratio
    weights[ratio <= 1.0] = 0.0
    return weights


def reweight_needed(
    weights: np.ndarray,
    previous: np.ndarray | None,
    threshold: float,
) -> bool:
    """Whether the quota split should be recomputed for ``weights``.

    Hysteresis for the variance policy: BENCH_extract.json showed the
    per-round feedback loop *thrashing* quotas on balanced master sets —
    half-width estimates wobble batch to batch, so quotas kept churning
    (and in-flight work kept being re-targeted) without converging any
    faster.  Quotas are now recomputed only when the *normalised* weight
    vector moves by more than ``threshold`` in L-inf — i.e. some master's
    share of the total demand changed by that fraction — which ignores the
    uniform decay of all weights as every master converges.  Deterministic:
    a pure function of the two weight vectors.

    ``previous is None`` (first round) or a shape change (live set changed)
    always reweights; ``threshold <= 0`` reweights every round.
    """
    if previous is None or previous.shape != weights.shape:
        return True
    if threshold <= 0.0:
        return True

    def _norm(w: np.ndarray) -> np.ndarray:
        s = float(w.sum())
        if s <= 0.0:
            return np.full(w.shape[0], 1.0 / max(w.shape[0], 1))
        return w / s

    return bool(
        np.abs(_norm(weights) - _norm(previous)).max() > threshold
    )


def backlog_weights(
    backlogs: np.ndarray, boost: np.ndarray | None = None
) -> np.ndarray:
    """Quota weights for cross-request class scheduling.

    The extraction service splits executor slots across priority classes
    (interactive, bulk) with the same largest-remainder quota machinery the
    cross-master scheduler uses for batches: weights are the queue
    backlogs, optionally scaled by a per-class ``boost`` (interactive gets
    a boost > 1 so a deep bulk queue cannot buy every slot).  Negative
    backlogs clamp to zero.  Deterministic: a pure function of the queue
    depths and the configured boosts.
    """
    weights = np.clip(np.asarray(backlogs, dtype=np.float64), 0.0, None)
    if boost is not None:
        weights = weights * np.asarray(boost, dtype=np.float64)
    return weights


def allocate_quota(
    weights: np.ndarray, total: int, min_share: int = 1
) -> np.ndarray:
    """Integer quota split of ``total`` proportional to ``weights``.

    Every entry receives at least ``min_share``; the remainder is split by
    the largest-remainder method with ties broken by index, so the
    allocation is deterministic.  All-zero weights fall back to an even
    split.  Used by the cross-master scheduler to decide how many
    speculative batches each master keeps in flight — never which walks a
    batch contains.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    min_share = max(0, int(min_share))
    quota = np.full(n, min_share, dtype=np.int64)
    spare = int(total) - min_share * n
    if spare <= 0:
        return quota
    wsum = float(weights.sum())
    if wsum <= 0.0:
        weights = np.ones(n, dtype=np.float64)
        wsum = float(n)
    shares = weights * (spare / wsum)
    floors = np.floor(shares).astype(np.int64)
    quota += floors
    leftover = spare - int(floors.sum())
    if leftover > 0:
        remainders = shares - floors
        # Largest remainder first; np.argsort is stable, so equal
        # remainders resolve by index.
        order = np.argsort(-remainders, kind="stable")
        quota[order[:leftover]] += 1
    return quota


def simulate_static_blocks(
    durations: np.ndarray, n_threads: int
) -> ScheduleResult:
    """Static contiguous-block assignment (ablation for load balancing).

    Thread ``t`` gets walks ``[t*B/T, (t+1)*B/T)``; with highly divergent
    walk lengths this leaves threads idle, which the dynamic queue avoids.
    """
    durations = np.asarray(durations, dtype=np.float64)
    n = durations.shape[0]
    t_count = max(1, int(n_threads))
    bounds = np.linspace(0, n, t_count + 1).astype(np.int64)
    orders = [np.arange(bounds[t], bounds[t + 1], dtype=np.int64) for t in range(t_count)]
    work = np.array([float(durations[o].sum()) for o in orders])
    return ScheduleResult(
        thread_order=orders, thread_work=work, thread_finish=work.copy()
    )
