"""Scalar reference walk and walk-path tracing (Fig. 2).

The scalar path simply runs the vectorised engine on a single-element batch
— by construction the engine's per-walk outcomes are independent of
batching, and the test suite asserts bitwise equality between scalar and
batched execution.  ``trace_walks`` records full step-by-step positions for
visualisation and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import ExtractionContext
from .engine import run_walks
from .parallel import stream_spec, streams_from_spec


@dataclass(frozen=True)
class WalkTrace:
    """One traced walk: its positions per step and outcome."""

    uid: int
    positions: np.ndarray  # (steps+1, 3)
    omega: float
    dest: int

    @property
    def n_hops(self) -> int:
        """Number of transitions taken."""
        return self.positions.shape[0] - 1


def run_single_walk(
    ctx: ExtractionContext, uid: int
) -> tuple[float, int, int]:
    """Execute one walk; returns ``(omega, destination, steps)``."""
    streams = streams_from_spec(stream_spec(ctx.config, ctx.master))
    res = run_walks(ctx, streams, np.array([uid], dtype=np.uint64))
    return float(res.omega[0]), int(res.dest[0]), int(res.steps[0])


def trace_walks(ctx: ExtractionContext, uids: list[int]) -> list[WalkTrace]:
    """Run a handful of walks recording every position (for Fig. 2)."""
    streams = streams_from_spec(stream_spec(ctx.config, ctx.master))
    uid_arr = np.array(uids, dtype=np.uint64)
    trace: list = []
    res = run_walks(ctx, streams, uid_arr, trace=trace)
    paths: dict[int, list[np.ndarray]] = {i: [] for i in range(len(uids))}
    for active, pos in trace:
        for row, walk in enumerate(active):
            paths[int(walk)].append(pos[row])
    return [
        WalkTrace(
            uid=int(uid_arr[i]),
            positions=np.array(paths[i]),
            omega=float(res.omega[i]),
            dest=int(res.dest[i]),
        )
        for i in range(len(uids))
    ]
