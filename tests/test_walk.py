"""Tests for the scalar walk wrapper and path tracing."""

import numpy as np

from repro import FRWConfig
from repro.frw import (
    build_context,
    run_single_walk,
    run_walks,
    stream_spec,
    streams_from_spec,
    trace_walks,
)


def test_single_walk_matches_batch(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=55))
    streams = streams_from_spec(stream_spec(ctx.config, 0))
    batch = run_walks(ctx, streams, np.arange(10, dtype=np.uint64))
    for uid in range(10):
        omega, dest, steps = run_single_walk(ctx, uid)
        assert omega == batch.omega[uid]
        assert dest == batch.dest[uid]
        assert steps == batch.steps[uid]


def test_trace_walks_paths(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=55))
    traces = trace_walks(ctx, list(range(6)))
    assert len(traces) == 6
    for t in traces:
        assert t.positions.shape[1] == 3
        assert t.n_hops >= 1
        # Launch point lies on the Gaussian surface (delta from the master).
        start = tuple(t.positions[0])
        d0 = min(b.distance_linf(start) for b in plates.conductors[0].boxes)
        assert np.isclose(d0, ctx.surface.delta, atol=1e-9)
        # The end point is near the destination conductor (or the wall).
        end = tuple(t.positions[-1])
        if t.dest < len(plates.conductors):
            d_end = min(
                b.distance_linf(end) for b in plates.conductors[t.dest].boxes
            )
            assert d_end < ctx.absorb_tol * 3
        assert t.dest >= 0


def test_trace_matches_untraced_outcomes(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=55))
    streams = streams_from_spec(stream_spec(ctx.config, 0))
    ref = run_walks(ctx, streams, np.arange(4, dtype=np.uint64))
    traces = trace_walks(ctx, [0, 1, 2, 3])
    for i, t in enumerate(traces):
        assert t.omega == ref.omega[i]
        assert t.dest == ref.dest[i]
