"""Layer attribution for the traced runs.

:func:`install` wraps the public functions at each ``repro`` layer
boundary with tracer spans and feeds the walk engine's own
:class:`~repro.frw.engine.StageTimers` through its public ``timers=``
parameters.  :func:`solver_metrics` turns the spans and stage timers of a
traced run into the per-layer metrics of the solver's layers; the
workloads add the executor, service and coverage figures.

Span name -> layer (module) it times:

=========================  ==============================================
``geometry.index_build``   ``repro.geometry.build_index``
``geometry.surface_build`` ``repro.geometry.build_gaussian_surface``
``greens.table_build``     ``repro.greens.get_cube_table``
``shm.publish``            ``repro.frw.shm.publish_context``
``cross_master.schedule``  ``repro.frw.cross_master.extract_rows_interleaved``
``alg2.absorb``            ``RowProgress.absorb``
``scheduler.replay``       ``repro.frw.scheduler.simulate_dynamic_queue``
``estimator.merge``        ``RowAccumulator.add_walks_ordered/merge/...``
``parallel.wait``          ``PendingBatch.result`` (parent blocked on walks)
``engine.run``             serial batch runners' ``run_batch``
``reliability.regularize`` ``repro.reliability.regularize``
``reliability.check``      ``repro.reliability.check_properties``
``service.submit``         ``ExtractionService.submit``
``service.parse``          ``repro.geometry.structure_from_dict``
``service.canonical``      ``canonicalize``/``geometry_digest``/``canonical_hash``
=========================  ==============================================

``solver.extract`` (``FRWSolver.extract``) and the workload's own root
span are not layers: their self time is the glue no layer claims, and it
is what keeps ``trace.coverage`` below one.
"""

from __future__ import annotations

import threading

from tracing import Tracer, self_time_by_name, self_times

#: Span names whose self time counts as attributed to a layer.
LAYER_SPANS = (
    "geometry.index_build",
    "geometry.surface_build",
    "greens.table_build",
    "shm.publish",
    "cross_master.schedule",
    "alg2.absorb",
    "scheduler.replay",
    "estimator.merge",
    "parallel.wait",
    "engine.run",
    "reliability.regularize",
    "reliability.check",
    "service.submit",
    "service.parse",
    "service.canonical",
)

ENGINE_STAGES = ("rng", "index_fast", "index", "sample", "retire", "bookkeeping")

#: Every per-layer metric, with its unit.  A workload whose run does not
#: exercise a layer (or whose layer cannot report, such as engine stages
#: inside process workers) reads 0 for it; README.md lists which.
PER_LAYER = {
    "geometry.index_build_s": "s",
    "geometry.surface_build_s": "s",
    "geometry.far_field_rate": "ratio",
    "greens.table_build_s": "s",
    **{f"engine.{stage}_s": "s" for stage in ENGINE_STAGES},
    "engine.steps": "count",
    "engine.dispatches": "count",
    "engine.steps_per_s": "1/s",
    "alg2.absorb_s": "s",
    "scheduler.replay_s": "s",
    "estimator.merge_s": "s",
    "estimator.walks": "count",
    "estimator.batches": "count",
    "parallel.wait_s": "s",
    "parallel.dispatches": "count",
    "parallel.pickle_bytes_per_dispatch": "B",
    "shm.publish_s": "s",
    "shm.attaches": "count",
    "cross_master.useful_batch_ratio": "ratio",
    "reliability.regularize_s": "s",
    "reliability.check_s": "s",
    "service.parse_ms": "ms",
    "service.canonical_ms": "ms",
    "service.submit_warm_ms": "ms",
    "service.http_ms": "ms",
    "service.solve_ms": "ms",
    "service.queue_ms": "ms",
    "service.result_hit_rate": "ratio",
    "service.full_hit_share": "ratio",
    "service.asset_builds": "count",
    "service.asset_evictions": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class StageSink:
    """Collects the engine's StageTimers from every runner and pool thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._timers = []

    def new(self):
        from repro.frw.engine import StageTimers

        timers = StageTimers()
        with self._lock:
            self._timers.append(timers)
        return timers

    def total(self):
        """All collected timers merged into one ``StageTimers``."""
        from repro.frw.engine import StageTimers

        total = StageTimers()
        with self._lock:
            for timers in self._timers:
                total.merge(timers)
        return total


def install(tracer: Tracer, sink: StageSink) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.frw import (
        alg2_reproducible,
        cross_master,
        engine,
        estimator,
        parallel,
        scheduler,
        shm,
        solver,
    )
    from repro.geometry import build_gaussian_surface, build_index, structure_from_dict
    from repro.greens import get_cube_table
    from repro.reliability import check_properties, regularize
    from repro.service import canonical, server

    tracer.trace_function(build_index, "geometry.index_build")
    tracer.trace_function(build_gaussian_surface, "geometry.surface_build")
    tracer.trace_function(get_cube_table, "greens.table_build")
    tracer.trace_function(shm.publish_context, "shm.publish")
    tracer.trace_function(
        cross_master.extract_rows_interleaved, "cross_master.schedule"
    )
    tracer.trace_method(alg2_reproducible.RowProgress, "absorb", "alg2.absorb")
    tracer.trace_function(scheduler.simulate_dynamic_queue, "scheduler.replay")
    for method in ("add_walks_ordered", "merge", "add_batch", "add_group_batch"):
        tracer.trace_method(estimator.RowAccumulator, method, "estimator.merge")
    tracer.trace_method(parallel.PendingBatch, "result", "parallel.wait")
    tracer.trace_function(regularize, "reliability.regularize")
    tracer.trace_function(check_properties, "reliability.check")
    tracer.trace_method(
        solver.FRWSolver,
        "extract",
        "solver.extract",
        new_trace=True,
        on_result=_mark_solve,
    )

    tracer.trace_method(
        server.ExtractionService,
        "submit",
        "service.submit",
        new_trace=True,
        on_result=_mark_hit,
    )
    tracer.trace_function(structure_from_dict, "service.parse")
    for fn in (canonical.canonicalize, canonical.geometry_digest, canonical.canonical_hash):
        tracer.trace_function(fn, "service.canonical")

    # Engine stages.  The interleaved scheduler builds its serial runners
    # and dispatches pool work itself, so the StageTimers go in where the
    # runners are constructed and where pool threads call ``run_walks``.
    for name in ("PipelinedBatchRunner", "SerialBatchRunner"):
        cls = getattr(parallel, name)
        tracer.trace_method(cls, "run_batch", "engine.run")
        tracer.patch(cross_master, name, _timed_runner(cls, tracer, sink))
    tracer.patch_everywhere(
        engine.run_walks, _timed_run_walks(engine.run_walks, tracer, sink)
    )


def _mark_solve(span, result) -> None:
    sched = result.matrix.meta["schedule"]
    query = sched.get("query_stats") or {}
    span.attrs.update(
        walks=result.total_walks,
        steps=result.total_steps,
        batches=sum(s.batches for s in result.stats),
        dispatched=sched["dispatched_batches"],
        discarded=sched["discarded_batches"],
        points=query.get("points", 0),
        far_field_hits=query.get("far_field_hits", 0),
    )


def _mark_hit(span, future) -> None:
    span.attrs["hit"] = bool(future.done() and future.result()["cached"])


def _timed_runner(cls, tracer: Tracer, sink: StageSink):
    def make(*args, **kwargs):
        if tracer.active() and kwargs.get("timers") is None:
            kwargs["timers"] = sink.new()
        return cls(*args, **kwargs)

    return make


def _timed_run_walks(run_walks, tracer: Tracer, sink: StageSink):
    def timed(ctx, streams, uids, trace=None, timers=None, prefetch=None):
        if timers is None and tracer.active():
            timers = sink.new()
        return run_walks(ctx, streams, uids, trace, timers, prefetch)

    return timed


def coverage(spans, roots) -> float:
    """Layer self time inside ``roots`` divided by the roots' duration."""
    own = self_times(spans)
    root_ids = {r.sid for r in roots}
    by_id = {s.sid: s for s in spans}

    def under_root(s) -> bool:
        seen = s
        while seen is not None:
            if seen.sid in root_ids:
                return True
            seen = by_id.get(seen.parent) if seen.parent is not None else None
        return False

    covered = sum(
        own[s.sid] for s in spans if s.name in LAYER_SPANS and under_root(s)
    )
    wall = sum(r.duration for r in roots)
    return covered / wall if wall > 0 else 0.0


def solver_metrics(spans, sink: StageSink) -> dict:
    """Per-layer metrics of every ``FRWSolver.extract`` traced in ``spans``.

    The executor-side figures (``parallel.dispatches``, pickle bytes,
    ``shm.attaches``) and the service ones are left at 0 for the caller.
    """
    own = self_time_by_name(spans)
    solves = [s for s in spans if s.name == "solver.extract"]

    def total(attr: str) -> int:
        return sum(s.attrs[attr] for s in solves)

    stages = sink.total()
    points, dispatched = total("points"), total("dispatched")
    out = {name: 0.0 for name in PER_LAYER}
    out.update(
        {
            "geometry.index_build_s": own.get("geometry.index_build", 0.0),
            "geometry.surface_build_s": own.get("geometry.surface_build", 0.0),
            "geometry.far_field_rate": (
                total("far_field_hits") / points if points else 0.0
            ),
            "greens.table_build_s": own.get("greens.table_build", 0.0),
            **{f"engine.{stage}_s": getattr(stages, stage) for stage in ENGINE_STAGES},
            "engine.dispatches": sum(stages.counts.values()),
            "engine.steps": total("steps"),
            "engine.steps_per_s": total("steps") / sum(s.duration for s in solves),
            "alg2.absorb_s": own.get("alg2.absorb", 0.0),
            "scheduler.replay_s": own.get("scheduler.replay", 0.0),
            "estimator.merge_s": own.get("estimator.merge", 0.0),
            "estimator.walks": total("walks"),
            "estimator.batches": total("batches"),
            "parallel.wait_s": own.get("parallel.wait", 0.0),
            "shm.publish_s": own.get("shm.publish", 0.0),
            "cross_master.useful_batch_ratio": (
                (dispatched - total("discarded")) / dispatched if dispatched else 0.0
            ),
            "reliability.regularize_s": own.get("reliability.regularize", 0.0),
            "reliability.check_s": own.get("reliability.check", 0.0),
        }
    )
    return out
