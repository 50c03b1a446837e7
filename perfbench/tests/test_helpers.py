"""Tests of the benchmark's own helpers, plus a smoke-sized run of each
workload.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import direct  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, self_time_by_name, self_times, union_length  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# -- the percentile rule ------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))  # p90 rank 90: 10 samples beyond
    assert common.tail_percentile(samples, 90) == 90
    with pytest.raises(ValueError, match="need at least 10"):
        common.tail_percentile(samples[:99], 90)  # 9 beyond


@pytest.mark.parametrize(
    "n, q, expected",
    [(200, 95, 189.0), (199, 95, None), (20, 50, 9.0), (19, 50, None)],
)
def test_tail_percentile_boundaries(n, q, expected):
    samples = [float(i) for i in range(n)]
    if expected is None:
        with pytest.raises(ValueError):
            common.tail_percentile(samples, q)
    else:
        assert common.tail_percentile(samples, q) == expected


def test_tail_percentile_is_order_free_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40  # 200 samples, 40 of each
    assert common.tail_percentile(samples, 50) == 3.0
    assert common.tail_percentile(samples, 95) == 5.0


# -- self time from nested spans -----------------------------------------

def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 1, "main")


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),  # overlaps span 2: union is [1, 6]
        _span(4, 2.0, 3.0, parent=2),  # grandchild: charged to span 2 only
        _span(5, 9.0, 12.0, parent=1),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_union_length():
    assert union_length([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert union_length([(-1, 1), (9, 11)], 0, 10) == pytest.approx(2.0)
    assert union_length([], 0, 10) == 0.0


def test_tracer_nesting_self_times_sum_to_root():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(20000))
        with tracer.span("c", new_trace=True):
            sum(range(20000))
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["b"].parent == by_name["a"].sid
    assert by_name["a"].parent == by_name["root"].sid
    assert by_name["b"].trace_id == by_name["root"].trace_id
    assert by_name["c"].parent == by_name["root"].sid
    assert by_name["c"].trace_id != by_name["root"].trace_id
    own = self_time_by_name(tracer.spans)
    assert sum(own.values()) == pytest.approx(by_name["root"].duration, rel=1e-9)
    assert all(v >= 0.0 for v in own.values())


def test_tracer_wrap_and_restore():
    class Box:
        @staticmethod
        def f(x):
            return 2 * x

    tracer = Tracer()
    original = Box.f
    tracer.patch(Box, "f", tracer.wrap(original, "box.f"))
    assert Box.f(3) == 6
    tracer.restore()
    assert Box.f is original
    assert [s.name for s in tracer.spans] == ["box.f"]


def test_coverage_counts_layer_spans_only():
    spans = [
        Span(1, "oneshot", 0.0, 10.0, None, 1, "main"),
        Span(2, "alg2.absorb", 1.0, 3.0, 1, 1, "main"),
        Span(3, "solver.extract", 3.0, 9.0, 1, 3, "main"),
        Span(4, "parallel.wait", 4.0, 8.0, 3, 3, "main"),
    ]
    assert layers.coverage(spans, [spans[0]]) == pytest.approx(0.6)


# -- correctness checks ---------------------------------------------------

def test_z_bound_uses_combined_sigma():
    ref = {"diag": [1.0, 2.0], "sigma": [0.03, 0.04]}
    ok = {"diag": [1.2, 2.0], "sigma": [0.03, 0.03]}  # z = 0.2 / 0.0424 = 4.7
    assert direct.z_failures(ok, ref) == []
    bad = {"diag": [1.0, 2.3], "sigma": [0.03, 0.03]}  # z = 0.3 / 0.05 = 6
    (msg,) = direct.z_failures(bad, ref)
    assert msg.startswith("C[1,1]")


def test_committed_reference_covers_each_direct_workload():
    ref = direct.load_reference()
    assert sorted(ref) == sorted(direct.WORKLOADS)
    for entry in ref.values():
        assert len(entry["diag"]) == len(entry["sigma"]) > 0
        assert all(s > 0 for s in entry["sigma"])
        assert entry["command"]


# -- metric names ---------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "engine.rng_s", "a-b.c_9", "9x"])
def test_metric_name_accepts(name):
    assert common.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "-lead", ".lead", "x/y", "é", "x" * 65])
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        common.check_metric_name(name)


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        common.check_metric_name(m["name"])


def test_result_line_shape():
    line = common.result_line(True, 3, 0, {"setup_s": (0.5, "s")})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
    }
    with pytest.raises(ValueError):
        common.result_line(True, 1, 0, {"bad name": (1.0, "s")})


# -- smoke-sized runs -----------------------------------------------------

#: Per-layer metrics that must read non-zero on each workload's traced
#: run: the layer runs there, so a zero means its wrapper did not fire.
RUNS_ON = {
    "bus5_default": [
        "engine.rng_s", "engine.dispatches", "alg2.absorb_s", "scheduler.replay_s",
        "estimator.merge_s", "parallel.wait_s", "parallel.dispatches",
        "reliability.regularize_s", "reliability.check_s",
    ],
    "vco_process2": [
        "shm.publish_s", "shm.attaches", "parallel.dispatches",
        "parallel.pickle_bytes_per_dispatch", "alg2.absorb_s",
        "reliability.regularize_s", "geometry.far_field_rate",
    ],
    "service_mixed": [
        "engine.rng_s", "service.parse_ms", "service.canonical_ms",
        "service.submit_warm_ms", "service.solve_ms", "service.result_hit_rate",
        "service.full_hit_share", "service.asset_builds",
    ],
}
COMMON_LAYERS = [
    "geometry.index_build_s", "geometry.surface_build_s", "greens.table_build_s",
    "engine.steps", "estimator.walks", "estimator.batches",
    "cross_master.useful_batch_ratio", "trace.coverage",
]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for name in RUNS_ON[workload] + COMMON_LAYERS:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # the service's tail and warm latencies are printed by name
    if workload == "service_mixed":
        for name in ("cold_p90_ms", "warm_p50_ms", "warm_p95_ms"):
            assert name in proc.stdout
