"""End-to-end, layer-attributed benchmark of the FRW-RR solver.

One command per workload; prints a human-readable table of every metric
with its unit, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` they are the per-layer ones from a
traced run, plus ``trace.coverage`` and ``trace.overhead_frac``.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bus5_default --seed 1 --seconds 38 --trace 0

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    OUT,
    SRC,
    ProgramMissing,
    become_subreaper,
    host_record,
    reap_orphans,
    require_program,
    result_line,
    tail_percentile,
)

WORKLOADS = ("bus5_default", "vco_process2", "service_mixed")

#: End-to-end metrics every workload reports (``BENCHMARK.json``).
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "cold_p50_ms": "ms",
}

#: Service tail/warm latencies: printed with their sample counts, and
#: only when the percentile rule admits them (common.tail_percentile).
SERVICE_LATENCIES = (
    ("cold_p90_ms", "cold", 90.0),
    ("warm_p50_ms", "warm", 50.0),
    ("warm_p95_ms", "warm", 95.0),
)


def log(msg: str) -> None:
    print(msg, flush=True)


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    if name == "service_mixed":
        import served

        return served.run(seed, seconds, trace, smoke, log)
    import direct

    return direct.run(name, seed, seconds, trace, smoke, log)


def report(name: str, summary: dict, trace: bool) -> dict[str, tuple[float, str]]:
    """Print the workload's table; return its result metrics."""
    log(f"== {name}: attempted {summary['attempted']}, failed {summary['failed']}")
    for err in summary["errors"][:20]:
        log(f"   FAILED: {err}")
    if "end_to_end" not in summary:
        return {}
    log(f"   end-to-end (median of {summary['samples']} repeats unless stated):")
    for metric, unit in END_TO_END.items():
        log(f"   {metric:<28} {summary['end_to_end'][metric]:>14.6g} {unit}")
    for metric, kind, q in SERVICE_LATENCIES if "latency" in summary else ():
        samples = [1e3 * v for v in summary["latency"][kind]]
        try:
            value = f"{tail_percentile(samples, q):>14.6g} ms"
        except ValueError as exc:
            value = f"{'n/a':>14} ({exc})"
        log(f"   {metric:<28} {value}   [{len(samples)} {kind} samples]")
    if trace:
        import layers

        if "per_layer" not in summary:
            return {}
        log("   per-layer (traced run):")
        for metric, unit in layers.PER_LAYER.items():
            log(f"   {metric:<36} {summary['per_layer'][metric]:>14.6g} {unit}")
        return {
            metric: (summary["per_layer"][metric], unit)
            for metric, unit in layers.PER_LAYER.items()
        }
    return {metric: (summary["end_to_end"][metric], unit) for metric, unit in END_TO_END.items()}


def write_spans(name: str, seed: int, summary: dict) -> None:
    """Write the traced run's spans (kept in memory until now)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.json"
    with open(path, "w") as fh:
        json.dump(summary.get("spans", []), fh)
    log(f"   spans written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs, for the helper tests"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        require_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every process a run starts, and every helper those leave behind,
    # is adopted here and waited for before the benchmark exits.
    become_subreaper()
    try:
        return _run(args)
    finally:
        reap_orphans()


def _run(args) -> int:
    log(f"host: {json.dumps(host_record(), sort_keys=True)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        log(f"== {name}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        attempted += summary["attempted"]
        failed += summary["failed"]
        got = report(name, summary, bool(args.trace))
        if not got:
            print(f"perfbench: {name} completed no operation", file=sys.stderr)
            return 1
        if args.trace:
            write_spans(name, args.seed, summary)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(result_line(failed == 0, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
