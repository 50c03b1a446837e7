"""Extraction-service load benchmark — emits BENCH_service.json.

Boots a real :class:`repro.service.ExtractionService` HTTP server on an
ephemeral port and drives it with the seeded synthetic traffic generator
(:class:`repro.service.TrafficGenerator`) at a controlled duplicate rate.
Three sections are recorded per run:

* ``load`` — the mixed interactive/bulk stream: per-request latency split
  cold (first sight of a net) vs warm (memoized duplicate), p50/p99 per
  class, requests/sec, and the server-side cache counters.  The headline
  number is ``warm_speedup_p50`` — how much faster a duplicate is than a
  cold solve; determinism makes the cache permanently valid, so this is
  pure memoization win, not staleness risk.
* ``hit_rate`` — the measured result-cache hit rate against the
  configured duplicate rate (they must track each other; the duplicates
  are translated + permuted + renamed, so hits happen only through
  canonicalization).
* ``fairness`` — interactive p99 alone vs interactive p99 while a bulk
  backlog is draining through the same slots.  The quota scheduler
  reserves a slot for interactive whenever its queue is non-empty, so the
  ratio stays bounded; a ``::warning::`` annotation (not a failure) is
  emitted when it exceeds 1.2x, since single-core CI runners make any
  latency ratio noisy.

The output file is a *trajectory*: every invocation appends a timestamped
entry (git revision, host info, ``host_cpus``) to the ``runs`` list.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [-o BENCH_service.json]
        [--requests 60] [--duplicate-rate 0.5] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from datetime import datetime, timezone

from repro.service import (
    ServiceClient,
    ServiceSettings,
    TrafficGenerator,
    run_server,
)

SEED = 17
DUPLICATE_RATE = 0.5
INTERACTIVE_FRACTION = 0.75
N_REQUESTS = 60
MAX_WALKS = 768
BATCH = 256


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _latency_summary(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
        "mean_ms": round(statistics.fmean(samples) * 1e3, 3),
    }


def start_server(settings: ServiceSettings):
    """Run the service in a daemon thread; returns (client, stop)."""
    ready = threading.Event()
    bound = {}

    def _ready(port: int) -> None:
        bound["port"] = port
        ready.set()

    thread = threading.Thread(
        target=run_server, args=(settings,), kwargs={"ready": _ready},
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=60):
        raise RuntimeError("service did not come up within 60s")
    client = ServiceClient(port=bound["port"], timeout=600.0)

    def stop() -> None:
        client.shutdown()
        thread.join(timeout=120)

    return client, stop


def run_load(client: ServiceClient, args) -> tuple[dict, dict]:
    """The mixed traffic phase: cold/warm latency split + throughput."""
    generator = TrafficGenerator(
        seed=SEED,
        duplicate_rate=args.duplicate_rate,
        interactive_fraction=INTERACTIVE_FRACTION,
        max_walks=args.max_walks,
        batch_size=BATCH,
    )
    cold: dict[str, list[float]] = {"interactive": [], "bulk": []}
    warm: dict[str, list[float]] = {"interactive": [], "bulk": []}
    t_start = time.perf_counter()
    for payload, meta in generator.requests(args.requests):
        t0 = time.perf_counter()
        response = client.extract(
            payload["structure"],
            payload["config"],
            priority=payload["priority"],
        )
        elapsed = time.perf_counter() - t0
        bucket = warm if response["cached"] else cold
        bucket[payload["priority"]].append(elapsed)
    wall = time.perf_counter() - t_start

    cold_all = cold["interactive"] + cold["bulk"]
    warm_all = warm["interactive"] + warm["bulk"]
    stats = client.stats()
    entry = {
        "requests": args.requests,
        "duplicate_rate": args.duplicate_rate,
        "wall_seconds": round(wall, 3),
        "requests_per_sec": round(args.requests / wall, 2),
        "cold": _latency_summary(cold_all),
        "warm": _latency_summary(warm_all),
        "by_class": {
            "interactive": _latency_summary(
                cold["interactive"] + warm["interactive"]
            ),
            "bulk": _latency_summary(cold["bulk"] + warm["bulk"]),
        },
        "server": {
            "full_hits": stats["full_hits"],
            "solves": stats["solves"],
            "result_cache": stats["result_cache"],
            "asset_cache": stats["asset_cache"],
            "asset_inner": stats["asset_inner"],
        },
    }
    if warm_all and cold_all:
        entry["warm_speedup_p50"] = round(
            _percentile(cold_all, 0.5) / _percentile(warm_all, 0.5), 2
        )
    print(
        f"load: {args.requests} requests in {wall:.2f}s "
        f"({entry['requests_per_sec']} rps), cold p50 "
        f"{entry['cold'].get('p50_ms', '-')} ms, warm p50 "
        f"{entry['warm'].get('p50_ms', '-')} ms, warm speedup "
        f"{entry.get('warm_speedup_p50', 'n/a')}x"
    )
    if entry.get("warm_speedup_p50", 0) < 5.0:
        print(
            "::warning::warm-cache p50 speedup "
            f"{entry.get('warm_speedup_p50')}x is below the 5x floor"
        )

    served = stats["full_hits"] + stats["solves"]
    measured_hit_rate = round(stats["full_hits"] / served, 3) if served else 0.0
    hit_entry = {
        "configured_duplicate_rate": args.duplicate_rate,
        "measured_full_hit_rate": measured_hit_rate,
        "warm_responses": len(warm_all),
        "cold_responses": len(cold_all),
    }
    print(
        f"hit rate: measured {measured_hit_rate} vs configured duplicate "
        f"rate {args.duplicate_rate}"
    )
    if abs(measured_hit_rate - args.duplicate_rate) > 0.15:
        print(
            "::warning::measured hit rate deviates from the configured "
            f"duplicate rate by more than 0.15 "
            f"({measured_hit_rate} vs {args.duplicate_rate})"
        )
    return entry, hit_entry


def run_fairness(client: ServiceClient, args) -> dict:
    """Interactive p99 alone vs under a draining bulk backlog.

    The interactive probes are repeats of one already-memoized net, so
    each probe measures scheduling + cache latency, not solver time —
    exactly the interactive experience the quota scheduler protects.
    """
    probe_gen = TrafficGenerator(
        seed=SEED + 1, duplicate_rate=0.0, max_walks=args.max_walks,
        batch_size=BATCH,
    )
    probe, _meta = probe_gen.request()
    client.extract(probe["structure"], probe["config"])  # memoize the probe

    def probe_once() -> float:
        t0 = time.perf_counter()
        client.extract(
            probe["structure"], probe["config"], priority="interactive"
        )
        return time.perf_counter() - t0

    n_probes = max(10, args.requests // 3)
    alone = [probe_once() for _ in range(n_probes)]

    # Flood the bulk queue with fresh (cold) nets, then probe while the
    # backlog drains through the same slots.
    bulk_gen = TrafficGenerator(
        seed=SEED + 2, duplicate_rate=0.0, max_walks=args.max_walks,
        batch_size=BATCH,
    )
    pending = []
    bulk_times: list[float] = []

    def bulk_job(payload: dict) -> None:
        t0 = time.perf_counter()
        client.extract(
            payload["structure"], payload["config"], priority="bulk"
        )
        bulk_times.append(time.perf_counter() - t0)

    for payload, _meta in bulk_gen.requests(max(4, args.requests // 8)):
        pending.append(
            threading.Thread(target=bulk_job, args=(payload,), daemon=True)
        )
    for thread in pending:
        thread.start()
    under_load = [probe_once() for _ in range(n_probes)]
    for thread in pending:
        thread.join(timeout=600)

    p99_alone = _percentile(alone, 0.99)
    p99_loaded = _percentile(under_load, 0.99)
    bulk_p50 = _percentile(bulk_times, 0.5) if bulk_times else None
    ratio = round(p99_loaded / p99_alone, 2) if p99_alone > 0 else None
    entry = {
        "probes": n_probes,
        "interactive_p99_alone_ms": round(p99_alone * 1e3, 3),
        "interactive_p99_under_bulk_ms": round(p99_loaded * 1e3, 3),
        "p99_ratio": ratio,
        "bulk_service_p50_ms": (
            round(bulk_p50 * 1e3, 3) if bulk_p50 is not None else None
        ),
        # Non-starvation headroom: how far interactive p99 under load stays
        # *below* a single bulk service time.  Without the interactive-slot
        # reservation a probe would queue behind the whole bulk backlog and
        # this would exceed the backlog depth, not sit well under 1.
        "starvation_headroom": (
            round(p99_loaded / bulk_p50, 3) if bulk_p50 else None
        ),
    }
    print(
        f"fairness: interactive p99 {entry['interactive_p99_alone_ms']} ms "
        f"alone vs {entry['interactive_p99_under_bulk_ms']} ms under bulk "
        f"({ratio}x); one bulk job p50 {entry['bulk_service_p50_ms']} ms"
    )
    if ratio is not None and ratio > 1.2:
        print(
            f"::warning::interactive p99 degraded {ratio}x under bulk load "
            "(above the 1.2x target: on a single-CPU host the solver thread "
            "contends for the interpreter with the front door; the "
            "non-starvation guarantee is the starvation_headroom field, "
            f"{entry['starvation_headroom']} of one bulk service time)"
        )
    return entry


def _host_cpus() -> int:
    """CPUs this process may run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux host
        return os.cpu_count() or 1


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except OSError:  # pragma: no cover - no git on host
        return "unknown"


def _load_trajectory(path: str) -> dict:
    header = {
        "benchmark": "service_memoized_extraction",
        "runs": [],
    }
    if not os.path.exists(path):
        return header
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return header
    if "runs" in payload:
        payload.setdefault("benchmark", "service_memoized_extraction")
        return payload
    return header


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_service.json")
    parser.add_argument("--requests", type=int, default=N_REQUESTS)
    parser.add_argument("--duplicate-rate", type=float, default=DUPLICATE_RATE)
    parser.add_argument("--max-walks", type=int, default=MAX_WALKS)
    parser.add_argument("--slots", type=int, default=1)
    parser.add_argument(
        "--executor", default="serial", choices=["serial", "process"]
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI (fewer requests, fewer walks)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.requests = min(args.requests, 24)
        args.max_walks = min(args.max_walks, 384)

    settings = ServiceSettings(
        port=0,
        slots=args.slots,
        executor=args.executor,
        n_workers=args.workers,
    )
    client, stop = start_server(settings)
    try:
        load, hit_rate = run_load(client, args)
        fairness = run_fairness(client, args)
    finally:
        stop()

    trajectory = _load_trajectory(args.output)
    entry = {
        # det: allow(DET002) intentional wall-clock: benchmark trajectory
        # entries are timestamped metadata, never an input to computation.
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "host": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "host_cpus": _host_cpus(),
        "settings": {
            "slots": args.slots,
            "executor": args.executor,
            "n_workers": args.workers,
            "max_walks": args.max_walks,
        },
        "load": load,
        "hit_rate": hit_rate,
        "fairness": fairness,
    }
    trajectory["runs"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"appended run {len(trajectory['runs'])} to {args.output}")


if __name__ == "__main__":
    main()
