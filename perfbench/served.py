"""The ``service_mixed`` workload: the memoized extraction service over HTTP.

Each round launches a fresh ``python3 -m repro serve --port 0
--port-file ...`` subprocess at default settings (one slot, serial
engine), waits for ``/health``, then drives the round's requests with two
closed-loop :class:`~repro.service.ServiceClient` threads.  Requests come
from :class:`~repro.service.TrafficGenerator` (duplicate rate 0.7,
default interactive/bulk mix), seeded by the run's ``--seed``; every round
sends the same requests, so every round must return the same bytes.

A duplicate is sent only after the cold response of the net it repeats
has arrived (a client re-asking for a net it already got back), so every
duplicate must be a full cache hit and every unique net a miss.

The traced run hosts the server in the benchmark process instead, so the
tracer can wrap the service's public functions.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import OUT, ROOT, child_env, median, reap_orphans, tree_peak_rss_mb

DUPLICATE_RATE = 0.7
CLIENTS = 2
#: Unique nets and duplicates per round (duplicate share 0.7).  Fixing the
#: counts keeps the round's solve work from varying with the binomial
#: draw of how many requests happen to be unique.
UNIQUES, DUPLICATES = 90, 210
SMOKE_UNIQUES, SMOKE_DUPLICATES = 4, 8
REQUEST_TIMEOUT_S = 30.0
#: Requests not sent this long after a round started count as failed, so
#: a hung server cannot hold the run past its time limit.
ROUND_DEADLINE_S = 90.0
SERVER_START_TIMEOUT_S = 30.0


@dataclass
class Reply:
    index: int
    latency: float
    status: int | None
    body: bytes = b""
    error: str = ""


@dataclass
class Round:
    replies: list[Reply]
    wall_s: float
    setup_s: float = 0.0
    rss_mb: float = 0.0
    stats: dict = field(default_factory=dict)


def make_requests(seed: int, uniques: int, duplicates: int) -> list[tuple[dict, dict]]:
    """The round's requests: the generator's stream, keeping its first
    ``uniques`` unique nets and the first ``duplicates`` duplicates of
    those nets, in stream order."""
    from repro.service import TrafficGenerator

    gen = TrafficGenerator(seed=seed, duplicate_rate=DUPLICATE_RATE)
    out = []
    kept_u = kept_d = 0
    while kept_u < uniques or kept_d < duplicates:
        payload, meta = gen.request()
        if not meta["duplicate"] and kept_u < uniques:
            kept_u += 1
        elif meta["duplicate"] and meta["unique_index"] < uniques and kept_d < duplicates:
            kept_d += 1
        else:
            continue
        out.append((payload, meta))
    return out


def drive(port: int, requests) -> tuple[list[Reply], float]:
    """Send ``requests`` with :data:`CLIENTS` closed-loop client threads."""
    from repro.service import ServiceClient

    lock = threading.Lock()
    cursor = [0]
    answered = {
        meta["unique_index"]: threading.Event()
        for _payload, meta in requests
        if not meta["duplicate"]
    }
    replies: list[Reply | None] = [None] * len(requests)

    deadline = time.monotonic() + ROUND_DEADLINE_S

    def client_loop() -> None:
        client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests) or time.monotonic() > deadline:
                return
            payload, meta = requests[i]
            if meta["duplicate"]:
                answered[meta["unique_index"]].wait(REQUEST_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                status, body = client.extract_raw(
                    payload["structure"], payload["config"], None, payload["priority"]
                )
                reply = Reply(i, time.perf_counter() - t0, status, body)
            except OSError as exc:
                reply = Reply(i, time.perf_counter() - t0, None, error=repr(exc))
            replies[i] = reply
            if not meta["duplicate"]:
                answered[meta["unique_index"]].set()

    threads = [
        threading.Thread(target=client_loop, name=f"client-{k}") for k in range(CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return [r if r is not None else Reply(i, 0.0, None, error="not sent") for i, r in enumerate(replies)], wall


# ----------------------------------------------------------------------
# server lifecycles
# ----------------------------------------------------------------------

def subprocess_round(requests) -> Round:
    """One round against a fresh ``repro serve`` subprocess."""
    from repro.service import ServiceClient

    OUT.mkdir(exist_ok=True)
    port_file = OUT / f"port-{os.getpid()}"
    port_file.unlink(missing_ok=True)
    log_path = OUT / f"server-{os.getpid()}.log"
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--port-file", str(port_file)]
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
    try:
        port = _wait_healthy(proc, port_file)
        setup = time.monotonic() - t0
        replies, wall = drive(port, requests)
        client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S)
        stats = client.stats()
        rss = tree_peak_rss_mb(proc.pid)
        client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reap_orphans()
        port_file.unlink(missing_ok=True)
    return Round(replies, wall, setup, rss, stats)


def _wait_healthy(proc, port_file) -> int:
    from repro.service import ServiceClient, ServiceError

    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        try:
            text = port_file.read_text()
        except FileNotFoundError:
            text = ""
        if text.endswith("\n"):
            client = ServiceClient(port=int(text), timeout=5.0)
            try:
                client.health()
                return int(text)
            except (OSError, ServiceError):
                pass
        time.sleep(0.002)
    raise RuntimeError("server did not answer /health in time")


def in_process_round(requests) -> Round:
    """One round against a server hosted in this process (traced runs)."""
    from repro.service import ServiceClient, ServiceServer, ServiceSettings

    server = ServiceServer(ServiceSettings(port=0))
    ready = threading.Event()
    port_box = []

    def on_ready(port: int) -> None:
        port_box.append(port)
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(ready=on_ready)), name="server-loop"
    )
    thread.start()
    try:
        if not ready.wait(SERVER_START_TIMEOUT_S):
            raise RuntimeError("in-process server did not start")
        replies, wall = drive(port_box[0], requests)
        stats = server.service.stats()
    finally:
        if port_box:
            ServiceClient(port=port_box[0], timeout=REQUEST_TIMEOUT_S).shutdown()
        thread.join(60)
    return Round(replies, wall, stats=stats)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _conductor_keys(structure: dict) -> list[tuple]:
    """Translation-free identity of each conductor: its boxes relative to
    the enclosure corner (coordinates are dyadic, so this is exact)."""
    lo = structure["enclosure"][:3]
    return [
        tuple(
            sorted(
                tuple(b[k] - lo[k % 3] for k in range(6)) for b in cond["boxes"]
            )
        )
        for cond in structure["conductors"]
    ]


def _relabeled_equal(dup_payload, dup_body, base_payload, base_body) -> bool:
    """Duplicate rows, mapped back to the original net's conductor order,
    equal the original's rows exactly."""
    base_keys = _conductor_keys(base_payload["structure"])
    dup_keys = _conductor_keys(dup_payload["structure"])
    if sorted(base_keys) != sorted(dup_keys):
        return False
    perm = [base_keys.index(k) for k in dup_keys]  # dup index -> base index
    n = len(perm)
    base_rows = {row["master"]: row for row in base_body["rows"]}
    for row in dup_body["rows"]:
        ref = base_rows[perm[row["master"]]]
        for key in ("values", "sigma2", "hits"):
            got, want = row[key], ref[key]
            if len(got) != len(want) or got[n:] != want[n:]:
                return False
            if any(got[j] != want[perm[j]] for j in range(n)):
                return False
        if row["walks"] != ref["walks"]:
            return False
    return True


def check_round(requests, rnd: Round, first: Round | None) -> dict[int, str]:
    """Request index -> why it failed, for every failed request of a round."""
    failures: dict[int, str] = {}
    cold: dict[int, tuple[dict, dict]] = {}
    for reply in rnd.replies:
        payload, meta = requests[reply.index]
        if reply.status != 200:
            failures[reply.index] = (
                f"status {reply.status} {reply.error or reply.body[:200]!r}"
            )
            continue
        body = json.loads(reply.body)
        problem = ""
        if body["cached"] != meta["duplicate"]:
            problem = f"cached={body['cached']} but duplicate={meta['duplicate']}"
        elif meta["duplicate"]:
            base = cold.get(meta["unique_index"])
            if base is None:
                problem = "duplicate of a net that failed"
            elif body["canonical_hash"] != base[1]["canonical_hash"]:
                problem = "canonical_hash differs from its cold response"
            elif not _relabeled_equal(payload, body, base[0], base[1]):
                problem = "rows differ from its cold response after relabeling"
        else:
            cold[meta["unique_index"]] = (payload, body)
        if not problem and first is not None and reply.body != first.replies[reply.index].body:
            problem = "response bytes differ from the run's first round"
        if problem:
            failures[reply.index] = problem
    return failures


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

def _latencies(requests, rounds) -> tuple[list[float], list[float]]:
    cold, warm = [], []
    for rnd in rounds:
        for reply in rnd.replies:
            if reply.status == 200:
                (warm if requests[reply.index][1]["duplicate"] else cold).append(
                    reply.latency
                )
    return cold, warm


def run(seed: int, seconds: float, trace: bool, smoke: bool, log) -> dict:
    start = time.monotonic()
    requests = make_requests(
        seed, *((SMOKE_UNIQUES, SMOKE_DUPLICATES) if smoke else (UNIQUES, DUPLICATES))
    )
    attempted = failed = 0
    errors: list[str] = []
    plain: list[Round] = []
    traced: list[tuple[Round, object, object]] = []
    round_walls: list[float] = []
    min_plain = 1 if trace else 3
    while True:
        enough = len(plain) >= min_plain and (not trace or traced)
        out_of_time = round_walls and time.monotonic() - start + max(round_walls) > seconds
        if out_of_time and (enough or failed):
            break
        want_trace = trace and len(plain) >= min_plain and len(traced) < len(plain)
        t0 = time.monotonic()
        try:
            if want_trace:
                rnd, tracer, sink = _traced_round(requests)
            else:
                rnd = subprocess_round(requests)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            round_walls.append(time.monotonic() - t0)
            attempted += 1
            failed += 1
            errors.append(f"round failed: {exc!r}")
            log(f"  round FAILED: {exc!r}")
            continue
        round_walls.append(time.monotonic() - t0)
        problems = check_round(requests, rnd, plain[0] if plain else None)
        attempted += len(rnd.replies)
        failed += len(problems)
        errors += [f"request {i}: {why}" for i, why in sorted(problems.items())]
        if want_trace:
            traced.append((rnd, tracer, sink))
        else:
            plain.append(rnd)
        log(
            f"  round {len(plain) + len(traced)}{' (traced)' if want_trace else ''}: "
            f"setup {rnd.setup_s:.3f} s, load {rnd.wall_s:.3f} s, "
            f"{len(rnd.replies)} requests"
            + (f"  [{len(problems)} problems]" if problems else "")
        )
    summary = {"attempted": max(1, attempted), "failed": failed, "errors": errors}
    if not plain:
        return summary
    cold, warm = _latencies(requests, plain)
    summary["end_to_end"] = {
        "setup_s": median(r.setup_s for r in plain),
        "solve_s": median(r.wall_s for r in plain),
        "peak_rss_mb": median(r.rss_mb for r in plain),
        "req_per_s": sum(len(r.replies) for r in plain) / sum(r.wall_s for r in plain),
        "cold_p50_ms": 1e3 * median(cold),
    }
    summary["latency"] = {"cold": cold, "warm": warm}
    summary["samples"] = len(plain)
    if traced:
        summary["per_layer"] = _traced_metrics(requests, plain, traced)
        summary["spans"] = [[s.as_dict() for s in t.spans] for _r, t, _s in traced]
    return summary


def _traced_round(requests):
    import repro.frw.solver  # noqa: F401  (load modules before patching)
    import repro.service  # noqa: F401

    import layers
    from tracing import Tracer

    tracer, sink = Tracer(), layers.StageSink()
    layers.install(tracer, sink)
    try:
        rnd = in_process_round(requests)
    finally:
        tracer.restore()
    return rnd, tracer, sink


def _traced_metrics(requests, plain, traced) -> dict:
    """Per-layer metrics of the service workload (medians over traced rounds)."""
    import layers

    records = []
    for rnd, tracer, sink in traced:
        spans = tracer.spans
        per_request: dict[int, dict[str, float]] = {}
        for s in spans:
            if s.name in ("service.parse", "service.canonical"):
                acc = per_request.setdefault(s.trace_id, {})
                acc[s.name] = acc.get(s.name, 0.0) + s.duration
        submits = [s for s in spans if s.name == "service.submit"]
        solves = [s for s in spans if s.name == "solver.extract"]
        cold_lat, warm_lat = _latencies(requests, [rnd])
        solve_ms = 1e3 * median(s.duration for s in solves)
        submit_warm_ms = 1e3 * median(s.duration for s in submits if s.attrs["hit"])
        rec = layers.solver_metrics(spans, sink)
        rec.update(
            {
                "service.parse_ms": 1e3
                * median(v.get("service.parse", 0.0) for v in per_request.values()),
                "service.canonical_ms": 1e3
                * median(v.get("service.canonical", 0.0) for v in per_request.values()),
                "service.submit_warm_ms": submit_warm_ms,
                "service.http_ms": 1e3 * median(warm_lat) - submit_warm_ms,
                "service.solve_ms": solve_ms,
                "service.queue_ms": 1e3 * median(cold_lat) - solve_ms,
                "trace.coverage": layers.coverage(spans, submits + solves),
            }
        )
        records.append(rec)
    per_layer = {name: median(r[name] for r in records) for name in records[0]}
    stats = plain[0].stats
    per_layer.update(
        {
            "service.result_hit_rate": stats["result_cache"]["hit_rate"],
            "service.full_hit_share": stats["full_hits"] / sum(stats["requests"].values()),
            "service.asset_builds": stats["asset_cache"]["misses"],
            "service.asset_evictions": stats["asset_cache"]["evictions"],
        }
    )
    plain_cold, _ = _latencies(requests, plain)
    traced_cold, _ = _latencies(requests, [r for r, _t, _s in traced])
    per_layer["trace.overhead_frac"] = median(traced_cold) / median(plain_cold) - 1.0
    return per_layer
