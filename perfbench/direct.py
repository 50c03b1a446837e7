"""The two direct-extraction workloads: ``bus5_default`` and ``vco_process2``.

Each repeat is a fresh interpreter (``python3 perfbench/direct.py child
...``) running one one-shot extraction, which is what ``frw-rr extract``
pays: imports, structure, solver, contexts, then ``FRWSolver.extract`` to
the stated tolerance ending with the regularized matrix.  The parent
launches repeats until the run's time is spent, checks every result and
reports medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext

from common import ROOT, child_env, median, reap_orphans, tree_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))

#: Result fields pinned by the benchmark.  Every engine field not listed
#: stays at the library default (``bus5_default`` therefore runs the
#: default ``thread`` backend with auto workers).  The walk seed is fixed:
#: walks-to-tolerance on the VCO varies by ~8% between walk seeds, which
#: would swamp the code's own timing; the run's ``--seed`` drives
#: ``machine_seed`` instead, which reorders the virtual-thread merge (new
#: result bits) without changing the walk set.
WORKLOADS = {
    "bus5_default": {
        "structure": "bus5",
        "config": dict(
            seed=0,
            n_threads=4,
            batch_size=2048,
            min_walks=4096,
            max_walks=262_144,
            tolerance=3e-2,
        ),
        "smoke": dict(tolerance=0.2, batch_size=512, min_walks=1024),
    },
    "vco_process2": {
        "structure": "vco",
        "config": dict(
            seed=0,
            n_threads=4,
            batch_size=2048,
            min_walks=4096,
            max_walks=1_048_576,
            tolerance=7e-2,
            executor="process",
            n_workers=2,
        ),
        "smoke": dict(tolerance=0.25, batch_size=512, min_walks=1024),
        # min_walks == max_walks: a fixed-budget extraction whose rows must
        # be byte-equal on the serial engine and on process(2).
        "fixed_budget": dict(batch_size=1024, min_walks=2048, max_walks=2048),
    },
}

#: A diagonal entry more than this many combined standard deviations from
#: the committed reference fails the run.
Z_BOUND = 5.0

#: Longest a single repeat may take before it counts as failed.
CHILD_TIMEOUT_S = 150.0


def build_structure(name: str):
    """``bus5``: the 5-wire bus of ``benchmarks/bench_extract.py``;
    ``vco``: case 3 (VCO) at the ``fast`` profile."""
    from repro import Box, Conductor, Structure
    from repro.structures import build_case

    if name == "bus5":
        n = 5
        wires = [
            Conductor.single(
                f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
            )
            for i in range(n)
        ]
        hi = 2.0 * n + 3.0
        return Structure(wires, enclosure=Box.from_bounds(-4, hi, -4, 12, -4, 5))
    if name == "vco":
        return build_case(3, "fast")
    raise ValueError(f"unknown structure {name!r}")


def masters_of(structure) -> list[int]:
    from repro.structures import case_masters

    return list(case_masters(structure))


def make_config(workload: str, seed: int, smoke: bool, **overrides):
    from repro import FRWConfig

    spec = WORKLOADS[workload]
    fields = dict(spec["config"])
    if smoke:
        fields.update(spec["smoke"])
    fields.update(overrides)
    return FRWConfig.frw_rr(machine_seed=seed, **fields)


def matrix_digest(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# child: one one-shot extraction in a fresh interpreter
# ----------------------------------------------------------------------

def child_main(args) -> int:
    """Run one extraction and print its measurements as one JSON line.

    ``--t0`` is the parent's ``time.monotonic()`` just before launching
    this interpreter (CLOCK_MONOTONIC is system-wide), so set-up time
    includes interpreter start and imports.
    """
    tracer = sink = None
    if args.trace:
        import repro.frw.solver  # noqa: F401  (load modules before patching)
        import repro.service  # noqa: F401

        import layers
        from tracing import Tracer

        tracer, sink = Tracer(), layers.StageSink()
        layers.install(tracer, sink)
    from repro import FRWSolver
    from repro.frw.parallel import stream_spec

    solver = None
    try:
        with tracer.span("oneshot") if tracer else nullcontext() as root:
            structure = build_structure(WORKLOADS[args.workload]["structure"])
            masters = masters_of(structure)
            cfg = make_config(args.workload, args.seed, args.smoke)
            solver = FRWSolver(structure, cfg)
            for m in masters:
                solver.context(m)
            executor = solver.walk_executor()
            if executor is not None and executor.backend == "process":
                for m in masters:
                    executor.register(solver.context(m), stream_spec(cfg, m))
            t_ready = time.monotonic()
            t1 = time.perf_counter()
            result = solver.extract(masters)
            solve_s = time.perf_counter() - t1
            t_matrix = time.monotonic()
        raw = result.raw_matrix
        out = {
            "setup_s": t_ready - args.t0,
            "solve_s": solve_s,
            "matrix_s": t_matrix - args.t0,
            "digest": matrix_digest(result.matrix.values),
            "diag": [float(raw.values[i, m]) for i, m in enumerate(masters)],
            "sigma": [
                math.sqrt(float(raw.sigma2[i, m])) for i, m in enumerate(masters)
            ],
            "converged": bool(result.converged),
            "walks": int(result.total_walks),
            "steps": int(result.total_steps),
            "rss_mb": tree_peak_rss_mb(os.getpid()),
        }
        if tracer is not None:
            out["layers"] = _layer_record(tracer, sink, root, solver)
            out["spans"] = [s.as_dict() for s in tracer.spans]
    finally:
        if solver is not None:
            solver.close()
        if tracer is not None:
            tracer.restore()
    print(json.dumps(out))
    return 0


def _layer_record(tracer, sink, root, solver) -> dict:
    import layers

    rec = layers.solver_metrics(tracer.spans, sink)
    rec["trace.coverage"] = layers.coverage(tracer.spans, [root])
    executor = solver.walk_executor()
    if executor is not None:
        stats = executor.dispatch_stats()
        rec["parallel.dispatches"] = stats["dispatches"]
        rec["parallel.pickle_bytes_per_dispatch"] = stats["pickle_bytes_per_dispatch"]
        if executor.backend == "process":
            rec["shm.attaches"] = executor.worker_stats().get("total_attaches", 0)
    return rec


# ----------------------------------------------------------------------
# parent: repeats, checks, metrics
# ----------------------------------------------------------------------

def _run_child(args: list[str]) -> tuple[dict | None, float, str]:
    """Run ``direct.py <args>`` in a fresh interpreter and wait for it and
    every process it left behind; returns ``(last-line JSON or None, wall
    seconds, error)``."""
    cmd = [sys.executable, os.path.join(HERE, "direct.py"), *args]
    t0 = time.monotonic()
    if args[0] == "child":
        cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, "timed out"
    finally:
        reap_orphans()
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, ""


def _launch(workload: str, seed: int, smoke: bool, trace: bool) -> tuple[dict | None, float, str]:
    """One repeat; returns ``(record or None, wall seconds, error)``."""
    args = ["child", "--workload", workload, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    if trace:
        args.append("--trace")
    return _run_child(args)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def z_failures(rec: dict, ref: dict) -> list[str]:
    """Diagonal entries farther than :data:`Z_BOUND` from the reference."""
    bad = []
    for i, (c, s, c_ref, s_ref) in enumerate(
        zip(rec["diag"], rec["sigma"], ref["diag"], ref["sigma"])
    ):
        z = abs(c - c_ref) / math.sqrt(s * s + s_ref * s_ref)
        if not z <= Z_BOUND:
            bad.append(f"C[{i},{i}]={c:.6g} vs reference {c_ref:.6g}: z={z:.2f}")
    return bad


def fixed_budget_main(args) -> int:
    """Serial vs process(2) on a fixed walk budget: rows must be byte-equal.

    Prints one JSON line: whether the rows are equal, and the serial run's
    far-field rate, which stands in for the process run's (whose queries
    happen in the workers).
    """
    from repro import FRWSolver

    spec = WORKLOADS[args.workload]
    structure = build_structure(spec["structure"])
    masters = masters_of(structure)
    rows = {}
    query_stats = {}
    for executor in ("serial", "process"):
        cfg = make_config(
            args.workload, args.seed, False, executor=executor, **spec["fixed_budget"]
        )
        with FRWSolver(structure, cfg) as solver:
            res = solver.extract(masters)
        rows[executor] = res.matrix.values
        if executor == "serial":
            query_stats = res.matrix.meta["schedule"].get("query_stats") or {}
    out = {
        "equal": rows["serial"].tobytes() == rows["process"].tobytes(),
        "far_field_rate": float(query_stats.get("far_field_rate", 0.0)),
    }
    print(json.dumps(out))
    return 0


def fixed_budget_check(workload: str, seed: int) -> tuple[list[str], float | None]:
    """Run :func:`fixed_budget_main` in a fresh interpreter, so the process
    pool and its helpers never live in the benchmark's own process.

    Returns ``(errors, serial far-field rate or None)``.
    """
    rec, _wall, err = _run_child(
        ["fixed-budget", "--workload", workload, "--seed", str(seed)]
    )
    if rec is None:
        return [f"fixed-budget check failed: {err}"], None
    errors = [] if rec["equal"] else ["fixed-budget rows differ between serial and process(2)"]
    return errors, rec["far_field_rate"]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, log) -> dict:
    """Drive one workload for ``seconds``; returns the run summary."""
    start = time.monotonic()
    ref = load_reference()[workload]
    attempted = failed = 0
    errors: list[str] = []
    far_field = None
    if "fixed_budget" in WORKLOADS[workload]:
        attempted += 1
        errs, far_field = fixed_budget_check(workload, seed)
        if errs:
            failed += 1
            errors += errs
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    digest = None
    min_each = 2 if trace else 3
    while True:
        n = len(plain) + len(traced)
        enough = len(plain) >= min_each and (not trace or len(traced) >= min_each)
        out_of_time = walls and time.monotonic() - start + max(walls) > seconds
        if out_of_time and (enough or failed):
            break
        want_trace = trace and len(traced) < len(plain)
        attempted += 1
        rec, wall, err = _launch(workload, seed, smoke, want_trace)
        walls.append(wall)
        problems = [err] if rec is None else []
        if rec is not None:
            if not rec["converged"]:
                problems.append("stopped at max_walks before the tolerance")
            if digest is None:
                digest = rec["digest"]
            elif rec["digest"] != digest:
                problems.append("matrix values differ from the run's first repeat")
            problems += z_failures(rec, ref)
            rec["wall_s"] = wall
            (traced if want_trace else plain).append(rec)
        if problems:
            failed += 1
            errors += problems
        log(
            f"  repeat {n + 1}{' (traced)' if want_trace else ''}: "
            + (
                f"setup {rec['setup_s']:.3f} s, solve {rec['solve_s']:.3f} s, "
                f"walks {rec['walks']}"
                if rec
                else "FAILED"
            )
            + ("" if not problems else f"  [{'; '.join(problems)}]")
        )
    summary = {"attempted": attempted, "failed": failed, "errors": errors}
    if plain:
        summary["end_to_end"] = {
            "setup_s": median(r["setup_s"] for r in plain),
            "solve_s": median(r["solve_s"] for r in plain),
            "peak_rss_mb": median(r["rss_mb"] for r in plain),
            "req_per_s": 1.0 / median(r["wall_s"] for r in plain),
            "cold_p50_ms": 1e3 * median(r["matrix_s"] for r in plain),
        }
        summary["samples"] = len(plain)
    if traced and plain:
        per_layer = {
            name: median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        if far_field is not None and not per_layer["geometry.far_field_rate"]:
            per_layer["geometry.far_field_rate"] = far_field
        per_layer["trace.overhead_frac"] = (
            median(r["solve_s"] for r in traced) / summary["end_to_end"]["solve_s"] - 1.0
        )
        summary["per_layer"] = per_layer
        summary["spans"] = [r["spans"] for r in traced]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    child = sub.add_parser("child", help="one one-shot extraction (internal)")
    child.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--t0", type=float, required=True)
    child.add_argument("--trace", action="store_true")
    child.add_argument("--smoke", action="store_true")
    fixed = sub.add_parser(
        "fixed-budget", help="serial vs process(2) byte equality (internal)"
    )
    fixed.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    fixed.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.cmd == "fixed-budget":
        return fixed_budget_main(args)
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
