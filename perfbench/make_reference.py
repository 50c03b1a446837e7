"""Regenerate ``reference.json``: high-walk diagonals for the z-bound check.

Each direct workload's structure is extracted with its own walk seed (not
the benchmark's) to a tolerance four times tighter than the benchmark's,
so the reference standard deviation is about a quarter of a benchmark
run's.  The raw (pre-regularization) diagonal and its standard deviation
are stored with the command that produced them.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from direct import WORKLOADS, build_structure, masters_of

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 20250
TIGHTEN = 4.0


def main() -> int:
    from repro import FRWConfig, FRWSolver

    out = {}
    for name, spec in sorted(WORKLOADS.items()):
        structure = build_structure(spec["structure"])
        masters = masters_of(structure)
        fields = dict(spec["config"])
        fields.update(
            seed=REFERENCE_SEED,
            tolerance=fields["tolerance"] / TIGHTEN,
            max_walks=4_000_000,
            executor="process",
            n_workers=2,
        )
        cfg = FRWConfig.frw_rr(**fields)
        t0 = time.perf_counter()
        with FRWSolver(structure, cfg) as solver:
            res = solver.extract(masters)
        if not res.converged:
            raise SystemExit(f"{name}: reference did not reach its tolerance")
        raw = res.raw_matrix
        out[name] = {
            "diag": [float(raw.values[i, m]) for i, m in enumerate(masters)],
            "sigma": [
                math.sqrt(float(raw.sigma2[i, m])) for i, m in enumerate(masters)
            ],
            "seed": REFERENCE_SEED,
            "tolerance": cfg.tolerance,
            "walks": res.total_walks,
            "seconds": round(time.perf_counter() - t0, 1),
            "command": "PYTHONPATH=src python3 perfbench/make_reference.py",
        }
        print(f"{name}: {res.total_walks} walks in {out[name]['seconds']} s", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
