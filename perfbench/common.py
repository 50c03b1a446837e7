"""Shared helpers of the end-to-end benchmark.

Statistics (medians and the tail-percentile rule), the
metric-name rule, the host record, process-tree peak memory, and the
result line the benchmark prints last.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the program is ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of a run (port files, written traces); git-ignored.
OUT = ROOT / ".perfbench_out"

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no runnable program (no ``src/repro``)."""


def require_program() -> None:
    """Fail fast when run from a directory without the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")


def child_env() -> dict:
    """Environment for benchmark subprocesses: the checkout's ``src`` first
    on the import path, so the program measured is the one checked out."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def become_subreaper() -> bool:
    """Adopt every orphaned descendant (Linux ``PR_SET_CHILD_SUBREAPER``).

    The program's process pool and ``multiprocessing``'s resource tracker
    outlive the interpreter that started them by a moment; as a subreaper
    the benchmark inherits them and :func:`reap_orphans` can wait for them.
    Returns whether the kernel accepted the request.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):  # pragma: no cover - non-Linux host
        return False


def _own_children() -> list[int]:
    """Live (or unreaped) processes whose parent is this process."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def reap_orphans(grace_s: float = 10.0) -> int:
    """Wait for every child of this process; kill those still alive after
    ``grace_s`` and wait for them too.  Returns how many were reaped.

    Call only while the benchmark has no subprocess of its own running:
    every child found here is then an adopted orphan.
    """
    reaped = 0
    deadline = time.monotonic() + grace_s
    while True:
        kids = _own_children()
        if not kids:
            return reaped
        for pid in kids:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            reaped += done == pid
        if time.monotonic() > deadline:
            for pid in _own_children():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    reaped += 1
                except (ProcessLookupError, ChildProcessError):
                    pass
        time.sleep(0.01)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) unless at least :data:`TAIL_MIN_BEYOND`
    samples lie strictly beyond the reported rank: a tail read from fewer
    samples is one or two outliers, not a percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {TAIL_MIN_BEYOND}"
        )
    return float(ordered[rank - 1])


def _src_digest() -> str:
    """Content digest of the program source (the checkout the benchmark
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git repository
    (git is never asked to search the directories above it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record() -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux host
        cpus = os.cpu_count() or 1
    return {
        "host_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "machine": platform.machine(),
    }


def _proc_children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(_proc_children(p))
    return tree


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peak RSS (``VmHWM``) over a live process tree,
    in MB (10^6 bytes).  Pages shared between the processes count once
    per process, so this bounds the tree's simultaneous peak from above."""
    return sum(_vm_hwm_kib(p) for p in process_tree(pid)) * 1024 / 1e6


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last output line.  ``metrics`` maps a name to
    ``(value, unit)``."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    body = {}
    for name, (value, unit) in metrics.items():
        check_metric_name(name)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        body[name] = {"value": float(value), "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": body,
        },
        sort_keys=False,
    )
