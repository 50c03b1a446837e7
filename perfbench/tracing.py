"""In-memory span tracer used by the benchmark's traced runs.

Spans are recorded around calls into the program's public functions by
wrapping them from the benchmark's own files: the program itself carries
no tracing.  Each span records a name, start, end, its parent span and a
trace id; the spans of one extraction or request share the trace id.  A
span's *self time* is its duration minus the part of it covered by its
child spans.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace_id": self.trace_id,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Tracer:
    """Span recorder plus the monkey-patches that feed it.

    Wrappers call straight through in any process other than the one that
    created the tracer, so forked pool workers that inherit a patched
    module pay nothing and record nothing.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return os.getpid() == self._pid

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        """Record one span; ``new_trace`` starts a fresh trace id (one per
        extraction or request) while keeping the parent link."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        trace_id = sid if (parent is None or new_trace) else parent.trace_id
        span = Span(
            sid=sid,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=None if parent is None else parent.sid,
            trace_id=trace_id,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, fn, name: str, new_trace: bool = False, on_result=None):
        """A wrapper of ``fn`` that records one span per call.

        ``on_result(span, result)`` may annotate the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            with tracer.span(name, new_trace=new_trace) as span:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement, prefix: str = "repro") -> int:
        """Replace every module-level binding of ``original`` in the loaded
        ``prefix`` modules (a function imported by name is bound in each
        importing module).  Returns the number of bindings replaced."""
        count = 0
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)
                    count += 1
        return count

    def trace_function(self, original, name: str, **kwargs) -> int:
        """Wrap ``original`` wherever it is bound; see :meth:`wrap`."""
        return self.patch_everywhere(original, self.wrap(original, name, **kwargs))

    def trace_method(self, cls, attr: str, name: str, **kwargs) -> None:
        self.patch(cls, attr, self.wrap(getattr(cls, attr), name, **kwargs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return out
