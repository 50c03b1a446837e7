"""Shared fixtures: small structures, extraction configs, and helpers that
run work on several concurrent threads."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Box, Conductor, DielectricStack, FRWConfig, Structure
from repro.frw import WalkResults, run_walks


@pytest.fixture(scope="session")
def plates():
    """Two parallel plates in a grounded enclosure (fast, well understood)."""
    p1 = Conductor.single("P1", Box.from_bounds(-2, 2, -2, 2, 0.0, 0.25))
    p2 = Conductor.single("P2", Box.from_bounds(-2, 2, -2, 2, 0.75, 1.0))
    return Structure(
        [p1, p2], enclosure=Box.from_bounds(-6, 6, -6, 6, -5, 6)
    )


@pytest.fixture(scope="session")
def three_wires():
    """Three parallel wires — the Table I case-1 shape."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(3)
    ]
    return Structure(
        wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
    )


@pytest.fixture(scope="session")
def layered_wires():
    """Two wires in different dielectric layers (exercises interface steps)."""
    w1 = Conductor.single("w1", Box.from_bounds(0, 1, 0, 6, 0.5, 1.3))
    w2 = Conductor.single("w2", Box.from_bounds(2.5, 3.5, 0, 6, 3.0, 3.8))
    stack = DielectricStack(interfaces=(2.13,), eps=(3.9, 2.7))
    return Structure(
        [w1, w2],
        dielectric=stack,
        enclosure=Box.from_bounds(-4, 8, -4, 10, -3, 8),
    )


@pytest.fixture
def quick_config():
    """A config that converges in well under a second on the fixtures."""
    return FRWConfig.frw_r(
        seed=123, n_threads=4, batch_size=1500, tolerance=5e-2, min_walks=1500
    )


@pytest.fixture(scope="session")
def on_threads():
    """``run(calls)``: run each zero-argument callable on its own thread.

    The threads are released together (a barrier), so the calls really
    overlap; results come back in call order and exceptions propagate.
    """

    def run(calls):
        barrier = threading.Barrier(len(calls))

        def start(fn):
            barrier.wait(timeout=60)
            return fn()

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [pool.submit(start, fn) for fn in calls]
            return [f.result() for f in futures]

    return run


@pytest.fixture(scope="session")
def threaded_walks(on_threads):
    """``run(ctx, streams, uids, n_threads=None, chunk_size=None)``: the
    serial engine over contiguous UID chunks, one concurrent thread per
    chunk, all sharing the one ``streams`` provider; reassembled in UID
    order.  Chunks are ``chunk_size`` UIDs, or an even split over
    ``n_threads``."""

    def run(ctx, streams, uids, n_threads=None, chunk_size=None):
        uids = np.asarray(uids, dtype=np.uint64)
        if chunk_size is not None:
            chunks = [uids[a : a + chunk_size] for a in range(0, len(uids), chunk_size)]
        else:
            chunks = np.array_split(uids, n_threads)
        parts = on_threads([lambda c=c: run_walks(ctx, streams, c) for c in chunks])
        return WalkResults(
            uids=uids,
            omega=np.concatenate([p.omega for p in parts]),
            dest=np.concatenate([p.dest for p in parts]),
            steps=np.concatenate([p.steps for p in parts]),
            truncated=sum(p.truncated for p in parts),
        )

    return run
