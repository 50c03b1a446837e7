"""Tests for the virtual-thread schedule simulation."""

import numpy as np
import pytest

from repro.frw import (
    jittered_durations,
    simulate_dynamic_queue,
    simulate_static_blocks,
)


def test_dynamic_queue_assigns_each_walk_once():
    durations = np.random.default_rng(0).uniform(1, 10, 500)
    sched = simulate_dynamic_queue(durations, 8)
    all_walks = np.concatenate(sched.thread_order)
    assert sorted(all_walks.tolist()) == list(range(500))


def test_dynamic_queue_deterministic():
    durations = np.random.default_rng(1).uniform(1, 10, 200)
    a = simulate_dynamic_queue(durations, 4)
    b = simulate_dynamic_queue(durations, 4)
    for x, y in zip(a.thread_order, b.thread_order):
        assert np.array_equal(x, y)


def test_dynamic_queue_single_thread_preserves_order():
    durations = np.ones(50)
    sched = simulate_dynamic_queue(durations, 1)
    assert np.array_equal(sched.thread_order[0], np.arange(50))
    assert sched.makespan == 50.0
    assert sched.efficiency == 1.0


def test_makespan_bounds():
    durations = np.random.default_rng(2).uniform(1, 50, 1000)
    for t in (2, 4, 16):
        sched = simulate_dynamic_queue(durations, t)
        lower = max(durations.sum() / t, durations.max())
        assert sched.makespan >= lower - 1e-9
        assert sched.makespan <= durations.sum()
        assert abs(sched.total_work - durations.sum()) < 1e-6


def test_dynamic_beats_static_on_skewed_loads():
    """The Sec. III-C load-balancing claim: with highly divergent walk
    lengths, the dynamic queue balances much better than static blocks."""
    rng = np.random.default_rng(3)
    durations = rng.uniform(1, 2, 2000)
    durations[:100] *= 100.0  # heavy walks clustered at the front
    t = 8
    dyn = simulate_dynamic_queue(durations, t)
    stat = simulate_static_blocks(durations, t)
    assert dyn.efficiency > 0.95
    assert dyn.makespan < stat.makespan * 0.5


def test_static_blocks_partition():
    durations = np.ones(10)
    sched = simulate_static_blocks(durations, 3)
    all_walks = np.concatenate(sched.thread_order)
    assert sorted(all_walks.tolist()) == list(range(10))
    assert len(sched.thread_order) == 3


def test_jittered_durations():
    steps = np.arange(1, 101)
    rng = np.random.default_rng(4)
    jittered = jittered_durations(steps, rng, 0.1)
    assert jittered.shape == steps.shape
    assert np.all(jittered > 0)
    # Zero jitter or no RNG: exactly steps + 1.
    assert np.array_equal(jittered_durations(steps, None, 0.1), steps + 1.0)
    assert np.array_equal(jittered_durations(steps, rng, 0.0), steps + 1.0)


def test_jitter_perturbs_assignment():
    steps = np.random.default_rng(5).integers(5, 50, 300)
    d1 = jittered_durations(steps, np.random.default_rng(10), 0.1)
    d2 = jittered_durations(steps, np.random.default_rng(11), 0.1)
    s1 = simulate_dynamic_queue(d1, 4)
    s2 = simulate_dynamic_queue(d2, 4)
    same = all(
        np.array_equal(a, b) for a, b in zip(s1.thread_order, s2.thread_order)
    )
    assert not same


def test_efficiency_high_when_many_small_walks():
    durations = np.random.default_rng(6).uniform(1, 3, 10_000)
    sched = simulate_dynamic_queue(durations, 16)
    assert sched.efficiency > 0.99


def _reference_dynamic_queue(durations, n_threads):
    """The original per-walk loop over NumPy scalars, kept verbatim as the
    byte-identity reference for the list-based replay."""
    import heapq

    durations = np.asarray(durations, dtype=np.float64)
    n = durations.shape[0]
    t_count = max(1, int(n_threads))
    orders = [[] for _ in range(t_count)]
    work = np.zeros(t_count, dtype=np.float64)
    heap = [(0.0, t) for t in range(t_count)]
    heapq.heapify(heap)
    for walk in range(n):
        available, thread = heapq.heappop(heap)
        orders[thread].append(walk)
        work[thread] += durations[walk]
        heapq.heappush(heap, (available + durations[walk], thread))
    finish = np.zeros(t_count, dtype=np.float64)
    while heap:
        available, thread = heapq.heappop(heap)
        finish[thread] = available
    return [np.array(o, dtype=np.int64) for o in orders], work, finish


@pytest.mark.parametrize("n_threads", [1, 2, 4, 7])
def test_dynamic_queue_byte_identical_to_reference_loop(n_threads):
    """Every ScheduleResult field matches the reference loop byte for
    byte, on jittered durations and on exact ties (equal durations)."""
    rng = np.random.default_rng(20250 + n_threads)
    cases = [
        jittered_durations(rng.integers(0, 40, 2048), rng, 0.05),
        rng.gamma(2.0, 10.0, 513),
        np.ones(64),
        np.empty(0),
    ]
    for durations in cases:
        got = simulate_dynamic_queue(durations, n_threads)
        order, work, finish = _reference_dynamic_queue(durations, n_threads)
        assert len(got.thread_order) == len(order)
        for a, b in zip(got.thread_order, order):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.thread_work.dtype == work.dtype
        assert got.thread_work.tobytes() == work.tobytes()
        assert got.thread_finish.tobytes() == finish.tobytes()
