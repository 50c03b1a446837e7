"""Tests for per-walk counter streams (fine-grained reseeding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RNGError
from repro.rng import (
    MAX_DRAWS_PER_STEP,
    SequentialStream,
    WalkStreams,
    encode_walk_uid,
)


def test_draws_shape_and_range():
    ws = WalkStreams(seed=42)
    u = ws.draws(np.arange(100, dtype=np.uint64), step=3, count=3)
    assert u.shape == (100, 3)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_draws_independent_of_batching():
    """The core reproducibility property: any grouping of walk UIDs yields
    bit-identical numbers."""
    ws = WalkStreams(seed=7)
    uids = np.arange(64, dtype=np.uint64)
    full = ws.draws(uids, step=2, count=4)
    # Split into odd chunks and shuffled order.
    perm = np.random.default_rng(0).permutation(64)
    shuffled = ws.draws(uids[perm], step=2, count=4)
    assert np.array_equal(full[perm], shuffled)
    parts = [ws.draws(uids[i : i + 7], step=2, count=4) for i in range(0, 64, 7)]
    assert np.array_equal(np.concatenate(parts), full)


def test_scalar_matches_vectorised():
    ws = WalkStreams(seed=9, stream=4)
    for uid in (0, 1, 2**33, 123456789):
        for step in (0, 1, 17):
            vec = ws.draws(np.array([uid], dtype=np.uint64), step, 5)[0]
            scal = ws.draws_scalar(uid, step, 5)
            assert vec.tolist() == scal


def test_streams_differ_by_seed_and_stream():
    uids = np.arange(10, dtype=np.uint64)
    a = WalkStreams(1, 0).draws(uids, 0, 2)
    b = WalkStreams(2, 0).draws(uids, 0, 2)
    c = WalkStreams(1, 1).draws(uids, 0, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_steps_give_distinct_draws():
    ws = WalkStreams(3)
    uids = np.arange(5, dtype=np.uint64)
    assert not np.array_equal(ws.draws(uids, 0, 3), ws.draws(uids, 1, 3))


@given(st.integers(0, 2**40), st.integers(0, 1000), st.integers(1, MAX_DRAWS_PER_STEP))
@settings(max_examples=30)
def test_draws_deterministic(uid, step, count):
    ws1 = WalkStreams(11)
    ws2 = WalkStreams(11)
    assert ws1.draws_scalar(uid, step, count) == ws2.draws_scalar(uid, step, count)


def test_draw_count_limits():
    ws = WalkStreams(0)
    with pytest.raises(RNGError):
        ws.draws(np.arange(2, dtype=np.uint64), 0, 0)
    with pytest.raises(RNGError):
        ws.draws(np.arange(2, dtype=np.uint64), 0, MAX_DRAWS_PER_STEP + 1)
    with pytest.raises(RNGError):
        ws.draws_scalar(0, 0, 0)


def test_encode_walk_uid():
    assert encode_walk_uid(0, 0, 1000) == 0
    assert encode_walk_uid(2, 17, 1000) == 2017
    with pytest.raises(RNGError):
        encode_walk_uid(0, 1000, 1000)
    with pytest.raises(RNGError):
        encode_walk_uid(-1, 0, 1000)


def test_sequential_stream_reproducible_and_stateful():
    s1 = SequentialStream(5)
    s2 = SequentialStream(5)
    a = s1.next_doubles(7)
    b = s1.next_doubles(7)
    assert not np.array_equal(a, b)
    # Same consumption pattern reproduces the stream.
    assert np.array_equal(s2.next_doubles(7), a)
    assert np.array_equal(s2.next_doubles(7), b)
    assert s1.position == s2.position


def test_sequential_stream_different_chunking_same_prefix():
    """Position-based blocks: chunk sizes may change alignment, but
    block-aligned consumption is stable."""
    s1 = SequentialStream(5)
    s2 = SequentialStream(5)
    a = np.concatenate([s1.next_doubles(4), s1.next_doubles(4)])
    b = s2.next_doubles(8)
    assert np.array_equal(a, b)


def test_sequential_stream_rejects_negative():
    with pytest.raises(RNGError):
        SequentialStream(1).next_doubles(-1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=MAX_DRAWS_PER_STEP),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**64 - 1),  # uid
            st.integers(min_value=0, max_value=2**20),  # step
        ),
        min_size=1,
        max_size=16,
    ),
    use_out=st.booleans(),
)
def test_fused_draws_matches_scalar_property(seed, count, pairs, use_out):
    """The fused single-pass Philox kernel is bit-identical to the scalar
    reference for arbitrary (uid, step) mixes — including per-walk step
    vectors (the pipelined engine's calling convention), every count up to
    MAX_DRAWS_PER_STEP, and the caller-supplied ``out=`` buffer path."""
    ws = WalkStreams(seed)
    uids = np.array([u for u, _ in pairs], dtype=np.uint64)
    steps = np.array([s for _, s in pairs], dtype=np.uint64)
    if use_out:
        out = np.empty((len(pairs), MAX_DRAWS_PER_STEP), dtype=np.float64)
        vec = ws.draws(uids, steps, count, out=out)
        assert vec.base is out
    else:
        vec = ws.draws(uids, steps, count)
    assert vec.shape == (len(pairs), count)
    for i, (uid, step) in enumerate(pairs):
        assert vec[i].tolist() == ws.draws_scalar(uid, step, count)


def test_shared_streams_concurrent_threads_match_serial_calls(on_threads):
    """One WalkStreams (and one MirroredDraws over it) serving two threads
    at once returns exactly the bytes of serial calls, over mixed shapes
    that cover one-column calls, deep spans and column tiling past the
    fixed per-thread scratch size."""
    from repro.rng import MirroredDraws
    from repro.rng.counter_stream import _SPAN_TILE

    base = WalkStreams(seed=11, stream=2)
    mirrored = MirroredDraws(base, group=2, depth=3)
    rng = np.random.default_rng(5)
    calls = []
    for n, depth, count in [
        (1, 1, 3),
        (7, 16, 8),
        (300, 16, 3),
        (1024, 8, 3),
        (5000, 4, 5),
        (_SPAN_TILE + 37, 1, 3),
        (_SPAN_TILE + 37, 16, 8),
    ]:
        uids = rng.integers(0, 2**40, n).astype(np.uint64)
        steps = rng.integers(0, 6, n).astype(np.uint64)
        for provider in (base, mirrored):
            calls.append((provider.draws_span, (uids, steps, depth, count)))
            calls.append((provider.draws, (uids, steps, count)))
    reference = [fn(*args).tobytes() for fn, args in calls]

    def replay(order):
        return [(i, calls[i][0](*calls[i][1]).tobytes()) for i in order]

    forward = list(range(len(calls))) * 2
    for results in on_threads([lambda: replay(forward), lambda: replay(forward[::-1])]):
        for i, got in results:
            assert got == reference[i]
