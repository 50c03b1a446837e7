"""Per-walk counter streams built on Philox4x32-10.

This is the library's realisation of the paper's *fine-grained reseeding*
(Alg. 2, line 6): every walk owns a unique 64-bit walk UID, and the random
draw ``slot`` of ``step`` of walk ``uid`` under global seed ``s`` is a pure
function of ``(s, uid, step, slot)``.  Any thread — or vectorised batch — can
therefore evaluate any walk and obtain bit-identical numbers, which is the
whole basis of DOP-independent reproducibility.

Counter layout (Philox4x32 counter words)::

    c0 = block index within the walk  (= step * BLOCKS_PER_STEP + block)
    c1 = walk UID, low 32 bits
    c2 = walk UID, high 32 bits
    c3 = domain separation tag

Each Philox call yields 4 words = 2 doubles, so a step may consume up to
``2 * BLOCKS_PER_STEP`` doubles.  The walk engine uses at most
:data:`MAX_DRAWS_PER_STEP`.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import RNGError
from .philox import (
    derive_key,
    philox4x32,
    philox4x32_inplace,
    philox4x32_scalar,
    unit_double_into,
    unit_double_scalar,
    words_to_unit_double,
)

#: Philox blocks reserved per walk step; 4 blocks = up to 8 doubles.
BLOCKS_PER_STEP = 4

#: Maximum uniform doubles a single walk step may request.
MAX_DRAWS_PER_STEP = 2 * BLOCKS_PER_STEP

#: Domain-separation tag placed in counter word c3 ("FRWR").
DOMAIN_TAG = 0x46525752

#: Maximum step depth of a fused :meth:`WalkStreams.draws_span` pass (the
#: engine's RNG prefetch ring); bounds span scratch to a fixed size.
MAX_PREFETCH_STEPS = 16

#: Column-tile budget of the fused kernel, in lattice elements per plane.
#: Spans over wide walk vectors are evaluated in column tiles of at most
#: this many elements so the thirteen scratch planes stay cache-resident — a
#: single (2*depth, n) pass at n in the thousands thrashes the cache and
#: loses the fused pass's dispatch win (measured: 0.8x at depth 8, n 8192
#: untiled vs >2x tiled).  It is also the fixed size of every per-thread
#: scratch buffer.
_SPAN_TILE = 16384

_MASK32 = 0xFFFFFFFF


def check_span_args(depth: int, count: int) -> None:
    """Validate the ``(depth, count)`` shape of a fused draw request."""
    if count < 1 or count > MAX_DRAWS_PER_STEP:
        raise RNGError(f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}")
    if depth < 1 or depth > MAX_PREFETCH_STEPS:
        raise RNGError(f"depth must be in [1, {MAX_PREFETCH_STEPS}], got {depth}")


def encode_walk_uid(batch_index: int, walk_in_batch: int, batch_size: int) -> int:
    """Encode the paper's walk ID ``(u, v)`` into a flat 64-bit UID.

    ``uid = u * B + v`` exactly as suggested in Sec. III-B ("e.g., using
    ``s + uB + v`` as a unique seed"); the global seed ``s`` enters through
    the Philox key instead so that UIDs stay small and collision-free.
    """
    if walk_in_batch < 0 or walk_in_batch >= batch_size:
        raise RNGError(
            f"walk_in_batch {walk_in_batch} out of range for batch size {batch_size}"
        )
    if batch_index < 0:
        raise RNGError(f"batch_index must be non-negative, got {batch_index}")
    return batch_index * batch_size + walk_in_batch


class _Scratch:
    """Fixed-size working buffers of the fused Philox kernel.

    Every buffer is a flat array of :data:`_SPAN_TILE` elements; a call
    takes *contiguous* leading views (``lat[i][:rows * m].reshape(rows,
    m)``), which always fit because columns are tiled at ``_SPAN_TILE //
    rows``.  The footprint (~1.6 MB) is independent of the walk count,
    the prefetch depth and the number of stream providers.
    """

    __slots__ = ("lattice", "t", "t0", "t1", "f0", "f1")

    def __init__(self):
        # Eight counter-lattice planes: four counter words plus four
        # scratch planes for the in-place Philox rounds.
        self.lattice = [np.empty(_SPAN_TILE, dtype=np.uint64) for _ in range(8)]
        # Counter temp plus the conversion temps (used depth rows deep).
        self.t = np.empty(_SPAN_TILE, dtype=np.uint64)
        self.t0 = np.empty(_SPAN_TILE, dtype=np.uint64)
        self.t1 = np.empty(_SPAN_TILE, dtype=np.uint64)
        self.f0 = np.empty(_SPAN_TILE, dtype=np.float64)
        self.f1 = np.empty(_SPAN_TILE, dtype=np.float64)


_LOCAL = threading.local()


def _thread_scratch() -> _Scratch:
    """The calling thread's kernel scratch, shared by every provider."""
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = _Scratch()
        _LOCAL.scratch = scratch
    return scratch


class WalkStreams:
    """Stateless per-walk random streams keyed by a global seed.

    Parameters
    ----------
    seed:
        The user-level global seed ``s`` of Alg. 2.
    stream:
        Domain-separation stream tag; distinct tags (e.g. one per master
        conductor in multi-level parallelism) give independent stream
        families under the same seed.

    The draw *values* are a pure function of ``(seed, stream, uid, step,
    slot)``; the instance holds only the seed and the derived key, and the
    kernel's working buffers are per thread, so any number of instances
    agree bit-for-bit and one instance may serve several threads at once.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._k0, self._k1 = derive_key(self.seed, self.stream)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalkStreams(seed={self.seed}, stream={self.stream})"

    def draws(
        self,
        uids: np.ndarray,
        step: int | np.ndarray,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms in [0, 1).

        The result depends only on ``(seed, stream, uid, step, slot)`` — not
        on the order or grouping of ``uids`` — so batched evaluation is
        bit-identical to scalar evaluation.  ``step`` may be a scalar or a
        per-walk array (the pipelined engine mixes walks at different
        depths in one vector); each walk's draws depend only on its own
        ``(uid, step)``.

        A one-step :meth:`draws_span`: all blocks of the step are generated
        by a single fused Philox pass over an ``(n_blocks, n)`` counter
        lattice.  ``out`` — shape ``(n, >= count)``, float64 — lets the
        caller supply the destination so steady-state callers allocate
        nothing.
        """
        if out is not None:
            out = out[None]
        return self.draws_span(uids, step, 1, count, out=out)[0]

    def draws_span(
        self,
        uids: np.ndarray,
        steps: int | np.ndarray,
        depth: int,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused draws for ``depth`` consecutive steps of every walk.

        Returns ``(depth, len(uids), count)`` uniforms where ``[k, i, :]``
        is bit-identical to ``draws(uids, steps + k, count)[i, :]`` — the
        engine's RNG prefetch ring consumes one plane per step.  ``steps``
        may be a scalar or per-walk array exactly like :meth:`draws`.  One
        Philox pass covers the whole ``(depth * n_blocks, n)`` counter
        lattice, so the fixed per-call dispatch cost is paid once per
        ``depth`` steps; columns are tiled (:data:`_SPAN_TILE`) so the
        scratch working set stays cache-resident at any walk count.  ``out``
        — shape ``(depth, >= n, >= count)``, float64 — makes the call
        allocation-free.
        """
        check_span_args(depth, count)
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        n_blocks = (count + 1) // 2
        rows = depth * n_blocks
        if out is None:
            out = np.empty((depth, n, count), dtype=np.float64)
        elif (
            out.shape[0] < depth or out.shape[1] < n or out.shape[2] < count
        ):
            raise RNGError(
                f"out shape {out.shape} too small for ({depth}, {n}, {count})"
            )
        steps_arr = np.asarray(steps, dtype=np.uint64)
        tile = _SPAN_TILE // rows
        scratch = _thread_scratch()
        lat = scratch.lattice
        mask = np.uint64(_MASK32)
        # Lattice row r = j * depth + k (block j, step offset k), so each
        # draw slot's conversion input is a contiguous row range and
        # c0 = (step + k) * BLOCKS_PER_STEP + j — the exact counter the
        # per-step path builds at step + k.
        r_idx = np.arange(rows, dtype=np.uint64)
        row_off = (r_idx % np.uint64(depth)) * np.uint64(BLOCKS_PER_STEP) + (
            r_idx // np.uint64(depth)
        )
        for a in range(0, n, tile):
            b = min(n, a + tile)
            m = b - a
            size = rows * m
            x0, x1, x2, x3, s0, s1, s2, s3 = (
                plane[:size].reshape(rows, m) for plane in lat
            )
            t = scratch.t[:m]
            step_t = steps_arr if steps_arr.ndim == 0 else steps_arr[a:b]
            np.multiply(step_t, np.uint64(BLOCKS_PER_STEP), out=t)
            np.add(t[None, :], row_off[:, None], out=x0)
            np.bitwise_and(x0, mask, out=x0)
            np.bitwise_and(uids[a:b], mask, out=t)
            x1[...] = t
            np.right_shift(uids[a:b], np.uint64(32), out=t)
            x2[...] = t
            x3.fill(DOMAIN_TAG)
            w0, w1, w2, w3 = philox4x32_inplace(
                x0, x1, x2, x3, s0, s1, s2, s3, self._k0, self._k1
            )
            size = depth * m
            t0 = scratch.t0[:size].reshape(depth, m)
            t1 = scratch.t1[:size].reshape(depth, m)
            f0 = scratch.f0[:size].reshape(depth, m)
            f1 = scratch.f1[:size].reshape(depth, m)
            for d in range(count):
                j = d // 2
                rs = slice(j * depth, (j + 1) * depth)
                hi, lo = (w0[rs], w1[rs]) if d % 2 == 0 else (w2[rs], w3[rs])
                unit_double_into(hi, lo, t0, t1, f0, f1, out[:depth, a:b, d])
        return out[:depth, :n, :count]

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path; bit-identical to :meth:`draws`."""
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        values: list[float] = []
        base_block = step * BLOCKS_PER_STEP
        for j in range((count + 1) // 2):
            w0, w1, w2, w3 = philox4x32_scalar(
                (
                    base_block + j,
                    uid & _MASK32,
                    (uid >> 32) & _MASK32,
                    DOMAIN_TAG,
                ),
                (self._k0, self._k1),
            )
            values.append(unit_double_scalar(w0, w1))
            values.append(unit_double_scalar(w2, w3))
        return values[:count]


class SequentialStream:
    """A stateful sequential stream (classic PRNG interface) over Philox.

    Used to model the *baseline* Alg. 1 of [1], where each thread owns one
    private PRNG seeded once and consumed sequentially for all of its walks.
    Such a stream is reproducible only if the thread's whole walk sequence is
    reproduced — the root cause of Alg. 1's fixed-DOP-only reproducibility.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._k0, self._k1 = derive_key(self.seed, self.stream)
        self._position = 0

    def next_doubles(self, count: int) -> np.ndarray:
        """Draw ``count`` uniforms, advancing the stream position."""
        if count < 0:
            raise RNGError(f"count must be non-negative, got {count}")
        n_blocks = (count + 1) // 2
        blocks = np.arange(
            self._position, self._position + n_blocks, dtype=np.uint64
        )
        self._position += n_blocks
        w0, w1, w2, w3 = philox4x32(
            (blocks & np.uint64(_MASK32)).astype(np.uint32),
            (blocks >> np.uint64(32)).astype(np.uint32),
            np.uint32(0),
            np.uint32(DOMAIN_TAG ^ 0x1),
            np.uint32(self._k0),
            np.uint32(self._k1),
        )
        out = np.empty(2 * n_blocks, dtype=np.float64)
        out[0::2] = words_to_unit_double(w0, w1)
        out[1::2] = words_to_unit_double(w2, w3)
        return out[:count]

    @property
    def position(self) -> int:
        """Number of Philox blocks consumed so far."""
        return self._position
