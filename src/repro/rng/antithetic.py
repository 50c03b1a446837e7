"""Generalized antithetic sampling as a view over the counter streams.

The antithetic scheme of "Faster Random Walk-based Capacitance Extraction
with Generalized Antithetic Sampling" (PAPERS.md) pairs every primary walk
with ``group - 1`` partner walks whose first-hop (and optionally deeper)
direction draws are fixed reflections/rotations of the primary's draws.
Because each transform is a measure-preserving bijection of ``[0, 1)``,
every partner is *marginally* an exact FRW walk — the group mean is an
unbiased capacitance sample — while the partners' mirrored first hops are
negatively correlated with the primary's, so the variance of the group
mean drops below ``1/group`` of the per-walk variance and fewer walks
reach a given ``Err_cap``.

Reproducibility is preserved *by construction*: walk UIDs are grouped in
aligned blocks of ``group`` consecutive UIDs (``batch_size`` is validated
to be a multiple of ``group``, and UIDs start at 0, so groups never
straddle a batch).  A partner's draw at ``(step, slot)`` is a pure
function of ``(seed, stream, primary_uid, partner_index, step, slot)`` —
the partner consumes the *same* Philox counter words as its primary
(:class:`MirroredDraws` queries the base stream at the primary UID) and
applies a fixed elementwise transform.  No per-walk state, no ordering
dependence: bit-identity across backends, worker counts, and start
methods holds exactly as it does for the plain counter streams.

Transform family (partner index ``k`` in ``1 .. group-1``)::

    reflect_k = (k odd)            # u -> 1 - u
    offset_k  = (k // 2) * 2 / G   # u -> u + offset  (mod 1)
    T_k(u)    = (1 - u if reflect_k else u) + offset_k   (mod 1)

For ``group=2`` this is the classic antithetic reflection ``u -> 1 - u``;
for ``group=4`` it is the dihedral set {identity, reflect, rotate-half,
reflect+rotate-half}.  Jitter/coordinate slots (slot >= 1) apply ``T_k``
over the whole unit interval.

The *cell-selection* slot (slot 0) applies the same reflect/rotate — but
**within the third of [0, 1) the draw fell in** (:func:`antipodal_uniform`).
That choice is dictated by the transition table's CDF layout
(:mod:`repro.greens.cube_table`): cells are flattened face-major in the
order (axis0-lo, axis0-hi, axis1-lo, axis1-hi, axis2-lo, axis2-hi), the
centre-sampled kernel gives every face exactly 1/6 of the mass, and
within-face probabilities are centrally symmetric in row-major cell
order.  Reflecting the slot-0 draw within its third therefore reverses
the cell rank across one axis' face *pair* — which lands on the same
axis' other face, at the point-mirrored transverse cell: together with
the reflected jitter slots, partner ``k=1``'s first hop is the **exact
antipodal point** of the primary's hop on the transition cube.  The
centre-gradient kernel is odd under that point reflection, so the
partner's flux weight is (up to CDF rounding at cell edges) the exact
negative of the primary's — the strongest anticorrelation the first hop
admits.  A whole-interval reflection of slot 0 would instead map
axis0-lo cells onto axis2-hi cells: a different axis, nearly
uncorrelated weights, and a measured ~3x smaller walk reduction.

The transform applies to hop steps ``1 .. depth`` only:

* step 0 (the launch) is shared untransformed, so a group launches from
  one common Gaussian-surface point — the paper's pairing;
* steps past ``depth`` share the primary's words untransformed (common
  random numbers), which keeps diverged partner paths loosely coupled
  without re-randomising them; each partner's marginal law is unaffected.

Floating-point note: ``1 - u`` and ``mod(u + c, 1)`` are deterministic
elementwise double operations, so transformed draws are bit-stable, but
rounding makes the transforms measure-preserving only to one ulp — a
``2^-53``-level perturbation ten orders below the Monte-Carlo error, and
identical on every host.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import RNGError
from .counter_stream import _SPAN_TILE, check_span_args

#: Largest supported antithetic group (partner transforms beyond eight-way
#: rotation/reflection splits add bookkeeping but no new cancellation).
MAX_GROUP = 8


class _MirrorScratch:
    """Fixed-size per-thread buffers of :meth:`MirroredDraws.draws_span`
    (flat, :data:`~repro.rng.counter_stream._SPAN_TILE` elements each;
    calls take contiguous leading views)."""

    __slots__ = ("primary", "k", "transform", "reflect", "offset")

    def __init__(self):
        self.primary = np.empty(_SPAN_TILE, dtype=np.uint64)
        self.k = np.empty(_SPAN_TILE, dtype=np.uint64)
        self.transform = np.empty(_SPAN_TILE, dtype=bool)
        self.reflect = np.empty(_SPAN_TILE, dtype=np.float64)
        self.offset = np.empty(_SPAN_TILE, dtype=np.float64)


_LOCAL = threading.local()


def _thread_scratch() -> _MirrorScratch:
    """The calling thread's transform scratch, shared by every provider."""
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = _MirrorScratch()
        _LOCAL.scratch = scratch
    return scratch


def mirror_params(group: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-partner transform parameters ``(reflect, offset)``.

    ``reflect[k]`` is 1.0 where partner ``k`` reflects (odd ``k``) else
    0.0; ``offset[k]`` is its rotation.  Index 0 (the primary) is the
    identity.
    """
    if group < 2 or group > MAX_GROUP:
        raise RNGError(f"group must be in [2, {MAX_GROUP}], got {group}")
    k = np.arange(group, dtype=np.int64)
    reflect = (k & 1).astype(np.float64)
    offset = (k // 2).astype(np.float64) * (2.0 / group)
    return reflect, offset


def mirror_uniform(
    u: np.ndarray, reflect: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Apply ``T(u) = mod((1-u if reflect else u) + offset, 1)`` in place.

    ``reflect``/``offset`` broadcast against ``u`` (callers pass per-walk
    columns against ``(n, count)`` draw blocks).  Returns ``u``.
    """
    # (1 - 2*reflect) * u + reflect: u where reflect==0, 1-u where 1.
    np.multiply(u, 1.0 - 2.0 * reflect, out=u)
    np.add(u, reflect, out=u)
    np.add(u, offset, out=u)
    np.subtract(u, np.floor(u), out=u)
    # floor() maps an exact 1.0 (u=0 reflected) back to 0.0, keeping the
    # half-open [0, 1) contract of the base stream.
    return u


def antipodal_uniform(
    u: np.ndarray, reflect: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Apply the slot-0 transform: reflect/rotate *within each third*.

    ``u`` is decomposed as ``p/3 + w`` with ``p = floor(3u)`` the third
    (= transition-cube axis pair, see the module docstring) and ``w`` the
    offset inside it; the reflection/rotation acts on ``w`` over
    ``[0, 1/3)`` and ``p`` is kept, so the transformed draw selects a
    cell of the *same axis pair* — the antipodal cell, for a pure
    reflection.  Still a measure-preserving bijection of ``[0, 1)``
    (piecewise isometries of the thirds), so partner hops keep the exact
    transition distribution.  In place; broadcasts like
    :func:`mirror_uniform`; identity rows (reflect 0, offset 0) are
    bit-exact.
    """
    third = np.floor(u * 3.0)
    np.minimum(third, 2.0, out=third)  # u -> 1.0 ulp guard
    third /= 3.0
    w = np.subtract(u, third, out=u)
    np.multiply(w, 1.0 - 2.0 * reflect, out=w)
    np.add(w, reflect * (1.0 / 3.0), out=w)
    np.add(w, offset * (1.0 / 3.0), out=w)
    np.subtract(w, np.floor(w * 3.0) / 3.0, out=w)
    np.add(w, third, out=w)
    # Rounding at the upper cell edge can bump w onto the next third's
    # boundary; the identity path (reflect 0, offset 0) never enters the
    # adjustments above (w*3 < 1 exactly after subtracting its own third),
    # so untransformed rows pass through bit-exact.
    return u


class MirroredDraws:
    """Antithetic view over a per-walk stream provider.

    Wraps a base provider (:class:`~repro.rng.WalkStreams`) so that UID
    ``p + k`` (``p`` a multiple of ``group``, ``k`` in ``1..group-1``)
    draws the base stream's words *for UID p* and applies partner ``k``'s
    fixed reflection/rotation on hop steps ``1..depth``.  UIDs that are
    multiples of ``group`` (and all draws at step 0 or past ``depth``)
    pass through untransformed.

    The base provider must be counter-based — draws keyed by ``(uid,
    step, slot)``, not by consumption order — because partners re-read
    the primary's words.  Stateful providers (``MTWalkStreams``) would
    advance the primary's cursor and are rejected by config validation.
    """

    def __init__(self, base, group: int, depth: int = 1):
        if depth < 1:
            raise RNGError(f"depth must be >= 1, got {depth}")
        self.base = base
        self.group = int(group)
        self.depth = int(depth)
        self._reflect, self._offset = mirror_params(self.group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MirroredDraws({self.base!r}, group={self.group}, "
            f"depth={self.depth})"
        )

    def draws(
        self,
        uids: np.ndarray,
        step: int | np.ndarray,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms in [0, 1).

        Pure per-walk function of ``(uid, step, slot)`` exactly like the
        base stream — batching, ordering, and co-scheduling of primaries
        and partners are invisible to the values.  ``step`` may be a
        scalar or a per-walk array, as for the base stream.  A one-step
        :meth:`draws_span`.
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
        """Fused multi-step draws; plane ``k`` is bit-identical to
        ``draws(uids, steps + k, count)``.

        Delegates the Philox span to the base provider at the primary UIDs,
        then applies the partner transforms plane-wise: the transform mask
        is per ``(step offset, walk)``, so a span that straddles the
        mirrored depth (``steps + k`` crossing ``self.depth``) transforms
        exactly the in-range planes.  The engine's prefetch ring composes
        with antithetic sampling through this method.  Walks are processed
        in column tiles through the calling thread's fixed-size scratch.
        """
        check_span_args(depth, count)
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        if out is None:
            out = np.empty((depth, n, count), dtype=np.float64)
        steps_arr = np.asarray(steps, dtype=np.uint64)
        offsets = np.arange(depth, dtype=np.uint64)[:, None]
        group = np.uint64(self.group)
        tile = _SPAN_TILE // depth
        scratch = _thread_scratch()
        for a in range(0, n, tile):
            b = min(n, a + tile)
            m = b - a
            k = scratch.k[:m]
            primary = scratch.primary[:m]
            np.mod(uids[a:b], group, out=k)
            np.subtract(uids[a:b], k, out=primary)
            step_t = steps_arr if steps_arr.ndim == 0 else steps_arr[a:b]
            u = self.base.draws_span(primary, step_t, depth, count, out=out[:, a:b])
            size = depth * m
            transform = scratch.transform[:size].reshape(depth, m)
            # step_grid[k_off, i] = steps_i + k_off; broadcasting covers
            # both scalar and per-walk steps.
            step_grid = np.add(step_t, offsets)
            in_range = (step_grid >= np.uint64(1)) & (
                step_grid <= np.uint64(self.depth)
            )
            np.logical_and(k > 0, in_range, out=transform)
            if not transform.any():
                continue
            # Branchless whole-block transform: untransformed entries get
            # the exact identity (reflect 0, offset 0 — u*1+0 and
            # u-floor(u) are bit-exact for u in [0, 1)), so no fancy-index
            # write-back copy.  Slot 0 is the transition-cube cell
            # selection and transforms within its third (antipodal hop);
            # the remaining slots transform over the whole interval.
            reflect = scratch.reflect[:size].reshape(depth, m)
            offset = scratch.offset[:size].reshape(depth, m)
            kk = k.astype(np.intp)
            np.multiply(self._reflect[kk], transform, out=reflect)
            np.multiply(self._offset[kk], transform, out=offset)
            antipodal_uniform(u[:, :, :1], reflect[:, :, None], offset[:, :, None])
            if count > 1:
                mirror_uniform(u[:, :, 1:], reflect[:, :, None], offset[:, :, None])
        return out[:depth, :n, :count]

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path; bit-identical to :meth:`draws`."""
        uid = int(uid)
        k = uid % self.group
        values = self.base.draws_scalar(uid - k, step, count)
        if k == 0 or step < 1 or step > self.depth:
            return values
        arr = np.asarray(values, dtype=np.float64)
        r = np.float64(self._reflect[k])
        o = np.float64(self._offset[k])
        antipodal_uniform(arr[:1], r, o)
        if arr.shape[0] > 1:
            mirror_uniform(arr[1:], r, o)
        return [float(v) for v in arr]
