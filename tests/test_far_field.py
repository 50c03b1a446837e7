"""Golden bit-identity suite for the spatial far-field fast path.

The acceptance criterion of the fast path: capacitance rows extracted with
``far_field=True`` (and the tier-2 ``sort_queries``) are byte-equal to
``far_field=False`` rows on every reference case, every executor backend,
every worker count, and under concurrent in-process solves — the fast
path may only skip work whose result is provably the capped default,
never change a bit.  The open-field case
additionally asserts the tier-1 mask actually fired
(``QueryStats.far_field_hits > 0``), so the equality is not vacuous.
"""

import numpy as np
import pytest

from repro import Box, Conductor, DielectricStack, FRWConfig, FRWSolver, Structure

BASE = dict(
    seed=77,
    n_threads=4,
    batch_size=256,
    min_walks=512,
    max_walks=1024,
    tolerance=2e-2,
)

CASES = ["homogeneous", "stratified"]

#: ``("thread", n)`` runs ``n`` serial solves at once on their own threads.
BACKENDS = [
    ("serial", 1),
    ("thread", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 2),
    ("process", 4),
]


def _build_structure(case: str) -> Structure:
    if case == "homogeneous":
        # Open-field dominated: three thin wires in a roomy enclosure, so
        # most steps happen beyond h_cap of every conductor.
        wires = [
            Conductor.single(
                f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
            )
            for i in range(3)
        ]
        return Structure(
            wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
        )
    w1 = Conductor.single("w1", Box.from_bounds(0, 1, 0, 6, 0.5, 1.3))
    w2 = Conductor.single("w2", Box.from_bounds(2.5, 3.5, 0, 6, 3.0, 3.8))
    stack = DielectricStack(interfaces=(2.13,), eps=(3.9, 2.7))
    return Structure(
        [w1, w2],
        dielectric=stack,
        enclosure=Box.from_bounds(-4, 8, -4, 10, -3, 8),
    )


def _extract(case: str, **overrides):
    cfg = FRWConfig.frw_r(**{**BASE, **overrides})
    with FRWSolver(_build_structure(case), cfg) as solver:
        return solver.extract()


def _assert_rows_byte_equal(a, b):
    for ra, rb in zip(a.rows, b.rows):
        assert ra.values.tobytes() == rb.values.tobytes()
        assert ra.sigma2.tobytes() == rb.sigma2.tobytes()
        assert np.array_equal(ra.hits, rb.hits)
        assert ra.walks == rb.walks and ra.total_steps == rb.total_steps


@pytest.fixture(scope="module", params=CASES)
def reference(request):
    """Fast path fully off, serial: the pre-fast-path engine result."""
    case = request.param
    result = _extract(
        case,
        executor="serial",
        far_field=False,
        sort_queries=False,
    )
    return case, result


@pytest.mark.parametrize("backend,n_workers", BACKENDS)
def test_far_field_rows_byte_equal(reference, on_threads, backend, n_workers):
    case, ref = reference
    for tiers in (True, False):
        knobs = dict(far_field=tiers, sort_queries=tiers)
        if backend == "thread":
            results = on_threads(
                [lambda: _extract(case, executor="serial", **knobs)] * n_workers
            )
        else:
            results = [
                _extract(case, executor=backend, n_workers=n_workers, **knobs)
            ]
        for result in results:
            _assert_rows_byte_equal(result, ref)


@pytest.mark.parametrize("knobs", [
    dict(far_field=True, sort_queries=False),
    dict(far_field=False, sort_queries=True),
    dict(far_field=True, sort_queries=True, bounds_resolution=4),
])
def test_each_tier_alone_is_bit_identical(reference, knobs):
    case, ref = reference
    result = _extract(case, executor="serial", **knobs)
    _assert_rows_byte_equal(result, ref)


def test_far_field_hits_on_open_field_case():
    """The tier-1 mask fires on the open-field case (serial, where query
    stats accumulate in-process)."""
    result = _extract("homogeneous", executor="serial")
    qs = result.matrix.meta["schedule"]["query_stats"]
    assert qs is not None
    assert qs["far_field_hits"] > 0
    assert qs["near_points"] > 0  # near the wires the gather still runs
    assert qs["points"] == qs["far_field_hits"] + qs["near_points"]
    assert 0.0 < qs["far_field_rate"] < 1.0
    assert qs["candidates_pruned"] > 0
