"""Tests for the memoized extraction service (repro.service).

Covers the bounded caches, the priority scheduler, the traffic generator,
the HTTP front door, and the headline guarantee: a cache hit replays rows
byte-identical to a cold solve, under every executor backend and process
start method.
"""

import json
import threading

import numpy as np
import pytest

from repro import Box, Conductor, FRWConfig, Structure
from repro.errors import ConfigError
from repro.frw import shm
from repro.frw.context import SharedAssets
from repro.frw.scheduler import allocate_quota, backlog_weights
from repro.frw.solver import FRWSolver
from repro.geometry import structure_to_dict
from repro.service import (
    ExtractionService,
    LRUCache,
    ServiceClient,
    ServiceSettings,
    TrafficGenerator,
    canonical_hash,
    canonicalize,
    permute_structure,
    run_server,
    translate_structure,
)
from repro.structures import parallel_wires

BASE_CONFIG = {
    "seed": 3,
    "max_walks": 256,
    "min_walks": 128,
    "batch_size": 128,
    "tolerance": 0.5,
    "n_threads": 2,
}


def small_structure(n_wires: int = 2) -> Structure:
    return parallel_wires(
        n_wires=n_wires, width=0.5, spacing=0.5, thickness=0.5, length=4.0
    )


def request_for(structure, priority="interactive", masters=None, config=None):
    payload = {
        "structure": structure_to_dict(structure),
        "config": dict(config if config is not None else BASE_CONFIG),
        "priority": priority,
    }
    if masters is not None:
        payload["masters"] = masters
    return payload


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------

class TestLRUCache:
    def test_bound_and_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_counters_and_hit_rate(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_get_or_create(self):
        cache = LRUCache(max_entries=4)
        calls = []
        assert cache.get_or_create("k", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_create("k", lambda: calls.append(1) or 8) == 7
        assert len(calls) == 1

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


# ----------------------------------------------------------------------
# SharedAssets LRU bounds (satellite of the service work)
# ----------------------------------------------------------------------

class TestSharedAssetsBounds:
    def test_invalid_bounds(self):
        structure = small_structure()
        with pytest.raises(ValueError):
            SharedAssets(structure, max_indexes=0)
        with pytest.raises(ValueError):
            SharedAssets(structure, max_tables=0)

    def test_index_eviction_and_revival(self):
        structure = small_structure()
        assets = SharedAssets(structure, max_indexes=1)
        assets.index(0.5)
        assets.index(0.25)  # evicts the 0.5 entry
        assets.index(0.5)  # rebuilt, evicting 0.25
        stats = assets.stats()
        assert stats["index_builds"] == 3
        assert stats["index_evictions"] == 2
        assert stats["index_live"] == 1
        assert stats["max_indexes"] == 1

    def test_table_eviction_and_hits(self):
        structure = small_structure()
        assets = SharedAssets(structure, max_tables=1)
        t1 = assets.table(8)
        assert assets.table(8) is t1
        assets.table(16)
        rebuilt = assets.table(8)
        stats = assets.stats()
        assert stats["table_hits"] == 1
        assert stats["table_evictions"] == 2
        # Revival is bit-identical: pure function of the resolution.
        assert np.array_equal(rebuilt.prob, t1.prob)
        assert np.array_equal(rebuilt.cdf, t1.cdf)

    def test_eviction_is_bit_invisible_to_rows(self):
        """Rows with a thrashing 1-entry asset cache == rows with defaults."""
        structure = small_structure()
        config = FRWConfig(**BASE_CONFIG)
        solver_a = FRWSolver(structure, config)
        ref = solver_a.extract([0, 1])
        solver_a.close()
        tight = SharedAssets(structure, max_indexes=1, max_tables=1)
        solver_b = FRWSolver(structure, config, assets=tight)
        got = solver_b.extract([0, 1])
        solver_b.close()
        for a, b in zip(ref.rows, got.rows):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.sigma2, b.sigma2)
            assert np.array_equal(a.hits, b.hits)

    def test_counters_flow_into_result_meta(self):
        structure = small_structure()
        solver = FRWSolver(structure, FRWConfig(**BASE_CONFIG))
        result = solver.extract([0, 1])
        solver.close()
        cache_meta = result.matrix.meta["schedule"]["asset_cache"]
        for key in (
            "index_builds",
            "index_hits",
            "index_evictions",
            "max_indexes",
            "table_builds",
            "table_hits",
            "table_evictions",
            "max_tables",
        ):
            assert key in cache_meta
        assert cache_meta["index_builds"] == 1
        assert cache_meta["index_evictions"] == 0


# ----------------------------------------------------------------------
# Priority scheduling
# ----------------------------------------------------------------------

class TestPriorityScheduling:
    def test_backlog_weights(self):
        weights = backlog_weights(np.array([2.0, 8.0]), np.array([4.0, 1.0]))
        assert weights.tolist() == [8.0, 8.0]
        assert backlog_weights(np.array([-1.0, 3.0])).tolist() == [0.0, 3.0]

    def test_quota_reserves_interactive_slot(self):
        service = ExtractionService(ServiceSettings(slots=1))
        try:
            # A deep bulk queue cannot buy the only slot away from a
            # non-empty interactive queue.
            quota = service._quota((1, 1000))
            assert quota[0] >= 1
        finally:
            service.close()

    def test_pick_class_prefers_interactive(self):
        service = ExtractionService(ServiceSettings(slots=1))
        service.close()  # workers gone; scheduling logic is still testable
        service._queues["interactive"].append("i")
        service._queues["bulk"].extend(["b"] * 50)
        assert service._pick_class() == "interactive"
        service._queues["interactive"].clear()
        assert service._pick_class() == "bulk"
        service._queues["bulk"].clear()
        assert service._pick_class() is None

    def test_multi_slot_quota_serves_both_classes(self):
        service = ExtractionService(ServiceSettings(slots=4))
        try:
            quota = service._quota((10, 10))
            assert quota.sum() <= 4 + 1  # forced interactive floor at most
            assert quota[0] >= 1 and quota[1] >= 1
        finally:
            service.close()

    def test_interactive_overtakes_queued_bulk(self):
        """With one slot, an interactive request jumps the bulk backlog."""
        service = ExtractionService(ServiceSettings(slots=1))
        try:
            done = []
            futures = []
            for k in range(3):
                payload = request_for(
                    small_structure(), priority="bulk", config={
                        **BASE_CONFIG, "seed": 10 + k,
                    },
                )
                fut = service.submit(payload)
                fut.add_done_callback(
                    lambda _f, k=k: done.append(f"bulk{k}")
                )
                futures.append(fut)
            interactive = service.submit(
                request_for(
                    small_structure(3),
                    priority="interactive",
                    config={**BASE_CONFIG, "seed": 20},
                )
            )
            interactive.add_done_callback(lambda _f: done.append("interactive"))
            futures.append(interactive)
            for fut in futures:
                fut.result(timeout=300)
            # bulk0 may already be running when the interactive request
            # lands, but the interactive one must not wait behind the
            # whole bulk queue.
            assert done.index("interactive") <= 1, done
        finally:
            service.close()


# ----------------------------------------------------------------------
# Memoization semantics
# ----------------------------------------------------------------------

class TestMemoization:
    def test_full_hit_replays_identical_rows(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            payload = request_for(small_structure())
            cold = service.submit(payload).result(timeout=300)
            warm = service.submit(payload).result(timeout=30)
            assert not cold["cached"] and warm["cached"]
            assert json.dumps(cold["rows"]) == json.dumps(warm["rows"])
            assert service.full_hits == 1 and service.solves == 1

    def test_disguised_duplicate_hits_and_relabels(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            cold = service.submit(request_for(structure)).result(timeout=300)
            disguised = permute_structure(
                translate_structure(structure, (2.0, -1.5, 0.25)),
                [1, 0],
                ["other", "names"],
            )
            warm = service.submit(request_for(disguised)).result(timeout=30)
            assert warm["cached"]
            assert warm["canonical_hash"] == cold["canonical_hash"]
            # Request master 0 of the disguise is master 1 of the original;
            # its columns come back permuted to the disguise's enumeration.
            v_cold = cold["rows"][1]["values"]
            assert warm["rows"][0]["values"] == [v_cold[1], v_cold[0], v_cold[2]]
            assert warm["rows"][0]["name"] == "other"

    def test_partial_hit_solves_only_missing_masters(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            first = service.submit(
                request_for(structure, masters=[0])
            ).result(timeout=300)
            both = service.submit(
                request_for(structure, masters=[0, 1])
            ).result(timeout=300)
            assert not both["cached"]  # master 1 had to be solved
            assert both["rows"][0]["values"] == first["rows"][0]["values"]
            # Row 0 was not recomputed: two solve passes total.
            assert service.solves == 2

    def test_result_eviction_recomputes_identically(self):
        settings = ServiceSettings(slots=1, result_cache_entries=2)
        with ExtractionService(settings) as service:
            structure = small_structure()
            cold = service.submit(request_for(structure)).result(timeout=300)
            # Two rows fill the cache; a different net evicts them.
            other = parallel_wires(
                n_wires=2, width=0.75, spacing=0.75, thickness=0.5, length=4.0
            )
            service.submit(request_for(other)).result(timeout=300)
            assert service.results.evictions >= 2
            again = service.submit(request_for(structure)).result(timeout=300)
            assert not again["cached"]  # evicted, recomputed...
            assert json.dumps(again["rows"]) == json.dumps(cold["rows"])

    def test_different_seed_misses(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            a = service.submit(request_for(structure)).result(timeout=300)
            b = service.submit(
                request_for(structure, config={**BASE_CONFIG, "seed": 4})
            ).result(timeout=300)
            assert not b["cached"]
            assert a["canonical_hash"] != b["canonical_hash"]

    def test_request_validation(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            with pytest.raises(ConfigError):
                service.submit({"config": {}})
            structure = structure_to_dict(small_structure())
            with pytest.raises(ConfigError):
                service.submit(
                    {"structure": structure, "config": {"nope": 1}}
                )
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "masters": [0, 0]})
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "masters": [9]})
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "priority": "vip"})

    def test_submit_after_close_raises(self):
        service = ExtractionService(ServiceSettings(slots=1))
        service.close()
        with pytest.raises(ConfigError):
            service.submit(request_for(small_structure()))


# ----------------------------------------------------------------------
# Golden byte-identity: cache hit == cold solve, across engines
# ----------------------------------------------------------------------

ENGINE_MATRIX = [
    {"executor": "serial", "n_workers": 1},
    {"executor": "process", "n_workers": 2, "mp_start_method": "forkserver"},
    {"executor": "process", "n_workers": 2, "mp_start_method": "fork"},
    {"executor": "process", "n_workers": 2, "mp_start_method": "spawn"},
]


@pytest.mark.parametrize(
    "engine", ENGINE_MATRIX, ids=lambda e: "-".join(str(v) for v in e.values())
)
def test_golden_cache_hit_matches_cold_across_engines(engine):
    """The headline guarantee, certified per engine: a warm hit replays
    rows byte-identical to that engine's cold solve, and every engine's
    rows are byte-identical to the serial reference — which is what makes
    one cache entry valid for all engines."""
    structure = small_structure()
    payload = request_for(structure)
    with ExtractionService(ServiceSettings(slots=1)) as reference:
        ref_rows = json.dumps(
            reference.submit(payload).result(timeout=300)["rows"]
        )
    with ExtractionService(ServiceSettings(slots=1, **engine)) as service:
        cold = service.submit(payload).result(timeout=600)
        warm = service.submit(payload).result(timeout=30)
        assert not cold["cached"] and warm["cached"]
        assert json.dumps(cold["rows"]) == ref_rows
        assert json.dumps(warm["rows"]) == ref_rows
    assert shm.published_blocks() == []


# ----------------------------------------------------------------------
# Traffic generator
# ----------------------------------------------------------------------

class TestTraffic:
    def test_deterministic_stream(self):
        a = TrafficGenerator(seed=5).requests(20)
        b = TrafficGenerator(seed=5).requests(20)
        assert a == b
        c = TrafficGenerator(seed=6).requests(20)
        assert a != c

    def test_duplicate_rate_and_mix(self):
        gen = TrafficGenerator(
            seed=1, duplicate_rate=0.5, interactive_fraction=0.75
        )
        batch = gen.requests(200)
        dups = sum(meta["duplicate"] for _p, meta in batch)
        interactive = sum(
            p["priority"] == "interactive" for p, _m in batch
        )
        assert 0.35 <= dups / len(batch) <= 0.65
        assert 0.6 <= interactive / len(batch) <= 0.9

    def test_zero_duplicate_rate(self):
        gen = TrafficGenerator(seed=2, duplicate_rate=0.0)
        assert not any(m["duplicate"] for _p, m in gen.requests(30))

    def test_duplicates_collide_only_through_canonicalization(self):
        gen = TrafficGenerator(seed=3, duplicate_rate=0.9)
        batch = gen.requests(40)
        seen: dict[int, tuple] = {}
        checked = 0
        for payload, meta in batch:
            from repro.geometry import structure_from_dict

            structure = structure_from_dict(payload["structure"])
            config = FRWConfig(**payload["config"])
            digest = canonical_hash(structure, config)
            if meta["duplicate"]:
                orig_payload, orig_digest = seen[meta["unique_index"]]
                assert digest == orig_digest
                # ... but the request bytes differ (disguise worked).
                assert payload["structure"] != orig_payload["structure"]
                checked += 1
            else:
                seen[meta["unique_index"]] = (payload, digest)
        assert checked > 5

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            TrafficGenerator(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            TrafficGenerator(interactive_fraction=-0.1)


# ----------------------------------------------------------------------
# HTTP front door
# ----------------------------------------------------------------------

@pytest.fixture
def live_server():
    """A real server on an ephemeral port, in a background thread."""
    ready = threading.Event()
    bound = {}

    def _ready(port):
        bound["port"] = port
        ready.set()

    settings = ServiceSettings(port=0, slots=1)
    thread = threading.Thread(
        target=run_server, args=(settings,), kwargs={"ready": _ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    client = ServiceClient(port=bound["port"])
    yield client
    client.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestHTTP:
    def test_end_to_end(self, live_server):
        client = live_server
        assert client.health()["ok"] is True
        structure = small_structure()
        cold = client.extract(structure, BASE_CONFIG)
        warm = client.extract(structure, BASE_CONFIG)
        assert not cold["cached"] and warm["cached"]
        assert json.dumps(cold["rows"]) == json.dumps(warm["rows"])
        stats = client.stats()
        assert stats["full_hits"] == 1
        assert stats["result_cache"]["hits"] >= 2

    def test_wire_level_byte_identity(self, live_server):
        client = live_server
        structure = small_structure(3)
        _s1, b1 = client.extract_raw(structure, BASE_CONFIG)
        _s2, b2 = client.extract_raw(structure, BASE_CONFIG)
        rows1 = json.loads(b1)["rows"]
        rows2 = json.loads(b2)["rows"]
        enc = json.dumps(rows1, sort_keys=True, separators=(",", ":"))
        assert enc == json.dumps(rows2, sort_keys=True, separators=(",", ":"))
        # The full bodies differ only in the "cached" flag.
        assert b1.replace(b'"cached":false', b'"cached":true') == b2

    def test_http_errors(self, live_server):
        client = live_server
        status, body = client._request("GET", "/missing")
        assert status == 404
        status, body = client._request(
            "POST", "/extract", {"structure": {"conductors": []}}
        )
        assert status == 400
        assert b"error" in body
