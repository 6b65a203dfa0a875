"""The memory tier: LRU semantics, hit accounting, maintenance."""

from repro.service import LRUCache, TieredStore
from repro.service.tiering import _MISSING
from repro.testbed import CampaignStore, PackedCampaignStore


def get_one(store, key: str, decode=lambda payload: payload):
    """``key``'s decoded payload, or None on a miss."""
    return store.get_many([key], decode).get(key)


def keys_in_shard(shard: str, n: int):
    return [shard + format(i, "02x") * 31 for i in range(n)]


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)  # evicts b, the stalest
        assert lru.get("b") is _MISSING
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert lru.evictions == 1

    def test_put_refreshes_recency(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # rewrite refreshes too
        lru.put("c", 3)  # evicts b
        assert lru.get("a") == 10
        assert lru.get("b") is _MISSING

    def test_capacity_bound_holds(self):
        lru = LRUCache(3)
        for i in range(50):
            lru.put(str(i), i)
        assert len(lru) == 3
        assert lru.evictions == 47

    def test_zero_capacity_never_stores(self):
        lru = LRUCache(0)
        lru.put("a", 1)
        assert len(lru) == 0
        assert lru.get("a") is _MISSING


class TestTieredReads:
    def test_memory_hit_skips_backing(self, tmp_path):
        backing = CampaignStore(tmp_path)
        tier = TieredStore(backing, capacity=8)
        key = "aa" * 32
        tier.put(key, {"v": 1})
        backing_hits = backing.metrics.hits
        assert get_one(tier, key, lambda p: p["v"]) == 1
        assert backing.metrics.hits == backing_hits  # served from memory
        assert tier.metrics.hits == 1

    def test_disk_hit_promotes_into_lru(self, tmp_path):
        backing = CampaignStore(tmp_path)
        key = "aa" * 32
        backing.put(key, {"v": 1})
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        assert get_one(tier, key, lambda p: p["v"]) == 1  # disk
        assert key in tier.lru
        assert get_one(tier, key, lambda p: p["v"]) == 1  # memory
        assert tier.lru.hits == 1

    def test_hits_decode_fresh_objects(self, tmp_path):
        """Caller-side mutation of a hit must not poison later hits."""
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        key = "aa" * 32
        tier.put(key, {"v": 1, "nested": {"deep": True}})
        first = get_one(tier, key)
        first["nested"]["deep"] = "mutated"
        second = get_one(tier, key)
        assert second["nested"]["deep"] is True

    def test_eviction_falls_back_to_disk(self, tmp_path):
        tier = TieredStore(CampaignStore(tmp_path), capacity=2)
        keys = keys_in_shard("aa", 5)
        for i, key in enumerate(keys):
            tier.put(key, {"v": i})
        assert len(tier.lru) == 2
        found = tier.get_many(keys, lambda p: p["v"])
        assert found == {key: i for i, key in enumerate(keys)}


class TestMaintenance:
    def test_gc_clears_memory_tier(self, tmp_path):
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        key = "aa" * 32
        tier.put(key, {"v": 1})
        tier.gc([])
        assert len(tier.lru) == 0
        assert get_one(tier, key) is None  # not resurrected
