"""The memory tier: LRU semantics, hit accounting, row entries,
maintenance."""

import dataclasses
import gc
import json

import pytest

from repro.service import LRUCache, TieredStore
from repro.service.tiering import _MISSING
from repro.simnet.addr import Family
from repro.testbed import CampaignStore, RunRecord, TestCaseKind
from repro.testbed.store import STORE_FORMAT, decode_record, encode_record

#: A record row's positions, by field name.
FIELD = {field.name: at
         for at, field in enumerate(dataclasses.fields(RunRecord))}


def get_one(store, key: str, decode=decode_record):
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


def record(value_ms: int = 150) -> RunRecord:
    """A completed two-attempt record: a row with a nested list."""
    return RunRecord(
        case="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
        client="curl 7.88.1", value_ms=value_ms, repetition=0,
        completed=True, winning_family=Family.V4, cad_s=0.25,
        time_to_first_attempt_s=0.001,
        attempts=[(0.001, Family.V6), (0.251, Family.V4)],
        attempts_v4=1, attempts_v6=1, duration_s=0.3)


def assert_mutation_stays_local(tier, key: str) -> None:
    first = get_one(tier, key)
    first.attempts.append((9.0, Family.V6))
    first.attempts[0] = (5.0, Family.V4)
    first.cad_s = -1.0
    second = get_one(tier, key)
    assert second == record()
    assert second.attempts is not first.attempts


class TestTieredReads:
    def test_memory_hit_skips_backing(self, tmp_path):
        backing = CampaignStore(tmp_path)
        tier = TieredStore(backing, capacity=8)
        key = "aa" * 32
        tier.put(key, encode_record(record()))
        backing_hits = backing.metrics.hits
        assert get_one(tier, key) == record()
        assert backing.metrics.hits == backing_hits  # served from memory
        assert tier.metrics.hits == 1

    def test_disk_hit_promotes_into_lru(self, tmp_path):
        backing = CampaignStore(tmp_path)
        key = "aa" * 32
        backing.put(key, encode_record(record()))
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        assert get_one(tier, key) == record()  # disk
        assert key in tier.lru
        assert get_one(tier, key) == record()  # memory
        assert tier.lru.hits == 1

    def test_hits_decode_fresh_objects(self, tmp_path):
        """Caller-side mutation of a hit must not poison later hits."""
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        key = "aa" * 32
        tier.put(key, encode_record(record()))
        assert_mutation_stays_local(tier, key)

    def test_promoted_hits_decode_fresh_objects(self, tmp_path):
        """The same for a row the LRU took from a disk hit."""
        key = "aa" * 32
        CampaignStore(tmp_path).put(key, encode_record(record()))
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        assert_mutation_stays_local(tier, key)

    def test_eviction_falls_back_to_disk(self, tmp_path):
        tier = TieredStore(CampaignStore(tmp_path), capacity=2)
        keys = keys_in_shard("aa", 5)
        for i, key in enumerate(keys):
            tier.put(key, encode_record(record(i)))
        assert len(tier.lru) == 2
        found = tier.get_many(keys, decode_record)
        assert found == {key: record(i) for i, key in enumerate(keys)}


class TestRowEntries:
    """The LRU keeps each payload as an immutable row."""

    def test_entries_are_untracked_tuples(self, tmp_path):
        """Rows from puts and from disk hits alike: tuples of scalars,
        which the cyclic collector stops tracking.  A full collection
        visits a reachable tuple before the tuples inside it, so each
        pass untracks one nesting level: three for a record's row
        (row, ``attempts``, one attempt)."""
        keys = keys_in_shard("aa", 6)
        for i, key in enumerate(keys[3:]):
            CampaignStore(tmp_path).put(key, encode_record(record(i)))
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        for i, key in enumerate(keys[:3]):
            tier.put(key, encode_record(record(i)))
        tier.get_many(keys, decode_record)
        rows = [tier.lru.get(key) for key in keys]
        for _ in range(3):
            gc.collect()
        for row in rows:
            assert type(row) is tuple and type(row[FIELD["attempts"]]) \
                is tuple
            assert not gc.is_tracked(row)

    def test_object_payload_is_refused_before_the_disk_write(self,
                                                              tmp_path):
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        with pytest.raises(TypeError):
            tier.put("aa" * 32, {"v": 1})
        assert not list(tmp_path.glob("*.pack"))
        assert tier.metrics.stores == 0


@pytest.mark.parametrize("payload", [{"case": "x"}, ["cad", "cad"]],
                         ids=["object", "short-row"])
@pytest.mark.parametrize("tiered", [False, True], ids=["bare", "tiered"])
def test_undecodable_payload_is_quarantined(tmp_path, payload, tiered):
    """A well-formed envelope whose payload does not decode reads as an
    invalid miss and is quarantined, through the tier as on a bare
    store."""
    key = "ab" * 32
    line = json.dumps({"complete": True, "format": STORE_FORMAT,
                       "key": key, "payload": payload}, sort_keys=True)
    (tmp_path / "ab.pack").write_text(line + "\n")
    backing = CampaignStore(tmp_path)
    store = TieredStore(backing) if tiered else backing
    assert store.get_many([key], decode_record) == {}
    assert (backing.metrics.hits, backing.metrics.misses,
            backing.metrics.invalid, backing.metrics.quarantined) \
        == (0, 1, 1, 1)
    assert (store.metrics.hits, store.metrics.misses) == (0, 1)
    assert key not in store.lru if tiered else True
    moved = tmp_path / ".quarantine" / "ab" / f"{key}.json"
    assert moved.read_text() == line + "\n"


class TestMaintenance:
    def test_gc_clears_memory_tier(self, tmp_path):
        tier = TieredStore(CampaignStore(tmp_path), capacity=8)
        key = "aa" * 32
        tier.put(key, encode_record(record()))
        tier.gc([])
        assert len(tier.lru) == 0
        assert get_one(tier, key) is None  # not resurrected
