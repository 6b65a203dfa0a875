"""Batch lookup (get_many) and the per-shard sidecar offset index."""

import json

from repro.clients import get_profile
from repro.experiments import Session
from repro.testbed import CampaignStore, TestRunner
from repro.testbed.config import SweepSpec, TestCaseConfig, TestCaseKind
from repro.testbed.store import decode_record


def small_runner(seed=5):
    case = TestCaseConfig(name="cad",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.fixed(0, 150, 400),
                          repetitions=2)
    return TestRunner([get_profile("curl", "7.88.1")], [case],
                      seed=seed)


def get_one(store, key, decode=decode_record):
    """``key``'s decoded payload, or None on a miss."""
    return store.get_many([key], decode).get(key)


def populate(tmp_path):
    """Cold-run a small campaign; returns its keys in order."""
    runner = small_runner()
    runner.run(Session(store=CampaignStore(tmp_path)))
    return list(runner.plan().keys())


def index_files(tmp_path):
    return sorted((tmp_path / ".index").glob("*.json"))


def record_line(key, payload):
    return (json.dumps({"complete": True, "format": 2, "key": key,
                        "payload": payload}, sort_keys=True)
            + "\n").encode("ascii")


class TestGetMany:
    def test_matches_per_key_lookup(self, tmp_path):
        keys = populate(tmp_path)
        batch = CampaignStore(tmp_path)
        perkey = CampaignStore(tmp_path)
        got_batch = batch.get_many(keys, decode_record)
        got_perkey = {key: get_one(perkey, key) for key in keys}
        assert got_batch == got_perkey
        assert set(got_batch) == set(keys)
        assert batch.stats.hits == len(keys)
        assert batch.stats.misses == 0
        assert perkey.stats.hits == len(keys)

    def test_absent_keys_count_as_misses(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        ghost = CampaignStore.key("never-stored")
        got = store.get_many(keys + [ghost], decode_record)
        assert ghost not in got
        assert store.stats.hits == len(keys)
        assert store.stats.misses == 1

    def test_empty_store_is_all_misses(self, tmp_path):
        store = CampaignStore(tmp_path / "empty")
        runner = small_runner()
        keys = list(runner.plan().keys())
        assert store.get_many(keys, decode_record) == {}
        assert store.stats.misses == len(keys)
        assert not index_files(tmp_path / "empty")


class TestSidecarIndex:
    def test_missing_index_is_rebuilt(self, tmp_path):
        keys = populate(tmp_path)
        assert not index_files(tmp_path)  # cold run built no index
        CampaignStore(tmp_path).get_many(keys, decode_record)
        built = index_files(tmp_path)
        assert built  # batch lookup persisted the sidecars
        # A later handle serves every hit from the fresh sidecars.
        warm = CampaignStore(tmp_path)
        assert set(warm.get_many(keys, decode_record)) == set(keys)
        assert warm.stats.hits == len(keys)
        assert warm.stats.misses == 0
        assert warm.index_rebuilds == 0

    def test_stale_index_is_ignored(self, tmp_path):
        """An index stamped with another generation than the shard's
        counter (the pack was rewritten since) is ignored: lookups
        rescan the pack."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)  # builds sidecars
        victim_key = keys[0]
        index_path = tmp_path / ".index" / f"{victim_key[:2]}.json"
        index = json.loads(index_path.read_text(encoding="utf-8"))
        # Tamper the indexed offsets *and* the stamp — the stale
        # sidecar must not be believed.
        index["offsets"][victim_key] = [0, 10]
        index["generation"] += 1
        index_path.write_text(json.dumps(index), encoding="utf-8")
        fresh = CampaignStore(tmp_path)
        assert fresh.get_many(keys, decode_record) == truth
        assert fresh.stats.invalid == 0

    def test_generation_survives_interleaved_writes(self, tmp_path):
        """The ROADMAP perf item: a handle that writes through the
        store keeps its index generation-consistent, so hot mixed
        read/write campaigns never rebuild the sidecar per batch."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)  # one build pass
        builds = store.index_rebuilds
        assert builds >= 1
        shard = keys[0][:2]
        extra = []
        for nibble in "0123456789abcdef":
            newcomer = shard + nibble * 62
            store.put(newcomer, get_one(store, keys[0], lambda p: p))
            extra.append(newcomer)
            got = store.get_many(keys + extra, decode_record)
            assert set(got) == set(keys + extra)
        # Every interleaved batch was served without a single rebuild.
        assert store.index_rebuilds == builds
        assert store.get_many(keys, decode_record) == truth
        # A later handle inherits the flushed, generation-stamped
        # sidecar: warm again, still no rebuild.
        fresh = CampaignStore(tmp_path)
        assert set(fresh.get_many(keys + extra, decode_record)) \
            == set(keys + extra)
        assert fresh.index_rebuilds == 0
        assert fresh.stats.misses == 0

    def test_out_of_band_deletion_invalidates_the_index(self, tmp_path):
        """A record cut out of its pack behind the store's back (manual
        pruning, partial sync) never bumps the generation — the
        stamped pack size must catch it, keeping a batch and a one-key
        lookup agreeing."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        store.get_many(keys, decode_record)  # builds sidecars
        pack = tmp_path / f"{keys[0][:2]}.pack"
        marker = f'"key": "{keys[0]}"'.encode("ascii")
        pack.write_bytes(b"".join(
            line for line in pack.read_bytes().splitlines(keepends=True)
            if marker not in line))
        fresh = CampaignStore(tmp_path)
        got = fresh.get_many(keys, decode_record)
        assert keys[0] not in got
        assert fresh.stats.misses == 1
        assert get_one(fresh, keys[0]) is None

    def test_out_of_band_addition_is_served(self, tmp_path):
        """A record appended without put() (another writer) still
        resolves — the scan resumes past the stamped pack size, never
        a false miss."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)  # builds sidecars
        newcomer = keys[0][:2] + "e" * 62
        with (tmp_path / f"{keys[0][:2]}.pack").open("ab") as handle:
            handle.write(record_line(newcomer,
                                     get_one(store, keys[0],
                                             lambda p: p)))
        fresh = CampaignStore(tmp_path)
        got = fresh.get_many(keys + [newcomer], decode_record)
        assert got[newcomer] == truth[keys[0]]
        assert fresh.stats.misses == 0

    def test_gc_bumps_generation_of_swept_shards(self, tmp_path):
        """An index built before a gc sweep — held by another handle —
        must not serve removed entries afterwards."""
        keys = populate(tmp_path)
        holder = CampaignStore(tmp_path)
        holder.get_many(keys, decode_record)  # builds + caches indexes
        CampaignStore(tmp_path).gc(keys[1:])  # evict exactly one entry
        got = holder.get_many(keys, decode_record)
        assert keys[0] not in got
        assert set(got) == set(keys[1:])

    def test_corrupt_index_falls_back_safely(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)
        for index_path in index_files(tmp_path):
            index_path.write_text("{ not json", encoding="utf-8")
        fresh = CampaignStore(tmp_path)
        assert fresh.get_many(keys, decode_record) == truth
        assert fresh.stats.hits == len(keys)
        assert fresh.stats.misses == 0

    def test_invalid_entry_excluded_from_index(self, tmp_path):
        """A corrupt record is counted truthfully once, then leaves
        the offset map — the next flushed sidecar no longer lists it."""
        keys = populate(tmp_path)
        pack = tmp_path / f"{keys[0][:2]}.pack"
        marker = f'"key": "{keys[0]}"'.encode("ascii")
        pack.write_bytes(b"".join(
            line[:120] + b"\n" if marker in line else line
            for line in pack.read_bytes().splitlines(keepends=True)))
        fresh = CampaignStore(tmp_path)
        got = fresh.get_many(keys, decode_record)
        assert keys[0] not in got
        assert fresh.stats.invalid == 1
        assert fresh.stats.misses == 1
        assert fresh.stats.hits == len(keys) - 1
        fresh.get_many(keys, decode_record)  # flushes the sidecar
        index = json.loads((tmp_path / ".index" / f"{keys[0][:2]}.json")
                           .read_text(encoding="utf-8"))
        assert keys[0] not in index["offsets"]

    def test_gc_sweeps_crashed_index_writer_droppings(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        store.get_many(keys, decode_record)  # builds sidecars
        orphan = tmp_path / ".index" / ".tmp-dead.json"
        orphan.write_text("{", encoding="utf-8")
        stats = store.gc(keys)
        assert stats.removed_tmp == 1
        assert not orphan.exists()

    def test_index_not_listed_as_entries(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        store.get_many(keys, decode_record)  # builds sidecars
        assert {key for key, _ in store.entries()} == set(keys)

    def test_gc_keeps_fresh_sidecars_when_nothing_removed(self,
                                                          tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        store.get_many(keys, decode_record)  # builds sidecars
        built = index_files(tmp_path)
        assert built
        stats = store.gc(keys)
        assert stats.removed == 0
        assert stats.kept == len(keys)
        assert stats.removed_index == 0
        assert index_files(tmp_path) == built  # still fresh, still warm
        warm = CampaignStore(tmp_path)
        assert set(warm.get_many(keys, decode_record)) == set(keys)
        assert warm.stats.misses == 0

    def test_gc_drops_sidecars_of_swept_shards(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        store.get_many(keys, decode_record)  # builds sidecars
        swept_shard = keys[0][:2]
        evicted = [key for key in keys if key[:2] == swept_shard]
        stats = store.gc([key for key in keys if key not in evicted])
        assert stats.removed == len(evicted)
        assert stats.removed_index >= 1
        assert not (tmp_path / f"{swept_shard}.pack").exists()
        assert not (tmp_path / ".index" / f"{swept_shard}.json").exists()
        # Surviving keys still resolve; the evicted ones are misses.
        warm = CampaignStore(tmp_path)
        got = warm.get_many(keys, decode_record)
        assert set(got) == set(keys) - set(evicted)
        assert warm.stats.misses == len(evicted)


class TestRunnerBatchPath:
    def test_serial_warm_stream_uses_batch_hits(self, tmp_path):
        cold = small_runner().run(Session(store=CampaignStore(tmp_path)))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner().run(Session(store=warm_store))
        assert warm == cold
        assert warm_store.stats.hits == len(cold)
        assert warm_store.stats.misses == 0
        assert index_files(tmp_path)  # the warm stream built sidecars

    def test_parallel_warm_stream_identical(self, tmp_path):
        cold = small_runner().run(Session(store=CampaignStore(tmp_path)))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner().run(Session(workers=2, store=warm_store))
        assert warm == cold
        assert warm_store.stats.hits == len(cold)
        assert warm_store.stats.misses == 0
