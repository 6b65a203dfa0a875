"""Batch lookup (get_many) and the per-shard offset map each handle
builds from the packs."""

import json

from repro.clients import get_profile
from repro.experiments import Session
from repro.testbed import CampaignStore, TestRunner
from repro.testbed.config import SweepSpec, TestCaseConfig, TestCaseKind
from repro.testbed.store import STORE_FORMAT, decode_record


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


def tree(root):
    """Every path under ``root`` and each file's bytes."""
    return {str(path.relative_to(root)):
            path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def count_full_scans(monkeypatch):
    """Wrap ``CampaignStore._scan_pack``; the returned list grows by
    one for every scan from byte 0."""
    scan = CampaignStore._scan_pack
    full = []

    def counting(self, shard, state, start):
        if start == 0:
            full.append(shard)
        return scan(self, shard, state, start)

    monkeypatch.setattr(CampaignStore, "_scan_pack", counting)
    return full


def record_line(key, payload):
    return (json.dumps({"complete": True, "format": STORE_FORMAT,
                        "key": key, "payload": payload}, sort_keys=True)
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
        assert batch.metrics.hits == len(keys)
        assert batch.metrics.misses == 0
        assert perkey.metrics.hits == len(keys)

    def test_absent_keys_count_as_misses(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        ghost = CampaignStore.key("never-stored")
        got = store.get_many(keys + [ghost], decode_record)
        assert ghost not in got
        assert store.metrics.hits == len(keys)
        assert store.metrics.misses == 1

    def test_empty_store_is_all_misses(self, tmp_path):
        store = CampaignStore(tmp_path / "empty")
        runner = small_runner()
        keys = list(runner.plan().keys())
        assert store.get_many(keys, decode_record) == {}
        assert store.metrics.misses == len(keys)
        assert not (tmp_path / "empty").exists()


class TestOffsetMap:
    def test_reads_write_nothing(self, tmp_path):
        """A fresh handle's batch read and a warm campaign leave every
        file of the store as they found it: no index, no counter."""
        keys = populate(tmp_path)
        before = tree(tmp_path)
        fresh = CampaignStore(tmp_path)
        assert set(fresh.get_many(keys, decode_record)) == set(keys)
        warm_store = CampaignStore(tmp_path)
        small_runner().run(Session(store=warm_store))
        assert warm_store.metrics.misses == 0
        assert tree(tmp_path) == before

    def test_leftover_sidecar_is_never_read(self, tmp_path):
        """An offset sidecar an older version left behind, stamped with
        the shard's current generation and pointing a key at garbage,
        is ignored by reads; gc keeps the generation counter."""
        keys = populate(tmp_path)
        truth = CampaignStore(tmp_path).get_many(keys, decode_record)
        shard = keys[0][:2]
        pack = tmp_path / f"{shard}.pack"
        index_dir = tmp_path / ".index"
        index_dir.mkdir(exist_ok=True)
        (index_dir / f"{shard}.gen").write_text("1", encoding="ascii")
        sidecar = index_dir / f"{shard}.json"
        sidecar.write_text(json.dumps(
            {"index_format": 2, "store_format": 2, "layout": "packed",
             "generation": 1, "pack_size": pack.stat().st_size,
             "dead": 0, "offsets": {keys[0]: [0, 10]}},
            sort_keys=True), encoding="utf-8")
        fresh = CampaignStore(tmp_path)
        assert fresh.get_many(keys, decode_record) == truth
        assert fresh.metrics.invalid == 0
        assert {key for key, _ in fresh.entries()} == set(keys)
        stats = fresh.gc(keys)
        assert (stats.removed, stats.removed_tmp) == (0, 0)
        assert (index_dir / f"{shard}.gen").read_text() == "1"

    def test_generation_survives_interleaved_writes(self, tmp_path,
                                                    monkeypatch):
        """A handle that writes through the store keeps its offset map
        generation-consistent, so hot mixed read/write campaigns never
        rescan a pack from byte 0 after the first pass."""
        keys = populate(tmp_path)
        full_scans = count_full_scans(monkeypatch)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)  # one scan pass
        builds = len(full_scans)
        assert builds >= 1
        shard = keys[0][:2]
        extra = []
        for nibble in "0123456789abcdef":
            newcomer = shard + nibble * 62
            store.put(newcomer, get_one(store, keys[0], lambda p: p))
            extra.append(newcomer)
            got = store.get_many(keys + extra, decode_record)
            assert set(got) == set(keys + extra)
        # Every interleaved batch was served without a full rescan.
        assert len(full_scans) == builds
        assert store.get_many(keys, decode_record) == truth
        fresh = CampaignStore(tmp_path)
        assert set(fresh.get_many(keys + extra, decode_record)) \
            == set(keys + extra)
        assert fresh.metrics.misses == 0

    def test_out_of_band_deletion_invalidates_the_index(self, tmp_path):
        """A record cut out of its pack behind the store's back (manual
        pruning, partial sync) never bumps the generation — a pack
        shorter than the scanned frontier must force a rescan, keeping
        a batch and a one-key lookup agreeing."""
        keys = populate(tmp_path)
        holder = CampaignStore(tmp_path)
        holder.get_many(keys, decode_record)  # builds the offset maps
        pack = tmp_path / f"{keys[0][:2]}.pack"
        marker = f'"key": "{keys[0]}"'.encode("ascii")
        pack.write_bytes(b"".join(
            line for line in pack.read_bytes().splitlines(keepends=True)
            if marker not in line))
        for store in (holder, CampaignStore(tmp_path)):
            store.metrics.misses = 0
            got = store.get_many(keys, decode_record)
            assert keys[0] not in got
            assert store.metrics.misses == 1
            assert get_one(store, keys[0]) is None

    def test_out_of_band_addition_is_served(self, tmp_path):
        """A record appended without put() (another writer) still
        resolves — the holder's scan resumes from its old frontier,
        never a false miss."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)  # builds the maps
        newcomer = keys[0][:2] + "e" * 62
        with (tmp_path / f"{keys[0][:2]}.pack").open("ab") as handle:
            handle.write(record_line(newcomer,
                                     get_one(store, keys[0],
                                             lambda p: p)))
        for reader in (store, CampaignStore(tmp_path)):
            reader.metrics.misses = 0
            got = reader.get_many(keys + [newcomer], decode_record)
            assert got[newcomer] == truth[keys[0]]
            assert reader.metrics.misses == 0

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

    def test_warm_handle_scans_each_pack_once(self, tmp_path,
                                              monkeypatch):
        """A fresh handle scans every pack it touches from byte 0 once;
        later batches and listings reuse the map."""
        keys = populate(tmp_path)
        full_scans = count_full_scans(monkeypatch)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)
        assert sorted(full_scans) == sorted({key[:2] for key in keys})
        assert store.get_many(keys, decode_record) == truth
        assert {key for key, _ in store.entries()} == set(keys)
        assert sorted(full_scans) == sorted({key[:2] for key in keys})

    def test_missing_index_is_rebuilt(self, tmp_path):
        """Deleting ``.index/`` (its generation counters) loses nothing:
        a fresh handle rebuilds every offset map from the packs."""
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        truth = store.get_many(keys, decode_record)
        store.put(keys[0], truth_payload := get_one(store, keys[0],
                                                    lambda p: p))
        store.gc(keys)  # rewrites the superseded pack: writes a counter
        index_dir = tmp_path / ".index"
        assert list(index_dir.glob("*.gen"))
        for path in index_dir.iterdir():
            path.unlink()
        index_dir.rmdir()
        fresh = CampaignStore(tmp_path)
        assert fresh.get_many(keys, decode_record) == truth
        assert get_one(fresh, keys[0], lambda p: p) == truth_payload
        assert fresh.metrics.misses == 0
        assert fresh.metrics.invalid == 0

    def test_stale_index_is_ignored(self, tmp_path):
        """A pack rewritten to the same size behind a holder's back,
        with the generation bumped as every rewrite does, is rescanned:
        the holder's stale offsets are never believed."""
        keys = populate(tmp_path)
        holder = CampaignStore(tmp_path)
        shard = keys[0][:2]
        newcomer = shard + "e" * 62
        holder.put(newcomer, get_one(holder, keys[0], lambda p: p))
        keys = keys + [newcomer]
        truth = holder.get_many(keys, decode_record)
        pack = tmp_path / f"{shard}.pack"
        lines = pack.read_bytes().splitlines(keepends=True)
        pack.write_bytes(b"".join(reversed(lines)))
        index_dir = tmp_path / ".index"
        index_dir.mkdir(exist_ok=True)
        (index_dir / f"{shard}.gen").write_text("1", encoding="ascii")
        assert holder.get_many(keys, decode_record) == truth
        assert holder.metrics.invalid == 0
        assert not (tmp_path / ".quarantine").exists()

    def test_corrupt_index_falls_back_safely(self, tmp_path):
        """An unreadable generation counter and a garbage leftover
        sidecar cost nothing: the counter reads as generation 0 and
        the sidecar is never parsed."""
        keys = populate(tmp_path)
        holder = CampaignStore(tmp_path)
        truth = holder.get_many(keys, decode_record)
        index_dir = tmp_path / ".index"
        index_dir.mkdir(exist_ok=True)
        for shard in {key[:2] for key in keys}:
            (index_dir / f"{shard}.gen").write_text("not a number",
                                                    encoding="ascii")
            (index_dir / f"{shard}.json").write_text("{ not json",
                                                     encoding="utf-8")
        for store in (holder, CampaignStore(tmp_path)):
            store.metrics.hits = store.metrics.misses = 0
            assert store.get_many(keys, decode_record) == truth
            assert store.metrics.hits == len(keys)
            assert store.metrics.misses == 0
            assert store.metrics.invalid == 0

    def test_index_not_listed_as_entries(self, tmp_path):
        """Nothing in ``.index/`` (counters, leftover sidecars, temp
        files) is listed as an entry or a shard."""
        keys = populate(tmp_path)
        index_dir = tmp_path / ".index"
        index_dir.mkdir(exist_ok=True)
        shard = keys[0][:2]
        (index_dir / f"{shard}.gen").write_text("3", encoding="ascii")
        (index_dir / f"{shard}.json").write_text("{}", encoding="utf-8")
        (index_dir / ".tmp-dead.json").write_text("{", encoding="utf-8")
        store = CampaignStore(tmp_path)
        assert {key for key, _ in store.entries()} == set(keys)
        assert store.shards() == sorted({key[:2] for key in keys})

    def test_invalid_entry_excluded_from_index(self, tmp_path):
        """A corrupt record is counted truthfully once, then leaves
        the offset map — the next lookup is a plain miss."""
        keys = populate(tmp_path)
        pack = tmp_path / f"{keys[0][:2]}.pack"
        marker = f'"key": "{keys[0]}"'.encode("ascii")
        pack.write_bytes(b"".join(
            line[:120] + b"\n" if marker in line else line
            for line in pack.read_bytes().splitlines(keepends=True)))
        fresh = CampaignStore(tmp_path)
        got = fresh.get_many(keys, decode_record)
        assert keys[0] not in got
        assert fresh.metrics.invalid == 1
        assert fresh.metrics.misses == 1
        assert fresh.metrics.hits == len(keys) - 1
        assert keys[0] not in {key for key, _ in fresh.entries()}
        fresh.get_many(keys, decode_record)
        assert fresh.metrics.invalid == 1
        assert fresh.metrics.misses == 2

    def test_gc_sweeps_crashed_index_writer_droppings(self, tmp_path):
        keys = populate(tmp_path)
        store = CampaignStore(tmp_path)
        orphan = tmp_path / ".index" / ".tmp-dead.json"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_text("{", encoding="utf-8")
        stats = store.gc(keys)
        assert stats.removed_tmp == 1
        assert not orphan.exists()

    def test_gc_keeps_every_shard_counter(self, tmp_path):
        """A rewritten pack keeps its bumped counter, and so does a pack
        the sweep emptied: the pack goes, its generation stays."""
        keys = populate(tmp_path)
        swept_shard = keys[0][:2]
        evicted = [key for key in keys if key[:2] == swept_shard]
        rewritten = next(key for key in keys if key[:2] != swept_shard)
        store = CampaignStore(tmp_path)
        # A superseding write leaves dead bytes: gc rewrites that pack.
        store.put(rewritten, get_one(store, rewritten, lambda p: p))
        stats = store.gc([key for key in keys if key not in evicted])
        assert stats.removed == len(evicted)
        assert not (tmp_path / f"{swept_shard}.pack").exists()
        assert sorted(path.name for path in
                      (tmp_path / ".index").iterdir()) \
            == sorted([f"{rewritten[:2]}.gen", f"{swept_shard}.gen"])
        assert (tmp_path / ".index" / f"{swept_shard}.gen").read_text() \
            == "1"
        # Surviving keys still resolve; the evicted ones are misses.
        warm = CampaignStore(tmp_path)
        got = warm.get_many(keys, decode_record)
        assert set(got) == set(keys) - set(evicted)
        assert warm.metrics.misses == len(evicted)

    def test_holder_rescans_a_pack_recreated_after_gc(self, tmp_path):
        """A handle holds a shard's map; gc empties the shard and
        another handle appends a longer record to the recreated pack.
        The kept counter tells the holder its map is stale: it hits the
        new record and quarantines nothing."""
        old_key, new_key = "ab0" + "0" * 61, "ab1" + "1" * 61
        new_payload = {"value": 2, "padding": "x" * 64}
        CampaignStore(tmp_path).put(old_key, {"value": 1})
        holder = CampaignStore(tmp_path)
        assert get_one(holder, old_key, lambda p: p) == {"value": 1}
        CampaignStore(tmp_path).gc([])
        assert not (tmp_path / "ab.pack").exists()
        CampaignStore(tmp_path).put(new_key, new_payload)
        got = holder.get_many([old_key, new_key], lambda p: p)
        assert got == {new_key: new_payload}
        assert (holder.metrics.invalid, holder.metrics.quarantined) == (0, 0)
        assert not (tmp_path / ".quarantine").exists()


class TestRunnerBatchPath:
    def test_serial_warm_stream_uses_batch_hits(self, tmp_path):
        cold = small_runner().run(Session(store=CampaignStore(tmp_path)))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner().run(Session(store=warm_store))
        assert warm == cold
        assert warm_store.metrics.hits == len(cold)
        assert warm_store.metrics.misses == 0

    def test_parallel_warm_stream_identical(self, tmp_path):
        cold = small_runner().run(Session(store=CampaignStore(tmp_path)))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner().run(Session(workers=2, store=warm_store))
        assert warm == cold
        assert warm_store.metrics.hits == len(cold)
        assert warm_store.metrics.misses == 0
