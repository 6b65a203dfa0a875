"""The packed per-shard store: round-trip, torn tails, gc, foreign
appends, concurrent writers."""

import json
import multiprocessing
import os
import time

import pytest

from repro.clients import get_profile
from repro.experiments import Session
from repro.testbed import (CampaignStore, PackedCampaignStore, SweepSpec,
                          TestCaseConfig, TestCaseKind, TestRunner,
                          open_store)
from repro.testbed.store import STORE_FORMAT, decode_record, encode_record


def small_runner(seed: int = 5, **knobs) -> TestRunner:
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[TestCaseConfig(
            name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
            sweep=SweepSpec.fixed(0, 150, 310), repetitions=2)],
        seed=seed, **knobs)


def get_one(store, key: str, decode=lambda payload: payload):
    """``key``'s decoded payload, or None on a miss."""
    return store.get_many([key], decode).get(key)


def indexed(store) -> set:
    """Every key the handle's offset maps hold (no record is read)."""
    return {key for key, _ in store.entries()}


def reclaimable(store) -> int:
    """Dead bytes a compaction would drop while keeping every indexed
    entry: superseded, quarantined and healed-torn lines."""
    return store.gc(indexed(store), dry_run=True).reclaimed_bytes


class TestPackedRoundTrip:
    def test_record_lines_are_canonical_json(self, tmp_path):
        """The persistence format: one ``json.dumps(sort_keys=True)``
        line per record, and it decodes to the executed record."""
        store = CampaignStore(tmp_path)
        cold = small_runner().run(Session(store=store))
        lines = {}
        for pack in tmp_path.glob("*.pack"):
            for line in pack.read_bytes().splitlines(keepends=True):
                lines[json.loads(line)["key"]] = line
        by_key = dict(zip(small_runner().plan().keys(), cold))
        assert set(lines) == set(by_key)
        for key, record in by_key.items():
            assert lines[key] == (json.dumps(
                {"complete": True, "format": STORE_FORMAT, "key": key,
                 "payload": encode_record(record)}, sort_keys=True)
                + "\n").encode("ascii")
            assert get_one(CampaignStore(tmp_path), key,
                           decode_record) == record

    def test_many_entries_per_shard_few_files(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        small_runner().run(Session(store=store))
        entries = sum(1 for _ in store.entries())
        packs = list(tmp_path.glob("*.pack"))
        assert entries > 0
        assert packs  # packed layout: *.pack files at the root
        assert not [p for p in tmp_path.iterdir()
                    if p.is_dir() and len(p.name) == 2]

    def test_fresh_handle_warm_reads(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        small_runner().run(Session(store=store))
        keys = [key for key, _ in store.entries()]
        warm = PackedCampaignStore(tmp_path)
        found = warm.get_many(keys, decode_record)
        assert set(found) == set(keys)
        assert warm.stats.hits == len(keys)

    def test_supersede_last_write_wins(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        key = "ab" * 32
        store.put(key, {"v": 1})
        store.put(key, {"v": 2})
        assert get_one(store, key, lambda p: p["v"]) == 2
        # A fresh handle scanning the pack agrees (last occurrence wins).
        assert get_one(PackedCampaignStore(tmp_path), key,
                       lambda p: p["v"]) == 2
        assert reclaimable(store) > 0

    def test_open_store_has_one_layout(self, tmp_path):
        assert PackedCampaignStore is CampaignStore
        CampaignStore(tmp_path).put("cd" * 32, {"v": 1})
        for layout in ("auto", "packed"):
            opened = open_store(tmp_path, layout=layout)
            assert type(opened) is CampaignStore
            assert get_one(opened, "cd" * 32, lambda p: p["v"]) == 1
        for layout in ("file", "bogus"):
            with pytest.raises(ValueError):
                open_store(tmp_path, layout=layout)


class TestTornTail:
    def test_torn_tail_is_invisible_and_healed(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        k1, k2, k3 = "ee" * 32, "ee" + "01" * 31, "ee" + "02" * 31
        store.put(k1, {"v": 1})
        pack = tmp_path / "ee.pack"
        # Simulate a crash mid-append: valid line + truncated tail,
        # no trailing newline.
        torn = json.dumps({"key": k2, "v": 2}, sort_keys=True)[:20]
        with pack.open("ab") as fh:
            fh.write(torn.encode("ascii"))
        fresh = PackedCampaignStore(tmp_path)
        assert get_one(fresh, k1, lambda p: p["v"]) == 1
        assert get_one(fresh, k2) is None  # torn line never indexed
        # The next append heals the tail: both old and new survive a rescan.
        fresh.put(k3, {"v": 3})
        rescan = PackedCampaignStore(tmp_path)
        assert get_one(rescan, k1, lambda p: p["v"]) == 1
        assert get_one(rescan, k3, lambda p: p["v"]) == 3

    def test_unterminated_final_line_not_indexed(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        key = "ff" * 32
        line = json.dumps({"complete": True, "format": 2, "key": key,
                           "payload": {}}, sort_keys=True)
        (tmp_path / "ff.pack").write_bytes(line.encode("ascii"))
        assert get_one(store, key) is None


class TestQuarantine:
    def test_invalid_entry_quarantined_not_served(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        key = "aa" * 32
        # A complete line whose record is invalid (complete: false).
        line = json.dumps({"complete": False, "format": 2, "key": key,
                           "payload": {"v": 1}}, sort_keys=True) + "\n"
        (tmp_path / "aa.pack").write_bytes(line.encode("ascii"))
        assert get_one(store, key) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 1
        quarantined = list((tmp_path / ".quarantine").rglob("*.json"))
        assert len(quarantined) == 1
        assert json.loads(quarantined[0].read_text())["key"] == key
        # Quarantined bytes are dead; the slot is gone from the index.
        assert reclaimable(store) == len(line.encode("ascii"))
        assert key not in indexed(store)


class TestPackedGC:
    def test_gc_keeps_live_drops_dead(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        small_runner().run(Session(store=store))
        keys = sorted(key for key, _ in store.entries())
        live, dead = keys[: len(keys) // 2], keys[len(keys) // 2:]
        stats = store.gc(live)
        assert stats.removed == len(dead)
        assert stats.kept == len(live)
        assert indexed(PackedCampaignStore(tmp_path)) == set(live)

    def test_gc_drops_empty_packs(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        store.put("ab" * 32, {"v": 1})
        store.gc([])
        assert not list(tmp_path.glob("*.pack"))

    def test_gc_dry_run_reports_without_rewriting(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        small_runner().run(Session(store=store))
        keys = sorted(key for key, _ in store.entries())
        live, dead = keys[: len(keys) // 2], keys[len(keys) // 2:]
        pack_bytes = {p.name: p.read_bytes()
                      for p in tmp_path.glob("*.pack")}
        dry = store.gc(live, dry_run=True)
        # No pack was rewritten or unlinked: bytes are untouched and
        # every entry (live and dead) still resolves.
        assert {p.name: p.read_bytes()
                for p in tmp_path.glob("*.pack")} == pack_bytes
        fresh = PackedCampaignStore(tmp_path)
        assert len(fresh.get_many(keys, decode_record)) == len(keys)
        # Accounting matches the later real sweep: a rewrite emits
        # exactly the live slices, so the dry-run estimate covers the
        # pack bytes exactly; generation counters of packs the real
        # sweep *empties* are a few extra real-only bytes.
        real = store.gc(live)
        assert (dry.kept, dry.kept_bytes) == (real.kept, real.kept_bytes)
        assert dry.removed == real.removed == len(dead)
        assert 0 < dry.reclaimed_bytes <= real.reclaimed_bytes
        assert indexed(PackedCampaignStore(tmp_path)) == set(live)


class TestPackedScan:
    def test_foreign_write_forces_rescan(self, tmp_path):
        store = PackedCampaignStore(tmp_path)
        key1, key2 = "ab" * 32, "ab" + "11" * 31
        store.put(key1, {"v": 1})
        # Another process appends behind this handle's back.
        line = json.dumps({"complete": True, "format": 2, "key": key2,
                           "payload": {"v": 2}}, sort_keys=True) + "\n"
        with (tmp_path / "ab.pack").open("ab") as fh:
            fh.write(line.encode("ascii"))
        fresh = PackedCampaignStore(tmp_path)
        assert get_one(fresh, key2, lambda p: p["v"]) == 2


def _payload(writer: str, key: str, version: int) -> dict:
    """A record-sized payload; the final version is writer-independent,
    as a content-addressed key's payload is."""
    if version < 0:
        return {"key": key, "final": True, "pad": "x" * 600}
    return {"key": key, "by": writer, "version": version, "pad": "y" * 600}


def _append_worker(root, writer, own, shared, start, versions):
    start.wait(60)
    store = CampaignStore(root)
    for version in [*range(versions), -1]:
        for key in own + shared:
            store.put(key, _payload(writer, key, version))
            time.sleep(0.0002)  # let the other writer interleave
    # The writer's own map, built from offsets read back from its
    # descriptor, resolves every key only it writes.
    got = store.get_many(own, lambda p: p)
    assert got == {key: _payload(writer, key, -1) for key in own}
    assert store.stats.invalid == 0


class TestConcurrentWriters:
    """Cross-process appends into the same packs: every record lands at
    the offset its writer read back, and torn or foreign bytes between
    one handle's writes are healed, never glued onto a record."""

    SHARDS = ("aa", "ab", "ac")

    def keys(self, tag: str, count: int):
        return [shard + tag + format(i, "02x") * 30 + "0"
                for shard in self.SHARDS for i in range(count)]

    def test_two_processes_disjoint_and_overlapping_keys(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(3)  # both writers and this test
        shared = self.keys("0", 6)
        own = {"a": self.keys("a", 12), "b": self.keys("b", 12)}
        writers = [context.Process(target=_append_worker, args=(
            tmp_path, writer, own[writer], shared, start, 3))
            for writer in own]
        for process in writers:
            process.start()
        start.wait(60)
        for process in writers:
            process.join(60)
            assert process.exitcode == 0
        everything = shared + own["a"] + own["b"]
        fresh = CampaignStore(tmp_path)
        got = fresh.get_many(everything, lambda p: p)
        assert got == {key: _payload("", key, -1) for key in everything}
        assert fresh.stats.invalid == fresh.stats.quarantined == 0
        assert not (tmp_path / ".quarantine").exists()

    def test_foreign_fragment_between_puts_is_healed(self, tmp_path):
        store = CampaignStore(tmp_path)
        first, second = "aa" + "01" * 31, "aa" + "02" * 31
        store.put(first, {"v": 1})
        with (tmp_path / "aa.pack").open("ab") as handle:
            handle.write(b'{"complete": tru')  # a writer died mid-append
        store.put(second, {"v": 2})
        lines = (tmp_path / "aa.pack").read_bytes().splitlines()
        assert lines[1] == b'{"complete": tru'  # one dead, healed line
        for handle in (store, CampaignStore(tmp_path)):
            assert get_one(handle, first, lambda p: p["v"]) == 1
            assert get_one(handle, second, lambda p: p["v"]) == 2
            assert handle.stats.invalid == 0
        fresh = CampaignStore(tmp_path)
        assert {key for key, _ in fresh.entries()} == {first, second}
        assert reclaimable(fresh) == len(b'{"complete": tru\n')

    def test_record_offset_is_read_back_not_assumed(self, tmp_path,
                                                    monkeypatch):
        """Another writer appends between a put's size probe and its
        write: the record still lands at the offset its descriptor
        reports, and the foreign record is indexed too."""
        store = CampaignStore(tmp_path)
        first, second, foreign = ["aa" + tag * 62 for tag in "123"]
        store.put(first, {"v": 1})
        foreign_line = (json.dumps(
            {"complete": True, "format": STORE_FORMAT, "key": foreign,
             "payload": {"v": 3}}, sort_keys=True) + "\n").encode("ascii")
        real_fstat = os.fstat

        def racing_fstat(fd):
            probed = real_fstat(fd)
            with (tmp_path / "aa.pack").open("ab") as handle:
                handle.write(foreign_line)
            return probed

        monkeypatch.setattr(os, "fstat", racing_fstat)
        store.put(second, {"v": 2})
        monkeypatch.undo()
        for handle in (store, CampaignStore(tmp_path)):
            got = handle.get_many([first, second, foreign],
                                  lambda p: p["v"])
            assert got == {first: 1, second: 2, foreign: 3}
            assert handle.stats.invalid == 0
