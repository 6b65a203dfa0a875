"""The incremental campaign store: identity, invalidation, fallback."""

import builtins
import collections
import dataclasses
import enum
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.clients import get_profile
from repro.clients.registry import all_profiles
from repro.conformance.scenarios import (hev3_battery, scenario_battery,
                                         sortlist_battery, svcb_battery)
from repro.seeding import stable_run_seed
from repro.simnet.addr import Family
from repro.testbed import (CampaignStore, ResultSet, SweepSpec,
                           TestCaseConfig, TestCaseKind, TestRunner,
                           run_campaign_spec, spec_keys)
from repro.testbed.store import (STORE_FORMAT, canonical, config_digest,
                                 decode_record, encode_record)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def small_runner(seed: int = 5, store: CampaignStore = None,
                 **knobs) -> TestRunner:
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[TestCaseConfig(
            name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
            sweep=SweepSpec.fixed(0, 150, 310), repetitions=2)],
        seed=seed, store=store, **knobs)


def pack_paths(store: CampaignStore):
    return sorted(store.root.glob("*.pack"))


def first_key(root) -> str:
    """The first key of the store at ``root``, in shard then key order."""
    return next(CampaignStore(root).entries())[0]


def tamper(root, key: str, transform) -> bytes:
    """Rewrite ``key``'s record line in its pack in place, as bit rot or
    a buggy foreign writer would; returns the new line (newline
    excluded).  ``transform`` maps the old line to the new one."""
    pack = pathlib.Path(root) / f"{key[:2]}.pack"
    lines = pack.read_bytes().split(b"\n")
    marker = f'"key": "{key}"'.encode("ascii")
    [index] = [i for i, line in enumerate(lines) if marker in line]
    lines[index] = transform(lines[index])
    pack.write_bytes(b"\n".join(lines))
    return lines[index]


def edit_entry(mutate):
    """A :func:`tamper` transform that edits the decoded record."""
    def transform(line: bytes) -> bytes:
        data = json.loads(line)
        mutate(data)
        return json.dumps(data, sort_keys=True).encode("ascii")
    return transform


def truncate(line: bytes) -> bytes:
    """Torn JSON that still names its key, so it stays indexed."""
    return line[:120]


class TestCanonicalDigest:
    def test_dataclass_fields_all_contribute(self):
        case = TestCaseConfig(name="x",
                              kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                              sweep=SweepSpec.fixed(0))
        rendered = canonical(case)
        for field in dataclasses.fields(case):
            assert field.name in rendered

    def test_type_tagged_primitives(self):
        # "1" and 1 must not collide, exactly like stable_run_seed.
        assert config_digest(1) != config_digest("1")
        assert config_digest(1.0) != config_digest(1)

    def test_enum_and_container_forms(self):
        assert "TestCaseKind.RESOLUTION_DELAY" in canonical(
            TestCaseKind.RESOLUTION_DELAY)
        assert canonical((1, 2)) == canonical([1, 2])
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


def reference_canonical(obj):
    """The recursive ``isinstance`` ladder ``canonical`` was first
    written as, kept verbatim: the type-dispatched version must render
    every value exactly as this did (sets aside — see below)."""
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={reference_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical(item)
                              for item in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((reference_canonical(k), reference_canonical(v))
                       for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return f"{type(obj).__name__}:{obj!r}"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2
    BOTTOM = 1  # an alias renders under its canonical member's name


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class Base:
    a: int
    kind: TestCaseKind = TestCaseKind.CONNECTION_ATTEMPT_DELAY


@dataclasses.dataclass(frozen=True)
class Child(Base):
    b: str = "child"
    nested: tuple = ()


class PlainChild(Base):
    """A non-dataclass subclass still renders its inherited fields."""


@dataclasses.dataclass
class TaggedList(list):
    """A dataclass that is also a list renders as a dataclass."""

    tag: str = "t"


EDGE_CASES = [
    True, 1, False, 0, [True, 1, 1.0, "1"], {1: "int", "1": "str"},
    Level.LOW, Level.HIGH, Level.BOTTOM, [Level.LOW, 1],
    Point(1, 2), [Point(x=Point(0, 0), y=[Point(3, 4)])],
    Base(1), Child(2, nested=(Child(3),)), PlainChild(4), TaggedList(),
    TestCaseConfig, TestCaseKind, Family, Base, int, [TestCaseKind, Level],
    {"a": {1: [2.0, None], "1": (True,)}, 2: {}, (1, "x"): "tuple key",
     None: {False: Level.HIGH}},
    -0.0, 0.0, float("nan"), float("inf"), float("-inf"), [1e-300, 1e300],
    None, "", "quote'd \"s\"", b"bytes", 10 ** 30, (), [], {},
]


class TestCanonicalMatchesReference:
    @pytest.mark.parametrize("value", EDGE_CASES, ids=repr)
    def test_edge_cases(self, value):
        assert canonical(value) == reference_canonical(value)

    def test_every_registered_profile(self):
        profiles = all_profiles()
        assert profiles
        for profile in profiles:
            assert canonical(profile) == reference_canonical(profile)

    def test_every_battery_case(self):
        scenarios = (scenario_battery() + hev3_battery() + svcb_battery()
                     + sortlist_battery())
        assert scenarios
        for scenario in scenarios:
            assert (canonical(scenario.case)
                    == reference_canonical(scenario.case)), scenario.name
            assert canonical(scenario) == reference_canonical(scenario)


class TestCanonicalSets:
    """Sets render sorted by element: their ``repr`` order follows
    string hashes, which ``PYTHONHASHSEED`` salts per interpreter."""

    def test_order_independent_and_distinct_from_lists(self):
        assert canonical({"b", "a"}) == canonical({"a", "b"})
        assert canonical(frozenset({2, 1})) == "frozenset{int:1,int:2}"
        assert canonical({"a", "b"}) != canonical(["a", "b"])
        assert canonical({"a"}) != canonical(frozenset({"a"}))
        assert canonical(set()) != canonical([])

    def test_identical_across_hash_seeds(self):
        script = ("from repro.testbed.store import canonical\n"
                  "words = frozenset('abcdefghijklmnopqrstuvwxyz')\n"
                  "print(canonical({'key': words}))\n"
                  "print(repr(words))\n")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC),
                       PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  check=True)
            outputs.append(done.stdout.splitlines())
        (canonical_1, repr_1), (canonical_2, repr_2) = outputs
        assert repr_1 != repr_2  # the hazard is real under these seeds
        assert canonical_1 == canonical_2


class TestKeyDerivation:
    """``spec_keys`` derives every run key from per-pair state; it must
    equal the generic formula key by key."""

    def test_spec_keys_match_generic_formula(self):
        runner = small_runner(seed=9)
        runner.cases.append(dataclasses.replace(
            runner.cases[0], name="rd", kind=TestCaseKind.RESOLUTION_DELAY))
        specs = runner.enumerate_specs()
        expected = []
        for spec in specs:
            case = runner.cases[spec.case_index]
            profile = runner.clients[spec.client_index]
            run_seed = stable_run_seed(runner.seed, case.name,
                                       profile.full_name, spec.value_ms,
                                       spec.repetition)
            assert runner.run_seed_for(case, profile, spec.value_ms,
                                       spec.repetition) == run_seed
            expected.append(CampaignStore.key(
                run_seed, runner.config_digest_for(case, profile),
                spec.value_ms, spec.repetition))
            assert runner.store_key_for(case, profile, spec.value_ms,
                                        spec.repetition) == expected[-1]
        assert spec_keys(runner, specs) == expected

    def test_keyer_matches_key(self):
        behaviour = Child(5, nested=(Base(6),))
        key = CampaignStore.keyer("prefix", behaviour)
        rest = (123, "digest", 150, 0)
        assert (key(*map(canonical, rest))
                == CampaignStore.key("prefix", behaviour, *rest))
        assert CampaignStore.keyer()(canonical(7)) == CampaignStore.key(7)


class TestRecordRoundTrip:
    def test_encode_decode_identity(self):
        runner = small_runner()
        record = runner.run_single(runner.cases[0], runner.clients[0], 310)
        assert decode_record(encode_record(record)) == record

    def test_json_round_trip_identity(self):
        """The on-disk representation: through actual JSON text."""
        runner = small_runner()
        for client in runner.clients:
            record = runner.run_single(runner.cases[0], client, 150)
            via_json = decode_record(
                json.loads(json.dumps(encode_record(record))))
            assert via_json == record


class TestWarmCampaigns:
    def test_second_run_all_hits_and_identical(self, tmp_path):
        cold_store = CampaignStore(tmp_path)
        cold = small_runner(store=cold_store).run()
        assert cold_store.stats.hits == 0
        assert cold_store.stats.misses == len(cold)
        assert cold_store.stats.stores == len(cold)

        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm_store.stats.hits == len(warm)
        assert warm_store.stats.misses == 0
        assert warm.records == cold.records

    def test_cached_equals_uncached(self, tmp_path):
        fresh = small_runner().run()
        store = CampaignStore(tmp_path)
        small_runner(store=store).run()
        cached = small_runner(store=CampaignStore(tmp_path)).run()
        assert cached.records == fresh.records

    def test_parallel_warm_run_identical_and_poolless(self, tmp_path):
        store = CampaignStore(tmp_path)
        cold = small_runner(store=store).run(workers=2)
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run(workers=2)
        assert warm.records == cold.records
        assert warm_store.stats.hits == len(cold)
        assert warm_store.stats.misses == 0

    @pytest.mark.parametrize("workers", [None, 2])
    def test_repeated_key_warm_run_identical(self, tmp_path, workers):
        """A client listed twice repeats every key: the warm run pops
        each hit once and executes the repeats, in order."""
        def runner(store):
            twice = small_runner(store=store)
            twice.clients = [twice.clients[1], twice.clients[1]]
            return twice

        cold = runner(CampaignStore(tmp_path)).run()
        warm = runner(CampaignStore(tmp_path)).run(workers=workers)
        assert len(cold.records) == 12
        assert warm.records == cold.records

    def test_serial_cold_parallel_warm_identity(self, tmp_path):
        store = CampaignStore(tmp_path)
        cold = small_runner(store=store).run()
        warm = small_runner(store=CampaignStore(tmp_path)).run(workers=2)
        assert warm.records == cold.records

    def test_spec_cache_dir_stanza(self, tmp_path):
        spec = {
            "seed": 3,
            "cache_dir": str(tmp_path),
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad", "sweep": {"values": [0, 150, 310]}}],
        }
        first = run_campaign_spec(spec)
        second = run_campaign_spec(spec)
        assert first.records == second.records
        assert pack_paths(CampaignStore(tmp_path))  # populated on disk


class TestStoreGC:
    def populate(self, tmp_path):
        store = CampaignStore(tmp_path)
        runner = small_runner(store=store)
        runner.run()
        return store, set(runner.store_keys())

    def test_gc_keeps_live_and_drops_stale(self, tmp_path):
        store, live = self.populate(tmp_path)
        stale_keys = [CampaignStore.key("stale", index)
                      for index in range(3)]
        for key in stale_keys:
            store.put(key, {"orphaned": True})
        stats = store.gc(live)
        assert stats.removed == 3
        assert stats.kept == len(live)
        assert stats.reclaimed_bytes > 0
        remaining = {key for key, _ in store.entries()}
        assert remaining == live

    def test_gc_everything_when_nothing_is_live(self, tmp_path):
        store, live = self.populate(tmp_path)
        stats = store.gc([])
        assert stats.removed == len(live)
        assert stats.kept == 0
        assert list(store.entries()) == []
        # Emptied packs (and their generation counters) are pruned.
        assert not list(store.root.iterdir())

    def test_gc_sweeps_stale_tmp_files(self, tmp_path):
        store, live = self.populate(tmp_path)
        (store.root / ".tmp-crashed.pack").write_text("torn")
        stats = store.gc(live)
        assert stats.removed_tmp == 1
        assert not list(store.root.glob(".tmp-*"))

    def test_gc_survivors_still_hit(self, tmp_path):
        store, live = self.populate(tmp_path)
        store.gc(live)
        warm = small_runner(store=CampaignStore(tmp_path))
        warm.run()
        assert warm.store.stats.misses == 0

    def test_gc_on_missing_root_is_a_noop(self, tmp_path):
        store = CampaignStore(tmp_path / "never-created")
        stats = store.gc(["anything"])
        assert stats.removed == 0 and stats.kept == 0

    def test_gc_dry_run_reports_without_deleting(self, tmp_path):
        store, live = self.populate(tmp_path)
        stale_keys = [CampaignStore.key("stale", index)
                      for index in range(3)]
        for key in stale_keys:
            store.put(key, {"orphaned": True})
        (store.root / ".tmp-crashed.pack").write_text("torn")
        before = {key for key, _ in store.entries()}
        dry = store.gc(live, dry_run=True)
        # Nothing was touched: every entry (and the tmp dropping)
        # survives, and live keys still resolve from disk.
        assert {key for key, _ in store.entries()} == before
        assert list(store.root.glob(".tmp-*"))
        fresh = CampaignStore(tmp_path)
        assert all(fresh.has(key) for key in live)
        # The accounting matches the later real sweep.
        real = store.gc(live)
        assert (dry.kept, dry.kept_bytes) == (real.kept, real.kept_bytes)
        assert dry.removed == real.removed == 3
        assert dry.removed_tmp == real.removed_tmp == 1
        assert dry.reclaimed_bytes > 0
        assert {key for key, _ in store.entries()} == live

    def test_runner_store_keys_match_executed_entries(self, tmp_path):
        store, live = self.populate(tmp_path)
        assert {key for key, _ in store.entries()} == live


class TestCacheInvalidation:
    def cold_keys(self, tmp_path, **overrides):
        """Store keys a campaign with ``overrides`` would use."""
        runner = small_runner(store=CampaignStore(tmp_path), **overrides)
        case, profile = runner.cases[0], runner.clients[0]
        return runner.store_key_for(case, profile, 150, 0)

    def test_case_field_change_misses(self, tmp_path):
        from repro.testbed import ImpairmentSpec
        from repro.simnet.addr import Family

        store = CampaignStore(tmp_path)
        runner = small_runner(store=store)
        base_case, profile = runner.cases[0], runner.clients[0]
        base_key = runner.store_key_for(base_case, profile, 150, 0)
        for changed in (
                dataclasses.replace(base_case, name="other"),
                dataclasses.replace(base_case, run_timeout=10.0),
                dataclasses.replace(base_case, addresses_per_family=2),
                dataclasses.replace(base_case,
                                    kind=TestCaseKind.RESOLUTION_DELAY),
                dataclasses.replace(base_case, impairments=(
                    ImpairmentSpec(family=Family.V6, loss=0.1),)),
        ):
            assert runner.store_key_for(changed, profile, 150, 0) != \
                base_key, changed

    def test_sweep_and_repetitions_are_campaign_shape(self, tmp_path):
        """A run's key depends on its own coordinates, never on which
        other sweep values or how many repetitions share the campaign
        — that reuse is what makes coarse→fine refinement nearly free
        on a warm cache."""
        store = CampaignStore(tmp_path)
        runner = small_runner(store=store)
        base_case, profile = runner.cases[0], runner.clients[0]
        base_key = runner.store_key_for(base_case, profile, 150, 0)
        for same in (
                dataclasses.replace(base_case,
                                    sweep=SweepSpec.fixed(0, 150, 311)),
                dataclasses.replace(base_case,
                                    sweep=SweepSpec.range(100, 200, 5)),
                dataclasses.replace(base_case, repetitions=3),
        ):
            assert runner.store_key_for(same, profile, 150, 0) == \
                base_key, same

    def test_coarse_results_reused_by_fine_sweep(self, tmp_path):
        """The fine pass executes only the values the coarse pass did
        not already cache (store counters prove the overlap hits)."""
        coarse = small_runner(store=CampaignStore(tmp_path))
        coarse.cases = [dataclasses.replace(
            coarse.cases[0], sweep=SweepSpec.fixed(0, 150, 310))]
        coarse.run()
        fine = small_runner(store=CampaignStore(tmp_path))
        fine.cases = [dataclasses.replace(
            fine.cases[0], sweep=SweepSpec.fixed(0, 100, 150, 200, 310))]
        fine_results = fine.run()
        # 2 clients × 2 reps: {0, 150, 310} replay from the coarse
        # pass, only {100, 200} execute fresh.
        assert fine.store.stats.hits == 12
        assert fine.store.stats.misses == 8
        assert sorted({r.value_ms for r in fine_results.records}) == \
            [0, 100, 150, 200, 310]

    def test_profile_field_change_misses(self, tmp_path):
        store = CampaignStore(tmp_path)
        runner = small_runner(store=store)
        case, base_profile = runner.cases[0], runner.clients[0]
        base_key = runner.store_key_for(case, base_profile, 150, 0)
        changed_profiles = [
            dataclasses.replace(base_profile, version="131.0"),
            dataclasses.replace(base_profile, os_hint="Windows"),
            dataclasses.replace(base_profile, outlier_probability=0.5),
            base_profile.with_stack(base_profile.stack.with_racing(
                connection_attempt_delay=0.123)),
            base_profile.with_stack(base_profile.stack.with_sorting(
                sortlist="rfc3484")),
        ]
        for changed in changed_profiles:
            assert runner.store_key_for(case, changed, 150, 0) != \
                base_key, changed

    def test_runner_knob_change_misses(self, tmp_path):
        base = self.cold_keys(tmp_path)
        assert self.cold_keys(tmp_path, resolver_timeout=2.0) != base
        assert self.cold_keys(tmp_path, hev3_flag=True) != base
        assert self.cold_keys(tmp_path, seed=6) != base

    def test_coordinates_distinguish_entries(self, tmp_path):
        runner = small_runner(store=CampaignStore(tmp_path))
        case, profile = runner.cases[0], runner.clients[0]
        keys = {runner.store_key_for(case, profile, value, repetition)
                for value in (0, 150, 310) for repetition in (0, 1)}
        assert len(keys) == 6

    def test_behavior_version_change_misses(self, tmp_path, monkeypatch):
        """A package upgrade may change simulator behavior: the cache
        must miss rather than replay the old model's results."""
        import repro.testbed.store as store_module

        warmed = CampaignStore(tmp_path)
        small_runner(store=warmed).run()
        monkeypatch.setattr(store_module, "BEHAVIOR_VERSION", "999.0.0")
        upgraded = CampaignStore(tmp_path)
        small_runner(store=upgraded).run()
        assert upgraded.stats.hits == 0
        assert upgraded.stats.misses > 0

    def test_changed_config_re_executes(self, tmp_path):
        """End to end: a warm cache is useless for a changed campaign."""
        small_runner(store=CampaignStore(tmp_path)).run()
        changed_store = CampaignStore(tmp_path)
        small_runner(store=changed_store, resolver_timeout=2.0).run()
        assert changed_store.stats.hits == 0
        assert changed_store.stats.misses > 0


class TestCorruptEntries:
    def populate(self, tmp_path) -> ResultSet:
        return small_runner(store=CampaignStore(tmp_path)).run()

    def test_corrupted_entry_falls_back_to_fresh(self, tmp_path):
        cold = self.populate(tmp_path)
        tamper(tmp_path, first_key(tmp_path), truncate)
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm.records == cold.records
        assert warm_store.stats.invalid == 1
        assert warm_store.stats.misses == 1
        assert warm_store.stats.hits == len(cold) - 1
        # The corrupted entry was rewritten by the fresh execution.
        repaired = CampaignStore(tmp_path)
        small_runner(store=repaired).run()
        assert repaired.stats.hits == len(cold)

    def test_corrupted_entry_parallel_inline_repair(self, tmp_path):
        """The parallel planner sees the indexed record and plans a
        hit; the read discovers the corruption and repairs inline."""
        cold = self.populate(tmp_path)
        tamper(tmp_path, first_key(tmp_path), truncate)
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run(workers=2)
        assert warm.records == cold.records
        assert warm_store.stats.invalid == 1
        repaired = CampaignStore(tmp_path)
        small_runner(store=repaired).run(workers=2)
        assert repaired.stats.hits == len(cold)

    def test_partial_entry_falls_back_to_fresh(self, tmp_path):
        """An entry without the completeness marker is a miss."""
        cold = self.populate(tmp_path)
        tamper(tmp_path, first_key(tmp_path),
               edit_entry(lambda data: data.pop("complete")))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm.records == cold.records
        assert warm_store.stats.invalid == 1

    def test_format_version_mismatch_is_invalid(self, tmp_path):
        cold = self.populate(tmp_path)
        tamper(tmp_path, first_key(tmp_path), edit_entry(
            lambda data: data.update(format=STORE_FORMAT + 1)))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm.records == cold.records
        assert warm_store.stats.invalid == 1

    def test_undecodable_payload_is_invalid(self, tmp_path):
        cold = self.populate(tmp_path)
        tamper(tmp_path, first_key(tmp_path), edit_entry(
            lambda data: data["payload"].update(winning_family="V9")))
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm.records == cold.records
        assert warm_store.stats.invalid == 1


class TestQuarantine:
    """Content-invalid records are copied aside, not just skipped:
    the evidence survives for postmortems and the bad record can never
    shadow its repaired replacement."""

    def populate(self, tmp_path) -> ResultSet:
        return small_runner(store=CampaignStore(tmp_path)).run()

    def corrupt_one(self, tmp_path) -> "tuple[str, bytes]":
        key = first_key(tmp_path)
        return key, tamper(tmp_path, key, truncate)

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cold = self.populate(tmp_path)
        key, bad = self.corrupt_one(tmp_path)
        warm_store = CampaignStore(tmp_path)
        warm = small_runner(store=warm_store).run()
        assert warm.records == cold.records
        assert warm_store.stats.quarantined == 1
        assert warm_store.stats.invalid == 1
        moved = tmp_path / ".quarantine" / key[:2] / f"{key}.json"
        assert moved.is_file()
        assert moved.read_bytes() == bad + b"\n"
        # The re-execution appended a fresh record: pure hits next.
        repaired = CampaignStore(tmp_path)
        small_runner(store=repaired).run()
        assert repaired.stats.hits == len(cold)
        assert repaired.stats.quarantined == 0

    def test_unreadable_entry_is_not_quarantined(self, tmp_path,
                                                 monkeypatch):
        """A transient read error (permissions, NFS hiccup) proves
        nothing about the records' content — leave them in place."""
        cold = self.populate(tmp_path)
        keys = [key for key, _ in CampaignStore(tmp_path).entries()]
        store = CampaignStore(tmp_path)
        assert store.has(keys[0])  # offsets indexed while readable
        victim = store._pack_path(keys[0][:2])
        original = builtins.open

        def flaky(file, *args, **kwargs):
            if os.fspath(file) == victim:
                raise OSError("injected transient read error")
            return original(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky)
        got = store.get_many(keys, decode_record)
        monkeypatch.undo()
        unreadable = [key for key in keys if key[:2] == keys[0][:2]]
        assert set(got) == set(keys) - set(unreadable)
        assert store.stats.invalid == len(unreadable)
        assert store.stats.quarantined == 0
        assert not (tmp_path / ".quarantine").exists()
        # Readable again: every record is still there.
        warm = CampaignStore(tmp_path).get_many(keys, decode_record)
        assert sorted(warm.values(), key=repr) == sorted(cold.records,
                                                         key=repr)

    def test_gc_leaves_quarantine_intact(self, tmp_path):
        self.populate(tmp_path)
        key, _ = self.corrupt_one(tmp_path)
        warm_store = CampaignStore(tmp_path)
        small_runner(store=warm_store).run()
        moved = tmp_path / ".quarantine" / key[:2] / f"{key}.json"
        assert moved.is_file()
        gc_store = CampaignStore(tmp_path)
        stats = gc_store.gc(live_keys=[])  # collect *everything* live
        assert stats.removed > 0
        assert moved.is_file()  # ... except the quarantined evidence
        assert list(gc_store.entries()) == []

    def test_quarantined_entries_never_enumerate(self, tmp_path):
        cold = self.populate(tmp_path)
        self.corrupt_one(tmp_path)
        warm_store = CampaignStore(tmp_path)
        small_runner(store=warm_store).run()
        assert len(list(warm_store.entries())) == len(cold)


class TestExecutorEdges:
    def test_workers_exceed_spec_count(self):
        runner = TestRunner(
            clients=[get_profile("curl", "7.88.1")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(0, 310))],
            seed=4)
        serial = runner.run()
        wide = runner.run(workers=16)
        assert wide.records == serial.records

    def test_workers_exceed_spec_count_with_store(self, tmp_path):
        runner = TestRunner(
            clients=[get_profile("curl", "7.88.1")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(0))],
            seed=4, store=CampaignStore(tmp_path))
        first = runner.run(workers=8)
        second = runner.run(workers=8)
        assert first.records == second.records
