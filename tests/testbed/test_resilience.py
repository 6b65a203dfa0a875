"""The fault-tolerant campaign runtime.

The headline invariant, asserted for every fault kind: under any
seeded fault plan, a campaign with retries enabled produces records
**byte-identical** to the fault-free run — chaos may cost time, never
correctness.  Around it: the crash-safe journal and ``--resume``,
graceful degradation past the retry budget, the per-entry watchdog,
and the shared-pool recovery seams.
"""

import dataclasses

import pytest

from repro.clients import get_profile
from repro.experiments import Session
from repro.faults import FaultKind, FaultPlan
from repro.fanout import shared_pool, shutdown_shared_pool
from repro.seeding import backoff_jitter
from repro.testbed import (CampaignJournal, CampaignStore, CampaignSpec,
                           Resilience, RetryPolicy, SweepSpec,
                           TestCaseConfig, TestCaseKind, TestRunner,
                           cad_case, is_harness_failure, run_campaign_spec)
from repro.testbed.store import decode_record

#: Backoff tuned for tests: correctness is identical, sleeps are not.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def chaos_runner(seed=5, values=(0, 80, 160, 240, 320)):
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[dataclasses.replace(cad_case(),
                                   sweep=SweepSpec.fixed(*values))],
        seed=seed)


def campaign_coords(runner):
    return [(case.name, profile.full_name, value_ms, repetition)
            for case in runner.cases
            for profile in runner.clients
            for value_ms in case.sweep
            for repetition in range(case.repetitions)]


@pytest.fixture(scope="module")
def clean_records():
    return list(chaos_runner().stream())


class TestBackoffJitter:
    def test_deterministic(self):
        assert backoff_jitter(7, 3) == backoff_jitter(7, 3)

    def test_within_half_open_window(self):
        for attempt in range(6):
            window = min(2.0, 0.05 * (2 ** attempt))
            delay = backoff_jitter(1, attempt)
            assert window / 2 <= delay < window

    def test_exponential_until_cap(self):
        # Window doubles per attempt, so the lower bound of attempt
        # n+1 equals the upper bound of attempt n: monotone growth.
        assert backoff_jitter(1, 0) < backoff_jitter(1, 2)
        assert backoff_jitter(1, 20) < 2.0  # capped

    def test_seed_varies_jitter(self):
        draws = {backoff_jitter(seed, 2) for seed in range(16)}
        assert len(draws) > 8

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_jitter(1, -1)


class TestCampaignJournal:
    def test_roundtrip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j" / "campaign.log")
        keys = {"ab" * 32, "cd" * 32, "ef" * 32}
        for key in sorted(keys):
            journal.record(key)
        journal.close()
        assert CampaignJournal(journal.path).load() == keys

    def test_torn_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "campaign.log"
        path.write_text(("ab" * 32) + "\n" + ("cd" * 16))  # kill mid-write
        assert CampaignJournal(path).load() == {"ab" * 32}

    def test_garbage_lines_are_ignored(self, tmp_path):
        path = tmp_path / "campaign.log"
        path.write_text("not-a-key\n" + ("ab" * 32) + "\n\nxyz\n")
        assert CampaignJournal(path).load() == {"ab" * 32}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.log").load() == set()


class TestChaosInvariant:
    """Faulted campaigns with retries heal into byte-identical output."""

    @pytest.mark.parametrize("plan_text", [
        "crash:0.4", "hang:0.4:1:0.05", "crash:0.3,hang:0.3:1:0.05"])
    def test_serial_entry_faults(self, clean_records, plan_text):
        plan = FaultPlan.parse(plan_text, seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        runner = chaos_runner()
        targeted = [c for c in campaign_coords(runner)
                    if plan.entry_fault(c, 0)]
        assert targeted, "plan must actually fire for the test to bite"
        session = Session(resilience=res)
        assert list(runner.stream(session)) == clean_records
        assert session.metrics.retries >= len(targeted)
        assert not res.failures

    @pytest.mark.parametrize("plan_text", ["crash:0.4",
                                           "crash:0.3,hang:0.3:1:0.05"])
    def test_parallel_worker_crashes(self, clean_records, plan_text):
        """Satellite: a worker crash mid-campaign breaks the shared
        ``ProcessPoolExecutor``; the runtime respawns it, re-dispatches
        only unfinished entries, and the output stays byte-identical
        to the serial fault-free run."""
        plan = FaultPlan.parse(plan_text, seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        session = Session(workers=2, resilience=res)
        assert list(chaos_runner().stream(session)) == clean_records
        if "crash" in plan_text:
            assert session.metrics.pool_breaks > 0
            assert session.metrics.respawns >= session.metrics.pool_breaks
        assert not res.failures
        # The shared pool is healthy again after the breaks.
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_parallel_hang_watchdog(self, clean_records):
        """Injected hangs (0.25 s) exceed the watchdog (0.08 s): the
        pool is abandoned, hung entries are charged and retried, and
        the campaign still heals byte-identically."""
        plan = FaultPlan.parse("hang:0.4:1:0.25", seed=5)
        res = Resilience(policy=RetryPolicy(retries=2, entry_timeout=0.08,
                                            **FAST), fault_plan=plan)
        session = Session(workers=2, resilience=res)
        assert list(chaos_runner().stream(session)) == clean_records
        assert session.metrics.hang_timeouts > 0
        assert session.metrics.respawns > 0
        assert not res.failures
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_corrupt_store_writes_heal_on_rerun(self, tmp_path,
                                                clean_records):
        """Torn writes poison the cold run's cache without touching its
        output; the warm rerun re-executes the torn entries and is
        byte-identical too.  A ``corrupt`` write is a torn tail that is
        never indexed, so it reads as a plain miss; a ``partial`` line
        is indexed and quarantined on first read."""
        plan = FaultPlan.parse("partial:0.3,corrupt:0.5", seed=5)
        store = CampaignStore(tmp_path / "cache")
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        cold = list(chaos_runner().stream(Session(store=store,
                                                  resilience=res)))
        assert cold == clean_records
        kinds = [kind for kind, _ in store.fault_plan._occurrences]
        corrupt = kinds.count(FaultKind.CORRUPT_WRITE)
        partial = kinds.count(FaultKind.PARTIAL_WRITE)
        assert corrupt > 0 and partial > 0, \
            "plan must actually tear writes of both kinds"

        warm_store = CampaignStore(tmp_path / "cache")  # fault-free handle
        res2 = Resilience(policy=RetryPolicy(retries=2, **FAST))
        warm = list(chaos_runner().stream(Session(store=warm_store,
                                                  resilience=res2)))
        assert warm == clean_records
        assert warm_store.metrics.misses == corrupt + partial
        assert warm_store.metrics.quarantined == partial
        assert warm_store.metrics.invalid == partial
        quarantined = list((tmp_path / "cache" / ".quarantine")
                           .rglob("*.json"))
        assert len(quarantined) == partial

        # Third run: fully healed, pure hits.
        healed_store = CampaignStore(tmp_path / "cache")
        assert list(chaos_runner()
                    .stream(Session(store=healed_store))) == clean_records
        assert healed_store.metrics.misses == 0

    def test_transient_io_errors_degrade_not_abort(self, tmp_path,
                                                   clean_records):
        """Injected read/write OSErrors cost cache entries, never
        records: the campaign completes identically and the skipped
        writes are counted."""
        plan = FaultPlan.parse("io-error:0.4:3", seed=5)
        store = CampaignStore(tmp_path / "cache")
        res = Resilience(policy=RetryPolicy(retries=2, **FAST),
                         fault_plan=plan)
        assert list(chaos_runner().stream(
            Session(store=store, resilience=res))) == clean_records
        assert store.metrics.store_write_errors > 0

    @pytest.mark.parametrize("plan_text, quarantines", [
        ("corrupt:1.0", False), ("partial:1.0", True)])
    def test_spec_store_faults_reach_its_cache(self, tmp_path, plan_text,
                                               quarantines):
        """A campaign spec's fault plan tears the writes of the store
        its ``cache_dir`` opens, so a second run of the same spec finds
        nothing servable and re-executes — quarantining a ``partial``
        record, while a ``corrupt`` torn tail is never indexed — and
        both runs still return the fault-free records."""
        spec = {"seed": 3, "cache_dir": str(tmp_path), "retries": 1,
                "faults": plan_text,
                "clients": [{"name": "curl", "version": "7.88.1"},
                            {"name": "Chrome", "version": "130.0"}],
                "cases": [{"kind": "cad",
                           "sweep": {"values": [0, 150, 310]}}]}
        clean = {key: value for key, value in spec.items()
                 if key not in ("cache_dir", "retries", "faults")}
        expected = run_campaign_spec(clean)
        keys = CampaignSpec.from_dict(spec).build_runner().plan().keys()
        assert run_campaign_spec(spec) == expected
        assert not (tmp_path / ".quarantine").exists()
        assert run_campaign_spec(spec) == expected
        quarantined = {path.stem for path in
                       (tmp_path / ".quarantine").rglob("*.json")}
        assert quarantined == (set(keys) if quarantines else set())
        # Each run parses a fresh plan, so its writes tear again.
        assert CampaignStore(tmp_path).get_many(keys, decode_record) == {}


class TestGracefulDegradation:
    def test_serial_budget_exhaustion_completes_campaign(self):
        plan = FaultPlan.parse("crash:1.0:9", seed=5)  # never heals
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan)
        records = list(chaos_runner().stream(Session(resilience=res)))
        assert len(records) == 10
        assert all(is_harness_failure(r) for r in records)
        assert all(not r.completed for r in records)
        assert len(res.failures) == 10
        assert all(f.attempts == 2 for f in res.failures)

    def test_parallel_persistent_crasher_is_bounded(self, clean_records):
        """A worker that crashes on every attempt cannot crash-loop:
        settle-phase attribution charges it and the campaign finishes
        with the failure recorded and every other entry intact."""
        plan = FaultPlan.parse("crash:1.0:9", seed=5)
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan)
        records = list(chaos_runner(values=(0, 80)).stream(
            Session(workers=2, resilience=res)))
        assert len(records) == 4
        assert all(is_harness_failure(r) for r in records)
        assert len(res.failures) == 4
        assert shared_pool(2).submit(len, ()).result() == 0

    def test_harness_failures_never_cached_or_journaled(self, tmp_path):
        plan = FaultPlan.parse("crash:1.0:9", seed=5)
        store = CampaignStore(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "cache" / ".journal" / "c.log")
        res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                         fault_plan=plan, journal=journal)
        list(chaos_runner().stream(Session(store=store, resilience=res)))
        journal.close()
        assert store.metrics.stores == 0
        assert list(store.entries()) == []
        assert CampaignJournal(journal.path).load() == set()


class TestJournalResume:
    def _resilience(self, tmp_path, resume=False):
        journal = CampaignJournal(tmp_path / "cache" / ".journal" / "c.log")
        return Resilience(policy=RetryPolicy(retries=1, **FAST),
                          journal=journal, resume=resume)

    def test_abandoned_campaign_resumes_without_reexecution(self,
                                                            tmp_path,
                                                            clean_records):
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        stream = chaos_runner().stream(Session(store=store, resilience=res))
        partial = [next(stream) for _ in range(4)]  # then SIGKILL
        stream.close()
        res.close()
        assert partial == clean_records[:4]
        journaled = CampaignJournal(res.journal.path).load()
        assert len(journaled) == 4

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        finished = list(chaos_runner().stream(Session(store=store2,
                                                      resilience=res2)))
        res2.close()
        assert finished == clean_records
        assert store2.metrics.resumed == 4          # zero re-executions
        assert store2.metrics.hits == 4
        assert store2.metrics.misses == len(clean_records) - 4
        assert store2.metrics.journal_stale == 0

    def test_journaled_key_lost_from_store_reexecutes(self, tmp_path,
                                                      clean_records):
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        assert list(chaos_runner().stream(
            Session(store=store, resilience=res))) == clean_records
        res.close()
        keys = [key for key, _ in store.entries()]
        store.gc(keys[1:])  # the store lost a journaled entry

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        assert list(chaos_runner().stream(
            Session(store=store2, resilience=res2))) == clean_records
        res2.close()
        assert store2.metrics.journal_stale == 1     # detected, not trusted
        assert store2.metrics.resumed == len(clean_records) - 1
        assert store2.metrics.misses == 1

    def test_resume_accounting_is_capped_by_plan(self, tmp_path,
                                                 clean_records):
        """Journaled keys outside the campaign's plan (say, from a
        larger earlier sweep) are simply ignored."""
        store = CampaignStore(tmp_path / "cache")
        res = self._resilience(tmp_path)
        list(chaos_runner().stream(Session(store=store, resilience=res)))
        res.journal.record("ab" * 32)  # foreign journaled key
        res.close()

        store2 = CampaignStore(tmp_path / "cache")
        res2 = self._resilience(tmp_path, resume=True)
        assert list(chaos_runner().stream(
            Session(store=store2, resilience=res2))) == clean_records
        res2.close()
        assert store2.metrics.resumed == len(clean_records)
        assert store2.metrics.journal_stale == 0


class TestSharedPoolSeams:
    def test_atexit_registered_once_across_respawns(self, monkeypatch):
        """Satellite: shutdown + recreate cycles must not stack atexit
        hooks — the teardown is registered at most once per process."""
        import atexit

        from repro import fanout

        shutdown_shared_pool()
        calls = []
        monkeypatch.setattr(atexit, "register",
                            lambda fn: calls.append(fn))
        monkeypatch.setattr(fanout, "_atexit_registered", False)
        try:
            for _ in range(3):
                shared_pool(1)
                shutdown_shared_pool()
            assert calls == [shutdown_shared_pool]
        finally:
            shutdown_shared_pool()

    def test_abandon_discards_pool_without_waiting(self):
        from repro.fanout import abandon_shared_pool

        first = shared_pool(1)
        abandon_shared_pool()
        second = shared_pool(1)
        try:
            assert second is not first
            assert second.submit(len, ()).result() == 0
        finally:
            shutdown_shared_pool()
