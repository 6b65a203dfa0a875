"""The parallel campaign engine and stable run seeding."""

import os
import pickle
import subprocess
import sys
from typing import NamedTuple

import pytest

from repro.clients import get_profile
from repro.experiments import Session
from repro.seeding import stable_run_seed
from repro.testbed import (CampaignStore, StreamingResultSet, SweepSpec,
                           TestCaseConfig, TestCaseKind, TestRunner,
                           address_selection_case, run_campaign_spec)
from repro.testbed import parallel
from repro.testbed.parallel import (Plan, PlanCursor, execute_stages,
                                    plan_stages, resolve_specs)


def small_runner(seed: int = 5) -> TestRunner:
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[TestCaseConfig(
                   name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                   sweep=SweepSpec.fixed(0, 150, 310), repetitions=2),
               TestCaseConfig(
                   name="rd", kind=TestCaseKind.RESOLUTION_DELAY,
                   sweep=SweepSpec.fixed(1000)),
               address_selection_case(3)],
        seed=seed)


def tiny_runner(*values_ms: int, seed: int = 5) -> TestRunner:
    """One client, one CAD case: a plan of ``len(values_ms)`` runs."""
    return TestRunner(
        clients=[get_profile("curl", "7.88.1")],
        cases=[TestCaseConfig(
            name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
            sweep=SweepSpec.fixed(*values_ms))],
        seed=seed)


class OtherRun(NamedTuple):
    """A second entry kind, for the one-kind-per-call rule."""

    key: str


class TestStableRunSeed:
    def test_deterministic_within_process(self):
        assert stable_run_seed(0, "cad", "Chrome 130.0", 150, 0) == \
            stable_run_seed(0, "cad", "Chrome 130.0", 150, 0)

    def test_distinguishes_coordinates(self):
        seeds = {stable_run_seed(0, "cad", client, value, repetition)
                 for client in ("Chrome 130.0", "curl 7.88.1")
                 for value in (0, 150) for repetition in (0, 1)}
        assert len(seeds) == 8

    def test_31_bit_range(self):
        seed = stable_run_seed(12345, "x" * 100, 2.5, None)
        assert 0 <= seed <= 0x7FFFFFFF

    def test_type_sensitive(self):
        # "1" and 1 must not collide: canonical form includes the type.
        assert stable_run_seed(1) != stable_run_seed("1")

    def test_stable_across_interpreter_hash_seeds(self):
        """``hash()`` is PYTHONHASHSEED-salted; the digest must not be."""
        expected = stable_run_seed(7, "cad", "Chrome 130.0", 150, 1)
        script = ("from repro.seeding import stable_run_seed; "
                  "print(stable_run_seed(7, 'cad', 'Chrome 130.0', 150, 1))")
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH="src")
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__)))))
            assert int(out.stdout.strip()) == expected, hash_seed


class TestSpecEnumeration:
    def test_matches_serial_loop_order(self):
        runner = small_runner()
        specs = runner.enumerate_specs()
        expected = [(ci, pi, v, r)
                    for ci, case in enumerate(runner.cases)
                    for pi in range(len(runner.clients))
                    for v in case.sweep
                    for r in range(case.repetitions)]
        assert [(s.case_index, s.client_index, s.value_ms, s.repetition)
                for s in specs] == expected

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            small_runner().run(Session(workers=0))
        with pytest.raises(ValueError):
            small_runner().run(Session(workers=-3))


class TestParallelCampaign:
    def test_serial_and_parallel_records_identical(self):
        """The acceptance property: same records, same order, same values."""
        runner = small_runner()
        serial = runner.run()
        parallel = runner.run(Session(workers=2))
        assert len(serial) == len(parallel)
        assert serial == parallel

    def test_workers_one_is_serial(self):
        runner = small_runner(seed=6)
        assert runner.run() == runner.run(Session(workers=1))

    def test_aggregations_agree(self):
        runner = small_runner(seed=7)
        serial = StreamingResultSet.consume(runner.run())
        parallel = StreamingResultSet.consume(runner.run(Session(workers=2)))
        assert serial.median_cad("Chrome 130.0") == \
            parallel.median_cad("Chrome 130.0")
        assert serial.family_by_delay("curl 7.88.1", "cad") == \
            parallel.family_by_delay("curl 7.88.1", "cad")

    def test_spec_workers_knob(self):
        spec = {
            "seed": 3,
            "workers": 2,
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [0, 150, 310]}}],
        }
        parallel = run_campaign_spec(spec)
        serial = run_campaign_spec({**spec, "workers": None})
        assert serial == parallel


class TestPlanEntries:
    def test_plan_follows_spec_order_with_run_seeds(self):
        runner = small_runner()
        plan = runner.plan()
        assert isinstance(plan, Plan)
        assert all(isinstance(entry, parallel.TestbedRun) for entry in plan)
        assert [(e.case_index, e.client_index, e.value_ms, e.repetition)
                for e in plan] == [
            (s.case_index, s.client_index, s.value_ms, s.repetition)
            for s in runner.enumerate_specs()]
        assert plan.keys() == [entry.key for entry in plan]
        assert len(set(plan.keys())) == len(plan)
        # The planned seed is the one run_single derives on its own.
        entry = plan[1]
        assert entry.execute(None, 0) == runner.run_single(
            runner.cases[entry.case_index],
            runner.clients[entry.client_index],
            entry.value_ms, entry.repetition)

    def test_plan_rebuilds_and_pickles(self):
        plan = tiny_runner(0, 150).plan()
        assert Plan(list(plan)) == plan
        shipped = pickle.loads(pickle.dumps(plan))
        assert shipped.keys() == plan.keys()
        assert ([entry.execute(None, 0) for entry in shipped]
                == [entry.execute(None, 0) for entry in plan])


class TestResolveSpecs:
    def test_without_store_every_entry_executes(self):
        plan = tiny_runner(0, 150, 310).plan()
        assert (list(resolve_specs(plan))
                == [entry.execute(None, 0) for entry in plan])

    def test_cold_then_warm(self, tmp_path):
        plan = tiny_runner(0, 150, 310).plan()
        cold_store = CampaignStore(tmp_path)
        cold = list(resolve_specs(plan, Session(store=cold_store)))
        assert cold_store.metrics.stores == len(plan)
        assert {key for key, _ in cold_store.entries()} == set(plan.keys())
        warm_store = CampaignStore(tmp_path)
        assert list(resolve_specs(plan, Session(store=warm_store))) == cold
        assert warm_store.metrics.hits == len(plan)
        assert warm_store.metrics.stores == 0

    def test_partial_warm_executes_only_misses(self, tmp_path):
        """Hits and fresh records interleave back into plan order, on
        the parallel path too."""
        plan = small_runner().plan()
        store = CampaignStore(tmp_path)
        warm_part = Plan(plan[::3])
        list(resolve_specs(warm_part, Session(store=store)))
        store = CampaignStore(tmp_path)
        records = list(resolve_specs(plan, Session(workers=2, store=store)))
        assert records == list(resolve_specs(plan))
        assert store.metrics.hits == len(warm_part)
        assert store.metrics.stores == len(plan) - len(warm_part)

    def test_repeated_key_hits_once(self, tmp_path):
        """A key the plan repeats is looked up once and served for
        every occurrence; nothing executes or is written back."""
        entry = tiny_runner(150).plan()[0]
        store = CampaignStore(tmp_path)
        list(resolve_specs(Plan([entry]), Session(store=store)))
        store = CampaignStore(tmp_path)
        records = list(resolve_specs(Plan([entry, entry]),
                                     Session(store=store)))
        assert records[0] == records[1]
        assert store.metrics.hits == 1
        assert store.metrics.stores == 0

    def test_repeated_client_resolves_each_key_once(self, tmp_path,
                                                    monkeypatch):
        """A campaign listing a client twice repeats every key: cold,
        each distinct key misses, executes and is stored once; warm,
        nothing executes and nothing is written."""
        chrome = get_profile("Chrome", "130.0")
        runner = TestRunner(
            clients=[chrome, chrome],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(0, 310))],
            seed=5)
        executed = []
        run_single = TestRunner.run_single

        def counting(self, *args, **kwargs):
            executed.append(args[2])
            return run_single(self, *args, **kwargs)

        monkeypatch.setattr(TestRunner, "run_single", counting)
        store = CampaignStore(tmp_path)
        cold = runner.run(Session(store=store))
        assert len(cold) == 4 and cold[:2] == cold[2:]
        assert sorted(executed) == [0, 310]
        assert (store.metrics.misses, store.metrics.stores) == (2, 2)
        executed.clear()
        store = CampaignStore(tmp_path)
        assert runner.run(Session(store=store)) == cold
        assert executed == []
        assert (store.metrics.hits, store.metrics.misses,
                store.metrics.stores) == (2, 0, 0)
        assert len(list(store.entries())) == 2

    def test_rejects_mixed_entry_kinds(self, tmp_path):
        entry = tiny_runner(150).plan()[0]
        mixed = Plan([entry, OtherRun("ab" * 32)])
        with pytest.raises(ValueError):
            list(resolve_specs(mixed,
                               Session(store=CampaignStore(tmp_path))))


def two_stages(first: TestRunner, second: TestRunner):
    """A stage driver: ``second`` runs once ``first``'s records are in;
    the result is both stages' records."""
    head = yield first, False
    tail = yield second, True
    return head + tail


class TestStages:
    def test_plan_stops_at_first_stage_with_a_miss(self, tmp_path):
        first, second = tiny_runner(0, 150), tiny_runner(50, 100, seed=6)
        store = CampaignStore(tmp_path)
        plan = plan_stages([two_stages(first, second)], store)
        assert plan.keys() == first.plan().keys()
        assert store.metrics.stores == 0
        execute_stages(two_stages(first, second), Session(store=store))
        warm = plan_stages([two_stages(first, second)],
                           CampaignStore(tmp_path))
        assert warm.keys() == first.plan().keys() + second.plan().keys()

    def test_execution_resumes_past_the_planned_stages(self, tmp_path):
        first, second = tiny_runner(0, 150), tiny_runner(50, 100, seed=6)
        store = CampaignStore(tmp_path)
        cursor = PlanCursor(plan_stages([two_stages(first, second)], store))
        records = execute_stages(two_stages(first, second),
                                 Session(store=store), cursor)
        assert cursor.at == len(first.plan())
        assert records == (list(resolve_specs(first.plan()))
                           + list(resolve_specs(second.plan())))
        assert store.metrics.stores == len(first.plan()) + len(second.plan())

    def test_cursor_takes_planned_stage_and_derives_the_rest(self):
        first, second = tiny_runner(0, 150), tiny_runner(50, 100, seed=6)
        plan = first.plan()
        cursor = PlanCursor(plan)
        derived = cursor.take(second)
        assert [entry.key for entry in derived] == second.plan().keys()
        assert cursor.at == 0
        taken = cursor.take(first)
        assert all(a is b for a, b in zip(taken, plan))
        assert len(taken) == len(plan) and cursor.at == len(plan)
