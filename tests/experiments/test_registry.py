"""The Experiment API registry contract.

Every registered experiment must plan deterministically, plan purely
(no execution, no writes), key-space itself disjointly from the others
(or overlap *intentionally*, asserted below), and — for store-backed
experiments — cover every key its execution stores, so a warm store
replays with zero misses and ``repro cache gc`` can never collect a
registered experiment's entries.
"""

import dataclasses
import itertools
import pickle

import pytest

from repro import fanout
from repro.experiments import (Artifact, Experiment, Knob, Session,
                               all_experiments, get_experiment,
                               knob_mapping, register)
from repro.metrics import Metrics
from repro.service import SingleFlight, SingleFlightStore, TieredStore
from repro.testbed import CampaignJournal, CampaignStore, Resilience
from repro.testbed.store import decode_record

#: Cheap knob overrides so contract tests execute in seconds; shapes
#: (key structure, case names, store usage) are unchanged by these.
FAST_KNOBS = {
    "table2": {"repetitions": 1},
    "table3": {"repetitions": 2},
    "table5": {"repetitions": 1},
    "figure2": {"step": 200},
    "fingerprint": {"client": "curl 7.88.1", "stop": 100},
    "conformance": {"stop": 100},
    "fingerprint-diff": {"client_a": "curl 7.88.1",
                         "client_b": "wget 1.21.3", "stop": 100},
    "population-latency": {"samples": 6, "degrade_step": 200},
    "population-family-share": {"samples": 6, "degrade_step": 200},
    "synthesize-scenarios": {"synthesis_seeds": 4, "synthesis_rounds": 1,
                             "synthesis_top": 2, "synthesis_neighbors": 2,
                             "promote": 3,
                             "clients": "curl,wget,hev3-reference"},
    "synthesize-report": {"synthesis_seeds": 4, "synthesis_rounds": 1,
                          "synthesis_top": 2, "synthesis_neighbors": 2,
                          "promote": 3,
                          "clients": "curl,wget,hev3-reference"},
}

#: Experiments whose campaigns go through the store.
STORE_BACKED = ("table2", "table3", "table5", "figure2", "figure5",
                "fingerprint", "conformance", "fingerprint-diff",
                "conformance-hev3", "conformance-svcb",
                "conformance-sortlist", "population-latency",
                "population-family-share", "synthesize-scenarios",
                "synthesize-report")

#: Pairs whose plans may intentionally share keys: fingerprint
#: defaults to 'all' local clients — exactly the conformance battery —
#: and fingerprint-diff probes two of those clients with the same
#: scenario cases.  The two population experiments aggregate the same
#: sampled campaign, so their plans are identical by construction.
#: Every other pair must be disjoint.
ALLOWED_OVERLAPS = {
    frozenset({"fingerprint", "conformance"}),
    frozenset({"fingerprint", "fingerprint-diff"}),
    frozenset({"conformance", "fingerprint-diff"}),
    frozenset({"population-latency", "population-family-share"}),
    # The report fingerprint-probes the same search the scenario
    # experiment scores, so their key spaces coincide by construction.
    frozenset({"synthesize-scenarios", "synthesize-report"}),
}


def session_for(experiment, store=None, seed=0, fast=True):
    knobs = experiment.default_knobs()
    if fast:
        knobs.update(FAST_KNOBS.get(experiment.name, {}))
    return Session(seed=seed, store=store, knobs=knobs)


class TestCatalogue:
    def test_catalogue_is_complete(self):
        names = [experiment.name for experiment in all_experiments()]
        assert len(names) >= 12
        for expected in ("table1", "table2", "table3", "table4",
                         "table5", "figure2", "figure4", "figure5",
                         "delayed-a", "trace", "fingerprint",
                         "conformance", "fingerprint-diff"):
            assert expected in names

    def test_metadata_declared(self):
        for experiment in all_experiments():
            assert experiment.name
            assert experiment.title
            assert experiment.paper

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get_experiment("table1"))

    def test_unnamed_registration_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register(Experiment())

    def test_unknown_name_lists_the_catalogue(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("figure9")


class TestPlanning:
    def test_plans_are_deterministic(self):
        for experiment in all_experiments():
            session = session_for(experiment)
            assert (experiment.plan(session).keys()
                    == experiment.plan(session).keys()), experiment.name

    def test_plan_is_pure(self, tmp_path):
        """Planning executes nothing: no entries appear, no counters
        move past lookups, and an attached store stays empty."""
        store = CampaignStore(tmp_path)
        for experiment in all_experiments():
            experiment.plan(session_for(experiment, store=store))
        assert store.metrics.stores == 0
        assert list(store.entries()) == []

    def test_key_spaces_disjoint_except_declared(self):
        """Key collisions across experiments would make gc liveness
        and warm-run attribution ambiguous — every overlap must be
        intentional and asserted here."""
        plans = {}
        for experiment in all_experiments():
            plans[experiment.name] = set(
                experiment.plan(session_for(experiment, fast=False)).keys())
        for left, right in itertools.combinations(sorted(plans), 2):
            if frozenset({left, right}) not in ALLOWED_OVERLAPS:
                shared = plans[left] & plans[right]
                assert not shared, (left, right, len(shared))
        # The default fingerprint plan ('all' clients, same battery)
        # is exactly the conformance plan.
        assert plans["fingerprint"] == plans["conformance"]
        # fingerprint-diff probes two 'all' clients over the same
        # scenario cases: a shrunken sweep plans a key subset.
        diff = get_experiment("fingerprint-diff")
        diff_plan = set(diff.plan(session_for(diff)).keys())
        assert diff_plan and diff_plan <= plans["fingerprint"]
        # The two population experiments render different aggregations
        # of one sampled campaign — identical key spaces, and both are
        # disjoint from every fixed-configuration experiment (checked
        # by the generic loop above).
        assert (plans["population-latency"]
                == plans["population-family-share"])
        assert plans["population-latency"]
        # The two synthesis experiments drive one search: identical
        # plans, disjoint from everything hand-written (the generic
        # loop above checks the disjointness half).
        assert (plans["synthesize-scenarios"]
                == plans["synthesize-report"])
        assert plans["synthesize-scenarios"]

    def test_default_fingerprint_diff_plans_nothing(self):
        experiment = get_experiment("fingerprint-diff")
        assert experiment.plan(
            session_for(experiment, fast=False)).keys() == []


class TestExecutionContract:
    @pytest.mark.parametrize("name", STORE_BACKED)
    def test_plan_covers_execution_and_warm_run_hits(self, tmp_path,
                                                     name):
        """The gc-safety contract, per experiment: a cold execution
        stores only planned keys, and a warm re-execution resolves
        entirely from the store (zero misses, byte-identical)."""
        experiment = get_experiment(name)
        cold_store = CampaignStore(tmp_path)
        cold = experiment.run(session_for(experiment, store=cold_store))
        assert cold_store.metrics.stores > 0
        on_disk = {key for key, _ in cold_store.entries()}
        planned = set(experiment.plan(
            session_for(experiment, store=CampaignStore(tmp_path))).keys())
        assert on_disk <= planned
        warm_store = CampaignStore(tmp_path)
        warm = experiment.run(session_for(experiment, store=warm_store))
        assert warm_store.metrics.misses == 0
        assert warm_store.metrics.hits > 0
        assert warm.text == cold.text

    def test_renders_are_artifacts(self, tmp_path):
        for name in ("table1", "table4", "trace", "delayed-a"):
            experiment = get_experiment(name)
            artifact = experiment.run(session_for(experiment))
            assert isinstance(artifact, Artifact)
            assert artifact.text

    def test_json_capable_experiments_carry_data(self, tmp_path):
        store = CampaignStore(tmp_path)
        experiment = get_experiment("fingerprint")
        artifact = experiment.run(session_for(experiment, store=store))
        assert artifact.data is not None
        assert artifact.json_text().startswith("[")


class ParentOnlyStore(CampaignStore):
    """A campaign store that refuses to leave the parent process."""

    def __reduce_ex__(self, protocol):
        raise pickle.PicklingError("the campaign store stays in the parent")


class ParentOnlyJournal(CampaignJournal):
    """A campaign journal that refuses to leave the parent process."""

    def __reduce_ex__(self, protocol):
        raise pickle.PicklingError("the journal stays in the parent")


def parent_only_session(experiment, root, workers=None):
    """A fast session with the campaign service's store stack
    (single-flight over the memory tier over the packed store) and a
    journal, none of which pickles."""
    store = SingleFlightStore(TieredStore(ParentOnlyStore(root)),
                              SingleFlight(Metrics()))
    journal = ParentOnlyJournal(root / ".journal" / "campaign.log")
    return dataclasses.replace(
        session_for(experiment, store=store), workers=workers,
        resilience=Resilience(journal=journal, explicit=False))


class TestParentOnlyStore:
    """The store and the journal stay in the parent by construction:
    plan entries carry runners, runners carry no store, and the
    executor ships only entries and a fault plan to pool workers."""

    @pytest.mark.parametrize(
        "name", sorted(experiment.name for experiment in all_experiments()))
    def test_nothing_store_like_ships(self, tmp_path, monkeypatch, name):
        """Every plan entry, and every ``(fn, items)`` payload
        ``shared_map`` would send to the pool, pickles under a session
        whose store and journal refuse to.  The artifact equals a plain
        run's right after it: a function of the session, not of the
        store stack or of what ran earlier in the process (the service
        runs many experiments in one)."""
        experiment = get_experiment(name)
        session = parent_only_session(experiment, tmp_path)
        plan = experiment.plan(session)
        pickle.dumps(plan)
        shipped = []
        shared_map = fanout.shared_map

        def shipping(fn, items, *args, **kwargs):
            pickle.dumps((fn, list(items)))
            shipped.append(len(items))
            return shared_map(fn, items, *args, **kwargs)

        monkeypatch.setattr(fanout, "shared_map", shipping)
        artifact = experiment.render(experiment.execute(session, plan))
        session.resilience.close()
        if plan:  # a cold store: the first resolution executes
            assert sum(shipped) > 0
        assert experiment.run(session_for(experiment)).text == artifact.text

    def test_pooled_cold_run_through_a_parent_only_store(self, tmp_path):
        experiment = get_experiment("figure2")
        session = parent_only_session(experiment, tmp_path, workers=2)
        pooled = experiment.run(session)
        session.resilience.close()
        assert session.metrics is session.store.metrics
        assert session.metrics.stores > 0
        assert session.metrics.journaled > 0
        assert pooled.text == experiment.run(session_for(experiment)).text

    def test_a_runner_carrying_a_store_would_be_caught(self, tmp_path):
        """The checks above bite: a runner holding the session's store
        again makes its plan entries unshippable."""
        experiment = get_experiment("figure2")
        session = parent_only_session(experiment, tmp_path)
        plan = experiment.plan(session)
        pickle.dumps(plan)
        plan[0].campaign.store = session.store
        with pytest.raises((pickle.PicklingError, TypeError)):
            pickle.dumps(plan)


class TestSession:
    def test_knob_fallback(self):
        session = Session(knobs={"step": 5, "flagged": False})
        assert session.knob("step", 25) == 5
        assert session.knob("missing", 25) == 25
        assert session.knob("flagged", True) is False

    @pytest.mark.parametrize("name", sorted(
        experiment.name for experiment in all_experiments()
        if experiment.knobs))
    def test_knobless_session_plans_the_declared_defaults(self, name):
        """A library Session without knobs plans what the CLI plans:
        experiments read each declared ``Knob`` default, not a copy."""
        experiment = get_experiment(name)
        declared = Session(seed=0, knobs=knob_mapping(experiment, {}))
        assert (experiment.plan(Session(seed=0)).keys()
                == experiment.plan(declared).keys())

    def test_cache_line_only_after_activity(self, tmp_path):
        session = Session(store=CampaignStore(tmp_path))
        assert session.metrics is session.store.metrics
        assert session.summary_lines() == []
        session.store.get_many([CampaignStore.key("x")], decode_record)
        assert session.summary_lines() == [
            f"[cache] hits=0 misses=1 stores=0 entries_invalid=0 "
            f"quarantined=0 root={tmp_path}"]
        assert Session().summary_lines() == []

    def test_knob_declarations_drive_cli_options(self):
        knob = Knob("delay_ms", type=int, default=400)
        assert knob.option == "--delay-ms"
