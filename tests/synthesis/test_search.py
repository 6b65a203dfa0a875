"""The synthesis loop: determinism, cache replay, promotion.

Pins the PR's acceptance criteria: byte-identical artifacts across
runs and across serial/parallel, zero-miss warm replay, a denser
refinement budget replaying overlapping probe keys from cache, and a
search that discovers ≥3 novel scenarios on which ≥2 registered
clients disagree.
"""

import pytest

from repro.clients.registry import resolve_profiles
from repro.experiments import Session, get_experiment
from repro.synthesis import (CandidateScore, Promoter, ScenarioSpace,
                             Scorer, SearchBudget, SearchStrategy,
                             SynthesisSearch, ablation_variants, rank)
from repro.testbed import CampaignStore

CLIENTS = "curl,wget,Chrome 130.0,Firefox 132.0,hev3-reference"
SMALL = {"synthesis_seeds": 5, "synthesis_rounds": 1,
         "synthesis_top": 2, "synthesis_neighbors": 2,
         "promote": 4, "clients": CLIENTS}


def session(store=None, seed=3, workers=None, **overrides):
    experiment = get_experiment("synthesize-scenarios")
    knobs = experiment.default_knobs()
    knobs.update(SMALL)
    knobs.update(overrides)
    return Session(seed=seed, workers=workers, store=store, knobs=knobs)


def build_search(profiles=("curl", "wget", "hev3-reference"), seed=3,
                 budget=None, limit=4):
    space = ScenarioSpace.default()
    resolved = [resolve_profiles(p)[0] for p in profiles]
    base = resolve_profiles("hev3-reference")[0]
    budget = budget or SearchBudget(seeds=4, rounds=1, top=2, neighbors=2)
    scorer = Scorer(space, resolved, seed=seed, ablation_base=base)
    return SynthesisSearch(space, SearchStrategy(space, seed, budget),
                           scorer, Promoter(space, limit=limit))


class TestBudget:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="seeds"):
            SearchBudget(seeds=0)
        with pytest.raises(ValueError, match="rounds"):
            SearchBudget(rounds=-1)
        with pytest.raises(ValueError, match="top"):
            SearchBudget(top=0)
        with pytest.raises(ValueError, match="neighbors"):
            SearchBudget(neighbors=0)


class TestStrategy:
    def test_seed_round_is_deduped_and_prefix_stable(self):
        space = ScenarioSpace.default()
        small = SearchStrategy(space, 3, SearchBudget(seeds=4))
        large = SearchStrategy(space, 3, SearchBudget(seeds=12))
        small_round = small.seed_round()
        large_round = large.seed_round()
        digests = [c.digest for c in large_round]
        assert len(set(digests)) == len(digests)
        assert large_round[: len(small_round)] == small_round

    def test_refine_proposes_unseen_neighbors_of_top_scorers(self):
        space = ScenarioSpace.default()
        strategy = SearchStrategy(
            space, 0, SearchBudget(seeds=4, top=1, neighbors=3))
        candidate = space.sample(0, 0)
        score = CandidateScore(candidate=candidate, signatures=(),
                               ablation_drift=(), disagreement=2,
                               failures=0)
        proposals = strategy.refine({candidate.digest: score})
        assert 0 < len(proposals) <= 3
        neighbor_digests = {n.digest
                            for n in space.neighbors(candidate)}
        for proposal in proposals:
            assert proposal.digest in neighbor_digests
            assert proposal.digest != candidate.digest


class TestRanking:
    def test_equal_totals_tie_break_by_digest(self):
        space = ScenarioSpace.default()
        a, b = space.sample(0, 0), space.sample(0, 1)
        assert a.digest != b.digest
        score_a = CandidateScore(candidate=a, signatures=(),
                                 ablation_drift=(), disagreement=2,
                                 failures=0)
        score_b = CandidateScore(candidate=b, signatures=(),
                                 ablation_drift=(), disagreement=2,
                                 failures=0)
        assert score_a.total == score_b.total
        expected = sorted((score_a, score_b),
                          key=lambda s: s.candidate.digest)
        assert rank([score_a, score_b]) == expected
        assert rank([score_b, score_a]) == expected

    def test_disagreement_dominates_the_score(self):
        space = ScenarioSpace.default()
        loud = CandidateScore(candidate=space.sample(0, 0),
                              signatures=(), ablation_drift=(),
                              disagreement=3, failures=0)
        subtle = CandidateScore(
            candidate=space.sample(0, 1), signatures=(),
            ablation_drift=("resolution", "sorting", "racing"),
            disagreement=2, failures=9)
        assert rank([subtle, loud])[0] is loud


class TestAblations:
    def test_three_single_stage_variants(self):
        base = resolve_profiles("hev3-reference")[0]
        variants = ablation_variants(base)
        stages = [stage for stage, _ in variants]
        assert stages == ["resolution", "sorting", "racing"]
        by_stage = dict(variants)
        assert (by_stage["resolution"].stack.resolution.use_svcb
                is not base.stack.resolution.use_svcb)
        assert (by_stage["sorting"].stack.sorting.sortlist
                != base.stack.sorting.sortlist)
        assert (by_stage["racing"].stack.racing.race_quic
                is not base.stack.racing.race_quic)
        # Distinct full names → distinct store keys and records.
        names = {v.full_name for _, v in variants} | {base.full_name}
        assert len(names) == 4


class TestScorer:
    def test_score_is_a_pure_function_of_records(self):
        search = build_search()
        candidates = search.strategy.seed_round()
        scorer = search.scorer
        runner = scorer.runner_for(candidates)
        records = list(runner.stream())
        once = scorer.score_records(candidates, records)
        twice = scorer.score_records(candidates, records)
        assert once == twice

    def test_record_count_mismatch_raises(self):
        search = build_search()
        candidates = search.strategy.seed_round()
        with pytest.raises(ValueError, match="expected"):
            search.scorer.score_records(candidates, [])

    def test_signatures_cover_registered_clients_in_order(self):
        search = build_search()
        candidates = search.strategy.seed_round()[:1]
        records = list(search.scorer.runner_for(candidates).stream())
        (score,) = search.scorer.score_records(candidates, records)
        clients = [client for client, _ in score.signatures]
        assert clients == [p.full_name for p in search.scorer.profiles]


class TestSearchExecution:
    def test_search_is_deterministic(self):
        a = build_search().execute()
        b = build_search().execute()
        assert a == b

    def test_serial_equals_parallel(self, tmp_path):
        serial = build_search().execute(
            Session(store=CampaignStore(tmp_path / "s")))
        parallel = build_search().execute(
            Session(workers=2, store=CampaignStore(tmp_path / "p")))
        assert serial == parallel

    def test_warm_store_replays_with_zero_misses(self, tmp_path):
        cold_store = CampaignStore(tmp_path)
        cold = build_search().execute(Session(store=cold_store))
        assert cold_store.metrics.stores > 0
        warm_store = CampaignStore(tmp_path)
        warm = build_search().execute(Session(store=warm_store))
        assert warm == cold
        assert warm_store.metrics.misses == 0
        assert warm_store.metrics.hits > 0

    def test_denser_budget_replays_overlapping_keys(self, tmp_path):
        """The acceptance pin: a repeat run with a denser refinement
        budget replays every overlapping probe key from cache."""
        small = SearchBudget(seeds=4, rounds=1, top=2, neighbors=2)
        dense = SearchBudget(seeds=8, rounds=2, top=3, neighbors=3)
        build_search(budget=small).execute(
            Session(store=CampaignStore(tmp_path)))
        dense_store = CampaignStore(tmp_path)
        build_search(budget=dense).execute(Session(store=dense_store))
        assert dense_store.metrics.hits > 0
        assert dense_store.metrics.misses > 0  # and genuinely denser

    def test_discovers_three_novel_discriminators(self, tmp_path):
        """The acceptance pin: ≥3 promoted scenarios outside the
        hand-written battery on which ≥2 registered clients disagree."""
        search = build_search(
            profiles=("curl", "wget", "Chrome 130.0", "Firefox 132.0",
                      "hev3-reference"),
            budget=SearchBudget(seeds=6, rounds=1, top=2, neighbors=2),
            limit=6)
        result = search.execute(Session(store=CampaignStore(tmp_path)))
        assert len(result.promotions) >= 3
        hand_written = search.promoter.known
        for promotion in result.promotions:
            assert promotion.score.disagreement >= 2
            from repro.synthesis.promote import _case_identity

            assert _case_identity(promotion.scenario.case) \
                not in hand_written


class TestPlan:
    def test_plan_is_pure_on_a_cold_store(self, tmp_path):
        store = CampaignStore(tmp_path)
        keys = build_search().plan(store).keys()
        assert keys
        assert store.metrics.stores == 0
        assert list(store.entries()) == []

    def test_cold_plan_is_the_seed_round(self, tmp_path):
        search = build_search()
        seed_keys = search.scorer.runner_for(
            search.strategy.seed_round()).plan().keys()
        assert search.plan(CampaignStore(tmp_path)).keys() == seed_keys

    def test_warm_plan_covers_the_whole_execution(self, tmp_path):
        cold_store = CampaignStore(tmp_path)
        build_search().execute(Session(store=cold_store))
        on_disk = {key for key, _ in cold_store.entries()}
        warm_plan = set(build_search().plan(CampaignStore(tmp_path)).keys())
        assert on_disk == warm_plan

    def test_gc_against_warm_plan_keeps_everything(self, tmp_path):
        store = CampaignStore(tmp_path)
        build_search().execute(Session(store=store))
        live = set(build_search().plan(CampaignStore(tmp_path)).keys())
        stats = CampaignStore(tmp_path).gc(live)
        assert stats.removed == 0
        assert stats.kept == len(live)
        replay_store = CampaignStore(tmp_path)
        build_search().execute(Session(store=replay_store))
        assert replay_store.metrics.misses == 0


class TestExperimentArtifacts:
    def test_rendered_artifact_is_byte_identical_and_summarized(
            self, tmp_path):
        experiment = get_experiment("synthesize-scenarios")
        a = experiment.run(session(store=CampaignStore(tmp_path / "a")))
        b = experiment.run(session(store=CampaignStore(tmp_path / "b"),
                                   workers=2))
        assert a.text == b.text
        assert "synthesis: evaluated=" in a.text
        assert "promoted_discriminating=" in a.text
        assert a.data["promotions"]
        for promotion in a.data["promotions"]:
            assert promotion["provenance"]["source"] == "synthesis"
            assert promotion["provenance"]["seed"] == 3
            assert promotion["score"]["disagreement"] >= 2

    def test_report_renders_battery_verdicts(self, tmp_path):
        experiment = get_experiment("synthesize-report")
        store = CampaignStore(tmp_path)
        knobs = {**SMALL, "clients": "curl,wget,hev3-reference"}
        artifact = experiment.run(session(store=store, **knobs))
        assert "synthesized scenario battery" in artifact.text
        assert artifact.data["fingerprints"]

    def test_bad_budget_knob_exits_with_a_named_error(self):
        experiment = get_experiment("synthesize-scenarios")
        with pytest.raises(SystemExit, match="seeds"):
            experiment.plan(session(synthesis_seeds=0))
