"""Fingerprint verdicts: nominal agreement, deviations, determinism.

The module-scoped fixture runs the full battery once for every
local-testbed client through a shared store; the tests then assert the
acceptance contract: ≥8 scenarios per client, measured CAD/RD agreeing
with each client's declared (Table 1) parameters, the paper's known
deviations flagged, and byte-identical serial/parallel/warm reports.
"""

import pytest

from repro.clients import get_profile, local_testbed_clients
from repro.conformance import (RFC8305Parameter, Requirement,
                               assemble_fingerprint, fingerprint_client,
                               fingerprints_to_json,
                               outcomes_from_records, render_fingerprint,
                               render_conformance_summary,
                               scenario_battery)
from repro.conformance.probe import ConformanceProbe
from repro.experiments import Session
from repro.testbed import CampaignStore

#: Simulated timings are sharp; this absorbs capture granularity.
TOLERANCE_MS = 10.0


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return CampaignStore(tmp_path_factory.mktemp("conformance-store"))


@pytest.fixture(scope="module")
def fingerprints(store):
    """full_name -> (profile, fingerprint) for every local client."""
    return {
        profile.full_name: (
            profile,
            fingerprint_client(profile, Session(workers=2, store=store)))
        for profile in local_testbed_clients()}


class TestAcceptance:
    def test_battery_covers_at_least_eight_scenarios(self, fingerprints):
        for _, fingerprint in fingerprints.values():
            assert len(fingerprint.scenarios_run) >= 8

    def test_measured_cad_agrees_with_declared_nominal(self, fingerprints):
        """Every client declaring a fixed CAD measures within
        tolerance of it — the Table 1 agreement contract."""
        declared = 0
        for profile, fingerprint in fingerprints.values():
            nominal = profile.nominal_cad
            verdict = fingerprint.verdict_for(
                RFC8305Parameter.CONNECTION_ATTEMPT_DELAY,
                "v6-delay-sweep")
            if nominal is None:
                continue
            declared += 1
            assert verdict.implemented, profile.full_name
            assert verdict.measured_ms == pytest.approx(
                nominal * 1000.0, abs=TOLERANCE_MS), profile.full_name
            assert abs(verdict.delta_ms) <= TOLERANCE_MS
        assert declared >= 10  # chromiums + firefoxes + curl

    def test_measured_rd_agrees_with_declared_nominal(self, fingerprints):
        declared = 0
        for profile, fingerprint in fingerprints.values():
            nominal = profile.nominal_rd
            verdict = fingerprint.verdict_for(
                RFC8305Parameter.RESOLUTION_DELAY)
            if nominal is None:
                assert not verdict.implemented, profile.full_name
                continue
            declared += 1
            assert verdict.implemented, profile.full_name
            assert verdict.measured_ms == pytest.approx(
                nominal * 1000.0, abs=TOLERANCE_MS), profile.full_name
        assert declared >= 2  # the Safaris

    def test_cad_stable_under_jitter(self, fingerprints):
        for profile, fingerprint in fingerprints.values():
            if profile.nominal_cad is None:
                continue
            jittery = fingerprint.verdict_for(
                RFC8305Parameter.CONNECTION_ATTEMPT_DELAY,
                "jittery-dual-stack")
            assert jittery.measured_ms == pytest.approx(
                profile.nominal_cad * 1000.0, abs=30.0), profile.full_name


class TestKnownDeviations:
    def test_wget_fails_the_blackhole_must(self, fingerprints):
        _, fingerprint = fingerprints["wget 1.21.3"]
        assert any(d.requirement is Requirement.MUST
                   for d in fingerprint.deviations)
        verdict = fingerprint.verdict_for(RFC8305Parameter.FALLBACK,
                                          "v6-blackhole")
        assert verdict.implemented is False

    def test_happy_eyeballs_clients_survive_the_blackhole(
            self, fingerprints):
        for name, (profile, fingerprint) in fingerprints.items():
            if not profile.implements_happy_eyeballs:
                continue
            verdict = fingerprint.verdict_for(RFC8305Parameter.FALLBACK,
                                              "v6-blackhole")
            assert verdict.implemented, name
            assert not fingerprint.must_deviations, name

    def test_chromium_flags_the_delayed_a_stall(self, fingerprints):
        _, fingerprint = fingerprints["Chrome 130.0"]
        verdict = fingerprint.verdict_for(
            RFC8305Parameter.RESOLUTION_POLICY)
        assert verdict.implemented is False
        assert any("stalls healthy IPv6" in d.description
                   for d in fingerprint.should_deviations)

    def test_safari_implements_rd_without_stall(self, fingerprints):
        _, fingerprint = fingerprints["Safari 17.6"]
        rd = fingerprint.verdict_for(RFC8305Parameter.RESOLUTION_DELAY)
        assert rd.implemented and rd.measured_ms == pytest.approx(
            50.0, abs=TOLERANCE_MS)
        policy = fingerprint.verdict_for(
            RFC8305Parameter.RESOLUTION_POLICY)
        assert policy.implemented is True
        assert not any("Resolution Delay" in d.description
                       for d in fingerprint.deviations)

    def test_firefox_flags_a_first_query_order(self, fingerprints):
        _, fingerprint = fingerprints["Firefox 132.0"]
        assert any("A query before the AAAA" in d.description
                   for d in fingerprint.should_deviations)

    def test_recommended_cad_only_for_firefox(self, fingerprints):
        """250 ms is the recommendation: Firefox matches it, the
        Chromium family (300 ms) and curl (200 ms) get flagged."""
        def cad_flagged(fingerprint):
            return any("recommended 250 ms" in d.description
                       for d in fingerprint.should_deviations)

        assert not cad_flagged(fingerprints["Firefox 132.0"][1])
        assert cad_flagged(fingerprints["Chrome 130.0"][1])
        assert cad_flagged(fingerprints["curl 7.88.1"][1])


class TestDeterminism:
    def test_serial_parallel_warm_reports_byte_identical(self, tmp_path):
        profile = get_profile("Chrome", "130.0")
        battery = scenario_battery()
        serial = fingerprint_client(profile, Session(seed=11), battery)
        parallel = fingerprint_client(profile, Session(seed=11, workers=2),
                                      battery)
        store = CampaignStore(tmp_path)
        fingerprint_client(profile, Session(seed=11, store=store), battery)
        warm_store = CampaignStore(tmp_path)
        warm = fingerprint_client(profile,
                                  Session(seed=11, store=warm_store),
                                  battery)
        assert warm_store.metrics.misses == 0
        reference = fingerprints_to_json([serial])
        assert fingerprints_to_json([parallel]) == reference
        assert fingerprints_to_json([warm]) == reference
        assert render_fingerprint(warm) == render_fingerprint(serial)

    def test_summary_renders_every_client(self, fingerprints):
        text = render_conformance_summary(
            [fp for _, fp in fingerprints.values()])
        for name in fingerprints:
            assert name in text


class TestReplay:
    def test_fingerprint_from_recorded_runs(self, fingerprints):
        """Capture-replay path: records from a previous probe
        re-assemble into the same measured values without executing."""
        profile = get_profile("curl", "7.88.1")
        battery = scenario_battery()
        probe = ConformanceProbe(profile, seed=0, battery=battery)
        outcomes = probe.run()
        records = [record for outcome in outcomes
                   for record in outcome.records]
        replayed = assemble_fingerprint(
            profile, outcomes_from_records(battery, records))
        live = assemble_fingerprint(profile, outcomes)
        for a, b in zip(live.verdicts, replayed.verdicts):
            assert a.parameter is b.parameter
            assert a.implemented == b.implemented
            assert a.measured_ms == b.measured_ms
        assert replayed.deviations == live.deviations
