"""The three policy-stage scenario batteries (HEv3, SVCB, sortlist).

Acceptance contract: on every battery at least two *registered*
clients produce different per-stage fingerprint verdicts — the stages
actually discriminate — and each battery replays byte-identically from
a warm store.
"""

import pytest

from repro.clients.registry import get_profile, local_testbed_clients
from repro.conformance import (fingerprint_client, hev3_battery,
                               render_battery_summary, sortlist_battery,
                               svcb_battery)
from repro.conformance.scenarios import RFC8305Parameter
from repro.experiments import Session
from repro.simnet.packet import Protocol
from repro.testbed import CampaignStore
from repro.testbed.config import ServiceSpec
from repro.testbed.runner import TestRunner


def verdict_map(fingerprint):
    return {(v.parameter, v.scenario): v.implemented
            for v in fingerprint.verdicts}


BATTERIES = {
    "hev3": hev3_battery,
    "svcb": svcb_battery,
    "sortlist": sortlist_battery,
}


class TestDiscrimination:
    @pytest.mark.parametrize("battery_name", sorted(BATTERIES))
    def test_two_registered_clients_differ(self, battery_name):
        battery = BATTERIES[battery_name]()
        fingerprints = {}
        for name, version in (("hev3-reference", "draft-07"),
                              ("Chrome", "130.0"), ("wget", "1.21.3")):
            profile = get_profile(name, version)
            fingerprints[name] = verdict_map(
                fingerprint_client(profile, battery=battery))
        # Every scenario of the battery gets a verdict per client, and
        # at least two registered clients disagree on every scenario.
        for scenario in battery:
            key = (scenario.discriminates, scenario.name)
            verdicts = {client: mapping[key]
                        for client, mapping in fingerprints.items()}
            assert len(set(verdicts.values())) > 1, (
                f"{battery_name}/{scenario.name}: all clients agree "
                f"({verdicts}) — the stage does not discriminate")

    def test_hev3_reference_races_and_wins_quic(self):
        fp = fingerprint_client(get_profile("hev3-reference"),
                                battery=hev3_battery())
        advertised = fp.verdict_for(RFC8305Parameter.PROTOCOL_RACING,
                                    "quic-advertised")
        blackholed = fp.verdict_for(RFC8305Parameter.PROTOCOL_RACING,
                                    "quic-blackholed")
        assert advertised.implemented is True
        assert blackholed.implemented is True  # TCP fallback worked
        assert not fp.must_deviations

    def test_legacy_client_never_touches_quic_or_svcb(self):
        chrome = get_profile("Chrome", "130.0")
        fp = fingerprint_client(chrome, battery=hev3_battery())
        assert fp.verdict_for(RFC8305Parameter.PROTOCOL_RACING,
                              "quic-advertised").implemented is False
        fp = fingerprint_client(chrome, battery=svcb_battery())
        assert fp.verdict_for(RFC8305Parameter.SVCB_DISCOVERY,
                              "https-query").implemented is False

    def test_wget_flagged_for_legacy_sortlist(self):
        fp = fingerprint_client(get_profile("wget", "1.21.3"),
                                battery=sortlist_battery())
        assert all(v.implemented is False for v in fp.verdicts)
        assert len(fp.should_deviations) == 3  # one per scenario
        conforming = fingerprint_client(get_profile("Chrome", "130.0"),
                                        battery=sortlist_battery())
        assert all(v.implemented is True for v in conforming.verdicts)
        assert not conforming.deviations


class TestWarmReplay:
    @pytest.mark.parametrize("battery_name", sorted(BATTERIES))
    def test_cold_equals_warm_with_all_hits(self, tmp_path, battery_name):
        battery = BATTERIES[battery_name]()
        profile = get_profile("hev3-reference")
        cold_store = CampaignStore(tmp_path)
        cold = fingerprint_client(profile, Session(store=cold_store),
                                  battery)
        assert cold_store.metrics.stores > 0
        warm_store = CampaignStore(tmp_path)
        warm = fingerprint_client(profile, Session(store=warm_store),
                                  battery)
        assert warm_store.metrics.misses == 0
        assert warm_store.metrics.hits == cold_store.metrics.stores
        assert render_battery_summary("t", [warm], battery) == \
            render_battery_summary("t", [cold], battery)


class TestServiceObservables:
    """The ServiceSpec testbed seam feeds the new RunRecord fields."""

    def run_single(self, scenario, client=("hev3-reference", "draft-07")):
        profile = get_profile(*client)
        runner = TestRunner([profile], [scenario.case], seed=1)
        return runner.run_single(scenario.case, profile, 0, 0)

    def test_quic_advertised_observables(self):
        scenario = hev3_battery()[0]
        record = self.run_single(scenario)
        assert record.queried_https is True
        assert record.attempts_quic > 0
        assert record.winning_protocol is Protocol.QUIC
        legacy = self.run_single(scenario, client=("curl", "7.88.1"))
        assert legacy.queried_https is False
        assert legacy.attempts_quic == 0
        assert legacy.winning_protocol is Protocol.TCP

    def test_alt_port_observable(self):
        scenario = svcb_battery()[1]
        assert scenario.case.service.https_port == 8443
        record = self.run_single(scenario)
        assert record.first_attempt_port == 8443
        legacy = self.run_single(scenario, client=("curl", "7.88.1"))
        assert legacy.first_attempt_port == 80

    def test_sortlist_destinations_all_connect(self):
        for scenario in sortlist_battery():
            record = self.run_single(scenario)
            assert record.winning_family is not None, scenario.name

    def test_service_spec_validation(self):
        with pytest.raises(ValueError, match="https_alpn"):
            ServiceSpec(https_port=8443)
        with pytest.raises(ValueError, match="https_port"):
            ServiceSpec(https_alpn=("h3",), https_port=0)
        assert "quic" in ServiceSpec(https_alpn=("h3",),
                                     quic_listener=True).label()

    def test_batteries_cover_all_local_clients(self):
        # The registered battery experiments run every local client;
        # the registry must include the discriminating pair.
        names = {p.name for p in local_testbed_clients()}
        assert {"hev3-reference", "wget", "Chrome"} <= names
