"""Tests for client profiles, the registry, and iCPR egress models."""

import pytest

from repro.clients import (AKAMAI_EGRESS, CLOUDFLARE_EGRESS, Client,
                           ClientProfile, ICPREgressNode, all_profiles,
                           figure2_clients, get_profile,
                           local_testbed_clients, table2_clients)
from repro.clients.icpr import (measure_egress_cad,
                                measure_egress_dns_timeout)
from repro.core.params import ResolutionPolicy
from repro.dns import RdataType
from repro.simnet import Family
from repro.testbed.topology import LocalTestbed


class TestRegistry:
    def test_figure2_has_17_rows(self):
        assert len(figure2_clients()) == 17

    def test_table2_has_nine_clients(self):
        assert len(table2_clients()) == 9

    def test_lookup_by_name_and_version(self):
        profile = get_profile("Chrome", "88.0")
        assert profile.released == "01-2021"

    def test_lookup_latest_by_name(self):
        profile = get_profile("Firefox")
        assert profile.version == "132.0"

    def test_unknown_client_raises(self):
        with pytest.raises(KeyError):
            get_profile("NetPositive")
        with pytest.raises(KeyError):
            get_profile("Chrome", "999")

    def test_chromium_family_shares_behaviour(self):
        cads = {get_profile(n, v).stack.racing.connection_attempt_delay
                for n, v in (("Chrome", "88.0"), ("Chrome", "130.0"),
                             ("Edge", "90.0"), ("Chromium", "130.0"))}
        assert cads == {0.300}

    def test_labels_match_figure2_format(self):
        assert get_profile("Chrome", "130.0").label == \
            "Chrome (130.0 10-2024)"

    def test_mobile_profiles_excluded_from_local_tests(self):
        locals_ = {p.full_name for p in local_testbed_clients()}
        assert "Mobile Safari 17.6" not in locals_
        assert "Chrome Mobile 130.0" not in locals_
        assert "Safari 17.6" in locals_

    def test_profile_validation(self):
        from repro.core.policy import PolicyStack

        with pytest.raises(ValueError):
            ClientProfile(name="X", version="1", released="01-2020",
                          engine_family="netscape", kind="browser",
                          stack=PolicyStack())

    def test_safari_profile_is_full_hev2(self):
        safari = get_profile("Safari", "17.6")
        assert safari.stack.racing.dynamic_cad
        assert safari.stack.resolution.resolution_delay == \
            pytest.approx(0.050)
        assert safari.stack.sorting.first_address_family_count == 2
        assert safari.implements_resolution_delay
        assert safari.nominal_cad is None  # dynamic

    def test_mobile_safari_caps_cad_at_1s(self):
        assert get_profile("Mobile Safari", "17.6").stack.racing \
            .maximum_cad == pytest.approx(1.0)

    def test_wget_has_no_he(self):
        wget = get_profile("wget", "1.21.3")
        assert not wget.implements_happy_eyeballs
        assert wget.nominal_cad is None

    def test_hev3_flag_changes_policy(self):
        chrome = get_profile("Chrome", "130.0")
        assert chrome.stack.resolution.mode is ResolutionPolicy.WAIT_BOTH
        flagged = chrome.with_hev3_flag()
        assert flagged.stack.resolution.mode is ResolutionPolicy.HE_V2
        assert flagged.stack.resolution.resolution_delay == \
            pytest.approx(0.050)

    def test_all_profiles_have_unique_keys(self):
        keys = [p.full_name for p in all_profiles()]
        assert len(keys) == len(set(keys))


class TestClientFetch:
    def test_fetch_returns_echoed_address(self):
        testbed = LocalTestbed(seed=51)
        client = Client(testbed.client, get_profile("curl", "7.88.1"),
                        testbed.resolver_addresses[:1])
        result = testbed.sim.run_until(
            client.fetch("www.he-test.example"))
        assert result.success
        assert result.used_family is Family.V6
        assert str(result.reported_address) == "2001:db8:1::1"

    def test_fetch_failure_carries_he_result(self):
        testbed = LocalTestbed(seed=52)
        hostname = testbed.add_domain("alldead", ["2001:db8:dead::1",
                                                  "203.0.113.7"])
        client = Client(testbed.client, get_profile("curl", "7.88.1"),
                        testbed.resolver_addresses[:1],
                        attempt_timeout=1.0)
        process = client.fetch(hostname)
        process.defused = True
        testbed.sim.run(until=20.0)
        result = process.value
        assert not result.success
        assert result.error is not None
        assert result.he.race is not None

    def test_firefox_outliers_are_rare_and_bounded(self):
        profile = get_profile("Firefox", "132.0")
        outliers = 0
        runs = 30
        for seed in range(runs):
            testbed = LocalTestbed(seed=1000 + seed)
            testbed.delay_ipv6_tcp(0.400)
            capture = testbed.start_client_capture()
            client = Client(testbed.client, profile,
                            testbed.resolver_addresses[:1])
            testbed.sim.run_until(client.fetch("www.he-test.example"))
            from repro.testbed.inference import CaptureObservation

            cad = CaptureObservation(capture, decode_dns=False).cad
            if cad > 0.260:
                outliers += 1
                assert cad <= 0.460  # bounded by outlier_extra_cad
        assert 0 < outliers < runs / 2  # rare but present


class TestICPR:
    def test_akamai_cad_crossover(self):
        outcomes = measure_egress_cad(AKAMAI_EGRESS, [100, 200], seed=1)
        assert outcomes[100] == "IPv6"
        assert outcomes[200] == "IPv4"

    def test_cloudflare_cad_crossover(self):
        outcomes = measure_egress_cad(CLOUDFLARE_EGRESS, [150, 250],
                                      seed=2)
        assert outcomes[150] == "IPv6"
        assert outcomes[250] == "IPv4"

    def test_operator_dns_timeouts(self):
        akamai = measure_egress_dns_timeout(AKAMAI_EGRESS,
                                            RdataType.AAAA)
        cloudflare = measure_egress_dns_timeout(CLOUDFLARE_EGRESS,
                                                RdataType.AAAA)
        assert akamai == pytest.approx(0.400, abs=0.020)
        assert cloudflare == pytest.approx(1.750, abs=0.050)

    def test_egress_hides_safari_features(self):
        """No RD, no address selection: HEv1-style via the relay."""
        assert AKAMAI_EGRESS.stack().resolution.mode is \
            ResolutionPolicy.WAIT_BOTH
        assert AKAMAI_EGRESS.stack().racing.max_attempts_per_family == 1

    def test_proxied_fetch_returns_payload(self):
        testbed = LocalTestbed(seed=53)
        egress = ICPREgressNode(testbed.client, AKAMAI_EGRESS,
                                testbed.resolver_addresses[:1])
        result, reply = testbed.sim.run_until(
            egress.proxied_fetch("www.he-test.example"))
        assert result.success
        assert b"200 OK" in reply
        assert egress.connections_proxied == 1
