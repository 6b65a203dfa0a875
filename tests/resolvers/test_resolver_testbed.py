"""Tests for the recursive resolver engine and the resolver testbed."""

import pytest

from repro.dns.nsselect import GluePlan, ResolverBehavior
from repro.experiments import Session
from repro.resolvers import (BIND9, KNOT, UNBOUND, ResolverTestbed,
                             evaluated_services, excluded_services,
                             probe_ipv6_only_capability,
                             run_resolver_campaign)
from repro.simnet import Family


class TestIterativeResolution:
    def test_delegation_walk_succeeds(self):
        testbed = ResolverTestbed(BIND9, seed=1)
        observation = testbed.run()
        assert observation.success
        assert observation.first_probe_family is not None

    def test_bind_always_prefers_ipv6(self):
        for seed in range(5):
            testbed = ResolverTestbed(BIND9, seed=seed, zone_index=seed)
            observation = testbed.run()
            assert observation.first_probe_family is Family.V6

    def test_bind_falls_back_after_800ms(self):
        testbed = ResolverTestbed(BIND9, seed=2, delay_ms=1200)
        observation = testbed.run()
        assert observation.success
        assert observation.answering_family is Family.V4
        assert observation.fallback_gap_s == pytest.approx(0.800, abs=0.010)

    def test_bind_uses_ipv6_below_timeout(self):
        testbed = ResolverTestbed(BIND9, seed=3, delay_ms=500)
        observation = testbed.run()
        assert observation.answering_family is Family.V6
        assert observation.v6_packets == 1

    def test_bind_queries_a_before_aaaa_for_ns(self):
        testbed = ResolverTestbed(BIND9, seed=4)
        observation = testbed.run()
        assert observation.aaaa_before_a is False
        assert observation.aaaa_before_probe is True

    def test_unbound_queries_aaaa_before_a(self):
        testbed = ResolverTestbed(UNBOUND, seed=5)
        observation = testbed.run()
        assert observation.aaaa_before_a is True

    def test_unbound_retry_has_exponential_backoff(self):
        # Find a seed where Unbound retries IPv6 (44 % chance).
        for seed in range(40):
            testbed = ResolverTestbed(UNBOUND, seed=seed, delay_ms=2000,
                                      zone_index=seed)
            observation = testbed.run()
            if observation.first_probe_family is not Family.V6:
                continue
            if observation.v6_packets == 2:
                # Retry fired 376 ms after the first attempt.
                assert observation.success
                break
        else:
            pytest.fail("no Unbound IPv6 retry observed in 40 seeds")

    def test_knot_sends_single_ns_address_query(self):
        testbed = ResolverTestbed(KNOT, seed=6)
        testbed.run()
        from repro.dns.name import DNSName
        from repro.dns.rdata import RdataType

        ns_name = DNSName.from_text(testbed.ns_name)
        qtypes = {entry.qtype for entry in testbed.auth.query_log
                  if entry.qname == ns_name}
        assert len(qtypes) == 1
        assert qtypes <= {RdataType.A, RdataType.AAAA}

    def test_sticky_family_resolver_fails_rather_than_switch(self):
        sticky = ResolverBehavior(
            name="sticky", v6_preference=1.0, attempt_timeout=0.2,
            max_queries_per_address=2, switch_family_on_failure=False)
        testbed = ResolverTestbed(sticky, seed=7, delay_ms=5000)
        observation = testbed.run()
        assert not observation.success
        assert observation.v4_packets == 0


class TestCampaigns:
    def test_campaign_share_tracks_preference(self):
        result = run_resolver_campaign(UNBOUND, delays_ms=[0],
                                       repetitions=40,
                                       session=Session(seed=8))
        assert result.runs == 40
        assert 25.0 < result.ipv6_share < 75.0

    def test_campaign_max_delay_equals_timeout(self):
        result = run_resolver_campaign(
            BIND9, delays_ms=[400, 700, 800, 900, 1200], repetitions=1,
            session=Session(seed=9))
        # One-way shaping: usable until the delay exceeds the 800 ms
        # attempt timeout.
        assert result.max_ipv6_delay_ms == 800

    def test_opendns_model_he_style(self):
        from repro.resolvers import OPEN_RESOLVER_BY_NAME

        opendns = OPEN_RESOLVER_BY_NAME["OpenDNS"].behavior
        result = run_resolver_campaign(opendns, delays_ms=[200],
                                       repetitions=3,
                                       session=Session(seed=10))
        assert result.ipv6_share == 100.0
        gap = result.median_fallback_gap_ms()
        assert gap == pytest.approx(50.0, abs=5.0)


class TestCapabilityProbe:
    def test_dual_stack_resolver_passes(self):
        assert probe_ipv6_only_capability(BIND9, dual_stack_resolver=True)

    def test_v4_only_resolver_fails(self):
        assert not probe_ipv6_only_capability(
            BIND9, dual_stack_resolver=False)

    def test_excluded_services_match_paper(self):
        names = {s.service for s in excluded_services()}
        assert names == {"Hurricane Electric", "Lumen (Level3)", "DYN",
                         "G-Core"}

    def test_thirteen_services_evaluated(self):
        assert len(evaluated_services()) == 13
