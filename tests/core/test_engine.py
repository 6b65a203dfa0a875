"""End-to-end tests for the Happy Eyeballs engine on the testbed."""

import pytest

from repro.clients import Client, get_profile
from repro.core import (HEEventKind, HappyEyeballsError, HistoryStore,
                        ResolutionPolicy, rfc8305_stack)
from repro.core.engine import HappyEyeballsEngine
from repro.dns import RdataType
from repro.dns.stub import StubResolver
from repro.simnet import Family
from repro.testbed.topology import LocalTestbed
from repro.testbed.inference import CaptureObservation


def make_engine(testbed, stack, **kwargs):
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    return HappyEyeballsEngine(testbed.client, stub, stack, **kwargs)


class TestEngineBasics:
    def test_connects_over_ipv6_when_healthy(self):
        testbed = LocalTestbed(seed=1)
        engine = make_engine(testbed, rfc8305_stack())
        process = engine.connect("www.he-test.example")
        result = testbed.sim.run_until(process)
        assert result.success
        assert result.winning_family is Family.V6

    def test_falls_back_to_ipv4_beyond_cad(self):
        testbed = LocalTestbed(seed=1)
        testbed.delay_ipv6_tcp(0.400)  # > 250 ms CAD
        engine = make_engine(testbed, rfc8305_stack())
        process = engine.connect("www.he-test.example")
        result = testbed.sim.run_until(process)
        assert result.winning_family is Family.V4

    def test_stays_on_ipv6_below_cad(self):
        testbed = LocalTestbed(seed=1)
        testbed.delay_ipv6_tcp(0.100)  # < 250 ms CAD
        engine = make_engine(testbed, rfc8305_stack())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V6

    def test_cad_observed_in_capture(self):
        testbed = LocalTestbed(seed=1)
        testbed.delay_ipv6_tcp(0.500)
        capture = testbed.start_client_capture()
        engine = make_engine(testbed, rfc8305_stack())
        testbed.sim.run_until(engine.connect("www.he-test.example"))
        cad = CaptureObservation(capture).cad
        assert cad == pytest.approx(0.250, abs=0.002)

    def test_no_addresses_raises(self):
        testbed = LocalTestbed(seed=1)
        engine = make_engine(testbed, rfc8305_stack())
        process = engine.connect("bare.nxdomain-zone.example")
        with pytest.raises(HappyEyeballsError):
            testbed.sim.run_until(process)

    def test_outcome_cached_after_win(self):
        testbed = LocalTestbed(seed=1)
        engine = make_engine(testbed, rfc8305_stack())
        testbed.sim.run_until(engine.connect("www.he-test.example"))
        cached = engine.cache.lookup("www.he-test.example",
                                     testbed.sim.now)
        assert cached is not None
        assert cached.family is Family.V6

    def test_trace_records_the_figure1_sequence(self):
        testbed = LocalTestbed(seed=1)
        engine = make_engine(testbed, rfc8305_stack())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        kinds = [event.kind for event in result.trace]
        assert kinds[0] is HEEventKind.CONNECT_REQUESTED
        assert HEEventKind.QUERY_SENT in kinds
        assert HEEventKind.ANSWER_RECEIVED in kinds
        assert HEEventKind.ATTEMPT_STARTED in kinds
        assert kinds[-1] is HEEventKind.CONNECTION_WON


class TestResolutionBehaviors:
    def test_hev2_rd_expires_with_delayed_aaaa(self):
        """AAAA delayed 1 s: RFC 8305 client goes IPv4 after RD=50 ms."""
        testbed = LocalTestbed(seed=2)
        testbed.set_dns_delay(RdataType.AAAA, 1.0)
        capture = testbed.start_client_capture()
        engine = make_engine(testbed, rfc8305_stack())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V4
        assert result.time_to_connect < 0.100  # RD + handshake, not 1 s
        rd = CaptureObservation(capture).resolution_delay
        assert rd == pytest.approx(0.050, abs=0.005)

    def test_wait_both_stalls_on_delayed_aaaa(self):
        """The §5.2 behaviour: no own timeout, waits the full AAAA delay."""
        testbed = LocalTestbed(seed=2)
        testbed.set_dns_delay(RdataType.AAAA, 1.0)
        stack = rfc8305_stack().with_resolution(
            mode=ResolutionPolicy.WAIT_BOTH)
        engine = make_engine(testbed, stack)
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.time_to_connect > 1.0

    def test_wait_both_stalls_ipv6_on_delayed_a(self):
        """Delayed *A* stalls even the IPv6 connection (the pathology)."""
        testbed = LocalTestbed(seed=2)
        testbed.set_dns_delay(RdataType.A, 0.800)
        stack = rfc8305_stack().with_resolution(
            mode=ResolutionPolicy.WAIT_BOTH)
        engine = make_engine(testbed, stack)
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V6
        assert result.time_to_connect > 0.800

    def test_hev2_immune_to_delayed_a(self):
        """RFC 8305 client starts IPv6 immediately when AAAA is first."""
        testbed = LocalTestbed(seed=2)
        testbed.set_dns_delay(RdataType.A, 0.800)
        engine = make_engine(testbed, rfc8305_stack())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V6
        assert result.time_to_connect < 0.100

    def test_late_aaaa_joins_running_race(self):
        """AAAA arriving after RD still gets attempted if v4 is slow."""
        testbed = LocalTestbed(seed=2)
        testbed.set_dns_delay(RdataType.AAAA, 0.200)  # > RD (50 ms)
        testbed.delay_ipv6_tcp(0.0)  # v6 healthy once known
        # Slow the IPv4 handshake so the race is still open at 200 ms.
        from repro.simnet import NetemFilter, NetemRule, NetemSpec, Protocol
        testbed.server_iface.egress.add_rule(NetemRule(
            spec=NetemSpec(delay=0.500),
            filter=NetemFilter(family=Family.V4, protocol=Protocol.TCP)))
        engine = make_engine(testbed, rfc8305_stack())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V6
        late = result.trace.of_kind(HEEventKind.LATE_ADDRESSES_ADDED)
        assert len(late) == 1


class TestDynamicCad:
    def test_no_history_uses_maximum_cad(self):
        """Safari's local-testbed behaviour: fresh state -> 2 s CAD."""
        testbed = LocalTestbed(seed=3)
        testbed.delay_ipv6_tcp(0.500)
        stack = rfc8305_stack().with_racing(
            dynamic_cad=True, maximum_cad=2.0)
        capture = testbed.start_client_capture()
        engine = make_engine(testbed, stack, history=HistoryStore())
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        # 500 ms < 2 s CAD: IPv6 still wins, no IPv4 attempt at all.
        assert result.winning_family is Family.V6
        assert CaptureObservation(capture).cad is None

    def test_history_shrinks_cad(self):
        testbed = LocalTestbed(seed=3)
        testbed.delay_ipv6_tcp(0.500)
        history = HistoryStore()
        from repro.simnet import parse_address
        history.record_success(parse_address("2001:db8:1::10"),
                               rtt=0.020, now=0.0)
        stack = rfc8305_stack().with_racing(
            dynamic_cad=True, minimum_cad=0.010, maximum_cad=2.0)
        capture = testbed.start_client_capture()
        engine = make_engine(testbed, stack, history=history)
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        # CAD = 2 * 20 ms = 40 ms << 500 ms delay: IPv4 wins.
        assert result.winning_family is Family.V4
        assert CaptureObservation(capture).cad == pytest.approx(0.040,
                                                                abs=0.005)


class TestClientModels:
    @pytest.mark.parametrize("name,version,expected_cad", [
        ("Chrome", "130.0", 0.300),
        ("Edge", "130.0", 0.300),
        ("Firefox", "132.0", 0.250),
        ("curl", "7.88.1", 0.200),
    ])
    def test_fixed_cad_clients(self, name, version, expected_cad):
        testbed = LocalTestbed(seed=4)
        testbed.delay_ipv6_tcp(expected_cad + 0.150)
        capture = testbed.start_client_capture()
        client = Client(testbed.client, get_profile(name, version),
                        testbed.resolver_addresses[:1])
        result = testbed.sim.run_until(
            client.fetch("www.he-test.example"))
        assert result.used_family is Family.V4
        assert CaptureObservation(capture).cad == pytest.approx(
            expected_cad, abs=0.010)

    def test_wget_never_falls_back(self):
        testbed = LocalTestbed(seed=4)
        testbed.delay_ipv6_tcp(0.400)
        capture = testbed.start_client_capture()
        client = Client(testbed.client, get_profile("wget", "1.21.3"),
                        testbed.resolver_addresses[:1])
        result = testbed.sim.run_until(
            client.fetch("www.he-test.example"))
        # Still IPv6, just slow; and no IPv4 attempt was ever made.
        assert result.used_family is Family.V6
        assert capture.first_connection_attempt(Family.V4) is None

    def test_safari_full_hev2(self):
        testbed = LocalTestbed(seed=4)
        testbed.set_dns_delay(RdataType.AAAA, 1.0)
        capture = testbed.start_client_capture()
        client = Client(testbed.client, get_profile("Safari", "17.6"),
                        testbed.resolver_addresses[:1],
                        history=HistoryStore())
        result = testbed.sim.run_until(
            client.fetch("www.he-test.example"))
        assert result.used_family is Family.V4
        rd = CaptureObservation(capture).resolution_delay
        assert rd == pytest.approx(0.050, abs=0.005)

    def test_fetch_reports_echoed_source_address(self):
        testbed = LocalTestbed(seed=4)
        client = Client(testbed.client, get_profile("Chrome", "130.0"),
                        testbed.resolver_addresses[:1])
        result = testbed.sim.run_until(
            client.fetch("www.he-test.example"))
        assert str(result.reported_address) == "2001:db8:1::1"

    def test_hev3_flag_fixes_delayed_a_stall(self):
        profile = get_profile("Chrome", "130.0")
        for flag, expect_fast in ((False, False), (True, True)):
            testbed = LocalTestbed(seed=5)
            testbed.set_dns_delay(RdataType.A, 2.0)
            client = Client(testbed.client, profile,
                            testbed.resolver_addresses[:1], hev3_flag=flag)
            result = testbed.sim.run_until(
                client.fetch("www.he-test.example"))
            ttc = result.he.time_to_connect
            if expect_fast:
                assert ttc < 0.100
            else:
                assert ttc > 2.0

    def test_hev3_flag_unavailable_on_old_versions(self):
        with pytest.raises(ValueError):
            get_profile("Chrome", "88.0").with_hev3_flag()
