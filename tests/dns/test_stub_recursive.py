"""Tests for the stub resolver, dual lookup, and resolver details."""

import pytest

from repro.dns import (DNSName, ForwardingResolver, Rcode, RdataType, Zone)
from repro.dns.auth import AuthoritativeServer
from repro.dns.errors import QueryTimeout
from repro.dns.rdata import CNAME
from repro.dns.stub import StubResolver
from repro.simnet import Family, Network


def make_lab(seed=0):
    net = Network(seed=seed)
    segment = net.add_segment("lab")
    client = net.add_host("client")
    server = net.add_host("server")
    net.connect(client, segment, ["192.0.2.1", "2001:db8::1"])
    net.connect(server, segment, ["192.0.2.53", "2001:db8::53"])
    return net, client, server


def standard_zone():
    zone = Zone("example.com")
    zone.add_address("www", "192.0.2.80")
    zone.add_address("www", "2001:db8::80")
    zone.add("alias", CNAME(DNSName.from_text("www.example.com")))
    zone.add_address("v4only", "192.0.2.81")
    return zone


class TestStubResolver:
    def test_basic_query(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        stub = StubResolver(client, ["192.0.2.53"])
        response = net.sim.run_until(
            stub.query("www.example.com", RdataType.A))
        assert response.rcode is Rcode.NOERROR
        assert [str(a) for a in response.addresses()] == ["192.0.2.80"]

    def test_timeout_then_retry_succeeds(self):
        net, client, server = make_lab()
        zone = standard_zone()
        auth = AuthoritativeServer(server, [zone]).start()
        # First attempt times out (answer delayed past stub timeout);
        # the stub's retry also sees the same delay, then gives up.
        auth.static_delays[RdataType.A] = 10.0
        stub = StubResolver(client, ["192.0.2.53"], timeout=1.0, retries=1)
        process = stub.query("www.example.com", RdataType.A)
        process.defused = True
        net.sim.run(until=30.0)
        assert isinstance(process.exception, QueryTimeout)
        # One initial try + one retry were sent.
        assert stub.queries_sent == 2

    def test_second_nameserver_used_after_timeout(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        # First nameserver address does not exist (blackhole).
        stub = StubResolver(client, ["192.0.2.99", "192.0.2.53"],
                            timeout=0.5, retries=0)
        response = net.sim.run_until(
            stub.query("www.example.com", RdataType.A))
        assert response.rcode is Rcode.NOERROR
        assert net.sim.now >= 0.5  # waited out the dead server first

    def test_requires_nameserver(self):
        net, client, _ = make_lab()
        with pytest.raises(ValueError):
            StubResolver(client, [])

    def test_cname_answer_passes_through(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        stub = StubResolver(client, ["192.0.2.53"])
        response = net.sim.run_until(
            stub.query("alias.example.com", RdataType.A))
        rtypes = [rr.rtype for rr in response.answers]
        assert RdataType.CNAME in rtypes
        assert RdataType.A in rtypes


class TestDualLookup:
    def test_aaaa_first_order_observed_on_wire(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        capture = client.start_capture()
        stub = StubResolver(client, ["192.0.2.53"])
        dual = stub.lookup_dual("www.example.com",
                                first=RdataType.AAAA)
        net.sim.run_until(net.sim.all_of([dual.aaaa, dual.a]))
        from repro.testbed.inference import CaptureObservation

        order = CaptureObservation(capture).query_order
        assert order == [RdataType.AAAA, RdataType.A]

    def test_a_first_order(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        capture = client.start_capture()
        stub = StubResolver(client, ["192.0.2.53"])
        dual = stub.lookup_dual("www.example.com", first=RdataType.A)
        net.sim.run_until(net.sim.all_of([dual.aaaa, dual.a]))
        from repro.testbed.inference import CaptureObservation

        assert CaptureObservation(capture).query_order == \
            [RdataType.A, RdataType.AAAA]

    def test_gap_delays_second_query(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        stub = StubResolver(client, ["192.0.2.53"])
        dual = stub.lookup_dual("www.example.com",
                                first=RdataType.AAAA, gap=0.030)
        net.sim.run_until(net.sim.all_of([dual.aaaa, dual.a]))
        aaaa, a = dual.aaaa.value, dual.a.value
        assert a.asked_at - aaaa.asked_at == pytest.approx(0.030)

    def test_nodata_answer_is_unusable(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()]).start()
        stub = StubResolver(client, ["192.0.2.53"])
        dual = stub.lookup_dual("v4only.example.com")
        net.sim.run_until(net.sim.all_of([dual.aaaa, dual.a]))
        assert not dual.aaaa.value.usable
        assert dual.a.value.usable

    def test_invalid_first_type_rejected(self):
        net, client, server = make_lab()
        stub = StubResolver(client, ["192.0.2.53"])
        with pytest.raises(ValueError):
            stub.lookup_dual("www.example.com", first=RdataType.TXT)

    def test_latency_recorded(self):
        net, client, server = make_lab()
        auth = AuthoritativeServer(server, [standard_zone()]).start()
        auth.static_delays[RdataType.AAAA] = 0.120
        stub = StubResolver(client, ["192.0.2.53"])
        dual = stub.lookup_dual("www.example.com")
        net.sim.run_until(net.sim.all_of([dual.aaaa, dual.a]))
        assert dual.aaaa.value.latency == pytest.approx(0.120, abs=0.005)
        assert dual.a.value.latency < 0.010


class TestForwardingResolver:
    def test_forwards_and_answers(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()],
                            port=5353).start()
        forwarder = ForwardingResolver(server, upstream="192.0.2.53",
                                       upstream_port=5353).start()
        stub = StubResolver(client, ["192.0.2.53"])
        response = net.sim.run_until(
            stub.query("www.example.com", RdataType.A))
        assert response.rcode is Rcode.NOERROR
        assert forwarder.forwarded == 1

    def test_upstream_timeout_yields_servfail(self):
        net, client, server = make_lab()
        auth = AuthoritativeServer(server, [standard_zone()],
                                   port=5353).start()
        auth.static_delays[RdataType.AAAA] = 10.0
        forwarder = ForwardingResolver(server, upstream="192.0.2.53",
                                       upstream_port=5353,
                                       upstream_timeout=1.0).start()
        stub = StubResolver(client, ["192.0.2.53"])
        response = net.sim.run_until(
            stub.query("www.example.com", RdataType.AAAA))
        assert response.rcode is Rcode.SERVFAIL
        assert net.sim.now == pytest.approx(1.0, abs=0.010)
        assert forwarder.servfails == 1

    def test_stop_closes_socket(self):
        net, client, server = make_lab()
        AuthoritativeServer(server, [standard_zone()], port=5353).start()
        forwarder = ForwardingResolver(server, upstream="192.0.2.53",
                                       upstream_port=5353).start()
        forwarder.stop()
        stub = StubResolver(client, ["192.0.2.53"], timeout=0.5,
                            retries=0)
        process = stub.query("www.example.com", RdataType.A)
        process.defused = True
        net.sim.run(until=5.0)
        assert isinstance(process.exception, QueryTimeout)
