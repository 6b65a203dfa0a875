"""Tests for HEv3 SVCB-driven candidate building and ordering."""

import ipaddress

import pytest

from repro.core.policy import hev3_draft_stack
from repro.core.svcb import (ServiceCandidate, candidates_from_addresses,
                             candidates_from_svcb, order_candidates)
from repro.dns import DNSName, HTTPS, SVCB
from repro.simnet import Family, Protocol


def name(text):
    return DNSName.from_text(text)


def addr(text):
    return ipaddress.ip_address(text)


V6A, V6B = "2001:db8::1", "2001:db8::2"
V4A, V4B = "192.0.2.1", "192.0.2.2"


class TestCandidateBuilding:
    def test_plain_addresses_become_tcp_candidates(self):
        out = candidates_from_addresses([V6A, V4A], 443)
        assert len(out) == 2
        assert all(c.protocol is Protocol.TCP for c in out)
        assert all(c.port == 443 for c in out)

    def test_svcb_h3_alpn_yields_quic(self):
        record = HTTPS.service(1, name("svc.example"), alpn=("h3",))
        out = candidates_from_svcb([record], [V6A], 443)
        assert {c.protocol for c in out} == {Protocol.QUIC}

    def test_mixed_alpn_yields_both_protocols(self):
        record = HTTPS.service(1, name("svc.example"), alpn=("h3", "h2"))
        out = candidates_from_svcb([record], [V6A], 443)
        assert {c.protocol for c in out} == {Protocol.QUIC, Protocol.TCP}

    def test_no_alpn_defaults_to_tcp(self):
        record = HTTPS.service(1, name("svc.example"))
        out = candidates_from_svcb([record], [V6A], 443)
        assert {c.protocol for c in out} == {Protocol.TCP}

    def test_address_hints_override_resolved(self):
        record = HTTPS.service(1, name("svc.example"), alpn=("h2",),
                               ipv6_hints=(V6B,), ipv4_hints=(V4B,))
        out = candidates_from_svcb([record], [V6A, V4A], 443)
        addresses = {str(c.address) for c in out}
        assert addresses == {V6B, V4B}

    def test_svcb_port_parameter(self):
        record = HTTPS.service(1, name("svc.example"), alpn=("h2",),
                               port=8443)
        out = candidates_from_svcb([record], [V6A], 443)
        assert all(c.port == 8443 for c in out)

    def test_alias_mode_records_ignored(self):
        alias = SVCB(0, name("alias.example"))
        out = candidates_from_svcb([alias], [V6A], 443)
        assert out == []

    def test_priority_orders_records(self):
        low = HTTPS.service(2, name("b.example"), alpn=("h2",),
                            ipv6_hints=(V6B,))
        high = HTTPS.service(1, name("a.example"), alpn=("h2",),
                             ipv6_hints=(V6A,))
        out = candidates_from_svcb([low, high], [], 443)
        assert str(out[0].address) == V6A

    def test_ech_flag_carried(self):
        record = HTTPS.service(1, name("svc.example"), alpn=("h3",),
                               ech=True)
        out = candidates_from_svcb([record], [V6A], 443)
        assert all(c.ech for c in out)


class TestOrdering:
    def make(self, address, protocol, ech=False):
        return ServiceCandidate(address=addr(address), protocol=protocol,
                                port=443, ech=ech)

    def test_ech_beats_everything(self):
        plain_quic = self.make(V6A, Protocol.QUIC)
        ech_tcp = self.make(V6B, Protocol.TCP, ech=True)
        out = order_candidates([plain_quic, ech_tcp],
                               hev3_draft_stack().sorting)
        assert out[0] is ech_tcp

    def test_quic_beats_tcp_within_same_ech_class(self):
        tcp = self.make(V6A, Protocol.TCP)
        quic = self.make(V6B, Protocol.QUIC)
        out = order_candidates([tcp, quic], hev3_draft_stack().sorting)
        assert out[0] is quic

    def test_families_interlaced_within_bucket(self):
        candidates = [self.make(V6A, Protocol.TCP),
                      self.make(V6B, Protocol.TCP),
                      self.make(V4A, Protocol.TCP),
                      self.make(V4B, Protocol.TCP)]
        out = order_candidates(candidates, hev3_draft_stack().sorting)
        families = [c.family for c in out]
        assert families[:2] == [Family.V6, Family.V4]

    def test_preference_rank(self):
        ech_quic = self.make(V6A, Protocol.QUIC, ech=True)
        plain_tcp = self.make(V4A, Protocol.TCP)
        assert ech_quic.preference_rank() < plain_tcp.preference_rank()

    def test_str_rendering(self):
        candidate = self.make(V6A, Protocol.QUIC, ech=True)
        assert "quic" in str(candidate)
        assert "+ech" in str(candidate)
