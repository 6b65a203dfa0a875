"""Single-pass capture observation vs the legacy multi-scan inference.

``CaptureObservation`` walks a capture once and decodes each DNS
payload at most once.  These tests check it against straight-line
reference implementations of the legacy helpers (the pre-refactor
multi-scan code, preserved here as the oracle) on captures from three
test-case kinds, and assert the single-decode guarantee via a decode
counter.
"""

from typing import List, Optional, Tuple

import pytest

from repro.clients import Client, get_profile
from repro.core.sortlist import HistoryStore
from repro.dns.errors import MessageError
from repro.dns.message import INTERN_TABLE, DNSMessage
from repro.dns.rdata import RdataType
from repro.simnet.addr import Family
from repro.simnet.capture import Direction, PacketCapture
from repro.simnet.packet import Packet, Protocol
from repro.testbed import (CaptureObservation, TestCaseConfig, TestCaseKind,
                           SweepSpec, address_selection_case,
                           modules_for, rd_case)
from repro.testbed.modules import AddressSelectionModule, CaptureModule
from repro.testbed.topology import LocalTestbed


# --------------------------------------------------------------------------
# Reference implementations: the legacy per-function, multi-scan logic.
# --------------------------------------------------------------------------


def ref_established_family(capture: PacketCapture) -> Optional[Family]:
    for frame in capture:
        packet = frame.packet
        if frame.direction is Direction.IN and packet.is_syn_ack:
            return packet.family
        if (frame.direction is Direction.IN
                and packet.protocol is Protocol.QUIC
                and packet.quic_type is not None
                and packet.quic_type.value == "handshake"):
            return packet.family
    return None


def ref_infer_cad(capture: PacketCapture) -> Optional[float]:
    first_v6 = capture.first_connection_attempt(Family.V6)
    first_v4 = capture.first_connection_attempt(Family.V4)
    if first_v6 is None or first_v4 is None:
        return None
    return first_v4.timestamp - first_v6.timestamp


def ref_attempt_sequence(capture: PacketCapture
                         ) -> List[Tuple[float, Family]]:
    seen = set()
    sequence: List[Tuple[float, Family]] = []
    for frame in capture.connection_attempts():
        packet = frame.packet
        key = (packet.dst, packet.dport, packet.sport)
        if key in seen:
            continue
        seen.add(key)
        sequence.append((frame.timestamp, packet.family))
    return sequence


def ref_attempts_per_family(capture: PacketCapture) -> dict:
    counts = {Family.V4: 0, Family.V6: 0}
    seen = set()
    for frame in capture.connection_attempts():
        packet = frame.packet
        key = (packet.dst, packet.dport)
        if key in seen:
            continue
        seen.add(key)
        counts[packet.family] += 1
    return counts


def ref_dns_pairs(capture: PacketCapture
                  ) -> List[Tuple[RdataType, float, Optional[float]]]:
    queries: dict = {}
    order: List[Tuple[int, RdataType, float]] = []
    responses: dict = {}
    for frame in capture:
        packet = frame.packet
        if packet.protocol is not Protocol.UDP:
            continue
        try:
            message = DNSMessage.decode(packet.payload)
        except Exception:
            continue
        if not message.questions:
            continue
        rtype = message.question.rtype
        if not message.qr and frame.direction is Direction.OUT:
            key = (message.id, rtype)
            if key not in queries:
                queries[key] = frame.timestamp
                order.append((message.id, rtype, frame.timestamp))
        elif message.qr and frame.direction is Direction.IN:
            responses.setdefault((message.id, rtype), frame.timestamp)
    return [(rtype, sent_at, responses.get((message_id, rtype)))
            for message_id, rtype, sent_at in order]


def ref_aaaa_before_a(capture: PacketCapture) -> Optional[bool]:
    order = [rtype for rtype, _, _ in ref_dns_pairs(capture)]
    if RdataType.AAAA not in order or RdataType.A not in order:
        return None
    return order.index(RdataType.AAAA) < order.index(RdataType.A)


def ref_resolution_delay(capture: PacketCapture) -> Optional[float]:
    a_response = next((response_at
                       for rtype, _, response_at in ref_dns_pairs(capture)
                       if rtype is RdataType.A and response_at is not None),
                      None)
    if a_response is None:
        return None
    first_v4 = capture.first_connection_attempt(Family.V4)
    if first_v4 is None or first_v4.timestamp < a_response:
        return None
    return first_v4.timestamp - a_response


def ref_time_to_first_attempt(capture: PacketCapture) -> Optional[float]:
    pairs = ref_dns_pairs(capture)
    if not pairs:
        return None
    first_query = min(sent_at for _, sent_at, _ in pairs)
    attempts = capture.connection_attempts()
    if not attempts:
        return None
    return attempts[0].timestamp - first_query


# --------------------------------------------------------------------------
# Capture harvesting: one isolated run per (case, client), like run_single.
# --------------------------------------------------------------------------


def run_and_capture(case: TestCaseConfig, client_name: str,
                    version: str, value_ms: int,
                    seed: int = 31) -> PacketCapture:
    profile = get_profile(client_name, version)
    testbed = LocalTestbed(seed=seed)
    modules = modules_for(case)
    for module in modules:
        module.on_case_start(testbed, case)
    for module in modules:
        module.on_run_start(testbed, case, value_ms, "v0r0")
    hostname = None
    capture = None
    for module in modules:
        if isinstance(module, AddressSelectionModule):
            hostname = module.last_hostname
        if isinstance(module, CaptureModule):
            capture = module.capture
    if hostname is None:
        hostname = testbed.unique_hostname(f"{case.kind.value}-v0r0")
    client = Client(testbed.client, profile,
                    testbed.resolver_addresses[:1], history=HistoryStore())
    process = client.connect(hostname)
    process.defused = True
    testbed.sim.run(until=testbed.sim.now + case.run_timeout)
    for module in modules:
        module.on_run_end(testbed, case, value_ms)
    assert capture is not None and len(capture) > 0
    return capture


CASES = [
    ("cad-below", TestCaseConfig(
        name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
        sweep=SweepSpec.fixed(0)), "Chrome", "130.0", 0),
    ("cad-above", TestCaseConfig(
        name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
        sweep=SweepSpec.fixed(400)), "Chrome", "130.0", 400),
    ("rd", rd_case(), "Safari", "17.6", 1500),
    ("rd-chrome", rd_case(), "Chrome", "130.0", 1000),
    ("addr-sel", address_selection_case(5), "Safari", "17.6", 0),
    ("addr-sel-wget", address_selection_case(3), "wget", "1.21.3", 0),
]


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def harvested(request):
    _, case, name, version, value_ms = request.param
    return run_and_capture(case, name, version, value_ms)


class TestObservationMatchesLegacy:
    def test_all_fields_match_reference(self, harvested):
        observation = CaptureObservation(harvested)
        assert observation.established_family == \
            ref_established_family(harvested)
        assert observation.cad == ref_infer_cad(harvested)
        assert observation.attempt_sequence == \
            ref_attempt_sequence(harvested)
        assert observation.attempts_per_family == \
            ref_attempts_per_family(harvested)
        assert [(o.rtype, o.query_at, o.response_at)
                for o in observation.dns_observations] == \
            ref_dns_pairs(harvested)
        assert observation.aaaa_first == ref_aaaa_before_a(harvested)
        assert observation.resolution_delay == \
            ref_resolution_delay(harvested)
        assert observation.time_to_first_attempt == \
            ref_time_to_first_attempt(harvested)


class TestSingleDecode:
    def test_each_dns_payload_decoded_exactly_once(self, harvested,
                                                   monkeypatch):
        udp_frames = sum(1 for frame in harvested
                         if frame.packet.protocol is Protocol.UDP)
        unique_payloads = len({frame.packet.payload for frame in harvested
                               if frame.packet.protocol is Protocol.UDP})
        assert udp_frames > 0
        calls = {"n": 0}
        original = DNSMessage.decode

        def counting_decode(payload):
            calls["n"] += 1
            return original(payload)

        monkeypatch.setattr(DNSMessage, "decode",
                            staticmethod(counting_decode))
        INTERN_TABLE.clear()
        observation = CaptureObservation(harvested)
        # Each *distinct* payload decodes once; duplicates intern.
        assert calls["n"] == unique_payloads
        assert observation.dns_payloads_decoded == unique_payloads
        assert (observation.dns_payloads_decoded
                + observation.dns_payloads_interned) == udp_frames
        # Reading every derived field must not trigger re-decodes.
        _ = (observation.cad, observation.aaaa_first,
             observation.resolution_delay,
             observation.time_to_first_attempt, observation.query_order,
             observation.established_family, observation.attempt_sequence,
             observation.attempts_per_family)
        assert calls["n"] == unique_payloads
        # A second observation of the same capture is fully interned.
        second = CaptureObservation(harvested)
        assert calls["n"] == unique_payloads
        assert second.dns_payloads_decoded == 0
        assert second.dns_payloads_interned == udp_frames
        assert [(o.rtype, o.query_at, o.response_at)
                for o in second.dns_observations] == \
            [(o.rtype, o.query_at, o.response_at)
             for o in observation.dns_observations]

    def test_decode_dns_false_skips_all_decoding(self, harvested,
                                                 monkeypatch):
        calls = {"n": 0}
        original = DNSMessage.decode

        def counting_decode(payload):
            calls["n"] += 1
            return original(payload)

        monkeypatch.setattr(DNSMessage, "decode",
                            staticmethod(counting_decode))
        observation = CaptureObservation(harvested, decode_dns=False)
        assert calls["n"] == 0
        assert observation.dns_payloads_decoded == 0
        assert observation.dns_observations == []
        # Connection-level fields still match the full observation.
        full = CaptureObservation(harvested)
        assert observation.established_family == full.established_family
        assert observation.cad == full.cad
        assert observation.attempt_sequence == full.attempt_sequence
        assert observation.attempts_per_family == full.attempts_per_family

    def test_decode_counter_drops_across_repetitions(self):
        """Repetition-heavy campaigns intern DNS payloads: repetitions
        of the same (case, value) emit byte-identical queries and
        answers (value-scoped hostnames, per-stub deterministic query
        ids), so only the first repetition's observation pays any
        decode cost — every later repetition is fully interned."""
        from repro.seeding import stable_run_seed

        case = TestCaseConfig(
            name="rep-heavy", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
            sweep=SweepSpec.fixed(100), repetitions=5)
        captures = [
            run_and_capture(case, "Chrome", "130.0", 100,
                            seed=stable_run_seed(17, case.name,
                                                 "Chrome 130.0", 100,
                                                 repetition))
            for repetition in range(case.repetitions)]
        # The runner derives the hostname from (kind, value) only, so
        # all repetitions must have produced identical payload *sets*.
        payload_sets = [{frame.packet.payload for frame in capture
                         if frame.packet.protocol is Protocol.UDP}
                        for capture in captures]
        assert all(payloads == payload_sets[0]
                   for payloads in payload_sets[1:])

        INTERN_TABLE.clear()
        observations = [CaptureObservation(capture)
                        for capture in captures]
        first, rest = observations[0], observations[1:]
        assert first.dns_payloads_decoded == len(payload_sets[0])
        # Repetitions 2..N decode nothing at all.
        assert all(obs.dns_payloads_decoded == 0 for obs in rest)
        assert all(obs.dns_payloads_interned > 0 for obs in rest)
        # And the interned observations still read identically.
        for obs in rest:
            assert obs.query_order == first.query_order
            assert obs.aaaa_first == first.aaaa_first

    def test_endpoint_decodes_count_as_capture_hits(self):
        """Endpoints and captures share one intern table: the stub and
        the resolver decode every DNS payload of a run as it arrives,
        so observing that run's capture afterwards decodes nothing."""
        INTERN_TABLE.clear()
        capture = run_and_capture(*CASES[0][1:])
        observation = CaptureObservation(capture)
        udp_frames = sum(1 for frame in capture
                         if frame.packet.protocol is Protocol.UDP)
        assert udp_frames > 0
        assert observation.dns_payloads_decoded == 0
        assert observation.dns_payloads_interned == udp_frames
        assert observation.dns_observations

    def test_undecodable_payload_reads_as_no_message(self):
        garbage = b"\x00\x01garbage"  # shorter than a DNS header
        capture = PacketCapture()
        for _ in range(2):
            capture.record(0.0, Direction.OUT, Packet(
                "2001:db8::1", "2001:db8::53", Protocol.UDP, 5353, 53,
                payload=garbage))
        observation = CaptureObservation(capture)
        # Failures are never interned: each sighting is a decode.
        assert observation.dns_payloads_decoded == 2
        assert observation.dns_payloads_interned == 0
        assert observation.dns_observations == []
        assert garbage not in INTERN_TABLE
        with pytest.raises(MessageError):
            DNSMessage.decode_interned(garbage)
        assert garbage not in INTERN_TABLE

    def test_legacy_wrappers_still_work(self, harvested):
        from repro.testbed import (aaaa_before_a, attempt_sequence,
                                   established_family, infer_cad)

        observation = CaptureObservation(harvested)
        assert infer_cad(harvested) == observation.cad
        assert established_family(harvested) == \
            observation.established_family
        assert aaaa_before_a(harvested) == observation.aaaa_first
        assert attempt_sequence(harvested) == observation.attempt_sequence
