"""Inference of HE parameters from packet captures (§4.3).

"We determine the CAD by measuring the time between the first IPv6
packet and the first IPv4 packet observed in the client's packet
capture."  This module operates purely on :class:`PacketCapture`
contents, treating the client as the black box the methodology demands
— nothing here looks at engine internals.

:class:`CaptureObservation` is the hot path: it walks a capture exactly
once, decodes each DNS payload at most once, and derives every field
the runner records; callers read the fields they need from one
observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..simnet.addr import Family
from ..simnet.capture import Direction, PacketCapture
from ..simnet.packet import Protocol
from ..dns.message import INTERN_TABLE, DNSMessage
from ..dns.rdata import RdataType


@dataclass(frozen=True)
class DnsObservation:
    """Timing of one DNS query/response pair seen on the wire."""

    rtype: RdataType
    query_at: float
    response_at: Optional[float]

    @property
    def latency(self) -> Optional[float]:
        if self.response_at is None:
            return None
        return self.response_at - self.query_at


class CaptureObservation:
    """Everything the testbed infers from one capture, in a single pass.

    One walk at construction time, decoding each DNS payload at most
    once, fills every attribute.  ``attempt_sequence`` lists the
    ``(timestamp, family)`` of each distinct connection attempt
    (retransmissions to the same address and port collapse, matching
    Figure 5's "n-th connection attempt" axis), and
    ``attempts_per_family`` counts distinct attempted addresses per
    family (Table 2).

    Payloads decode through the one DNS intern table
    (:data:`repro.dns.message.INTERN_TABLE`) the simulated endpoints
    decode through too, so a payload the stub or a server already
    decoded, or an earlier repetition of the same run emitted, costs
    no decode here.  ``dns_payloads_decoded`` counts actual decode
    attempts and ``dns_payloads_interned`` counts intern-table hits —
    tests assert the single-decode guarantee and the cross-repetition
    drop from these.  An undecodable payload is skipped and, since
    the table holds only messages, decoded again when seen again.
    ``decode_dns=False`` skips DNS handling entirely for callers that
    only need connection-level fields (the DNS-derived attributes then
    read as empty/None).
    """

    __slots__ = (
        "established_family", "established_protocol", "first_attempt_v4_at",
        "first_attempt_v6_at", "first_attempt_at", "first_attempt_port",
        "attempt_sequence", "attempts_per_family", "attempts_quic",
        "dns_observations", "dns_payloads_decoded", "dns_payloads_interned",
    )

    def __init__(self, capture: PacketCapture,
                 decode_dns: bool = True) -> None:
        established: Optional[Family] = None
        established_protocol: Optional[Protocol] = None
        first_v4: Optional[float] = None
        first_v6: Optional[float] = None
        first_any: Optional[float] = None
        first_port: Optional[int] = None
        sequence: List[Tuple[float, Family]] = []
        seen_attempts = set()
        per_family = {Family.V4: 0, Family.V6: 0}
        quic_attempts = 0
        seen_addresses = set()
        queries: Dict[Tuple[int, RdataType], float] = {}
        order: List[Tuple[int, RdataType, float]] = []
        responses: Dict[Tuple[int, RdataType], float] = {}
        decodes = 0
        interned = 0
        intern_get = INTERN_TABLE.get
        decode = DNSMessage.decode_interned

        for frame in capture:
            packet = frame.packet
            direction = frame.direction
            if direction is Direction.IN:
                if established is None and (
                        packet.is_syn_ack
                        or (packet.protocol is Protocol.QUIC
                            and packet.quic_type is not None
                            and packet.quic_type.value == "handshake")):
                    established = packet.family
                    established_protocol = packet.protocol
            elif packet.is_connection_attempt:
                family = packet.family
                timestamp = frame.timestamp
                if first_any is None:
                    first_any = timestamp
                    first_port = packet.dport
                if family is Family.V6:
                    if first_v6 is None:
                        first_v6 = timestamp
                elif first_v4 is None:
                    first_v4 = timestamp
                key = (packet.dst, packet.dport, packet.sport)
                if key not in seen_attempts:
                    seen_attempts.add(key)
                    sequence.append((timestamp, family))
                    if packet.protocol is Protocol.QUIC:
                        quic_attempts += 1
                address = (packet.dst, packet.dport)
                if address not in seen_addresses:
                    seen_addresses.add(address)
                    per_family[family] += 1
            if not decode_dns or packet.protocol is not Protocol.UDP:
                continue
            payload = packet.payload
            message = (intern_get(payload) if type(payload) is bytes
                       else None)
            if message is not None:
                interned += 1
            else:
                decodes += 1
                try:
                    message = decode(payload)
                except Exception:
                    continue
            if not message.questions:
                continue
            rtype = message.question.rtype
            if not message.qr and direction is Direction.OUT:
                key = (message.id, rtype)
                if key not in queries:
                    queries[key] = frame.timestamp
                    order.append((message.id, rtype, frame.timestamp))
            elif message.qr and direction is Direction.IN:
                responses.setdefault((message.id, rtype), frame.timestamp)

        self.established_family = established
        self.established_protocol = established_protocol
        self.first_attempt_v4_at = first_v4
        self.first_attempt_v6_at = first_v6
        self.first_attempt_at = first_any
        self.first_attempt_port = first_port
        self.attempt_sequence = sequence
        self.attempts_per_family = per_family
        self.attempts_quic = quic_attempts
        self.dns_observations = [
            DnsObservation(rtype=rtype, query_at=sent_at,
                           response_at=responses.get((message_id, rtype)))
            for message_id, rtype, sent_at in order]
        self.dns_payloads_decoded = decodes
        self.dns_payloads_interned = interned

    # -- derived values ----------------------------------------------------

    @property
    def cad(self) -> Optional[float]:
        """CAD = t(first IPv4 attempt) − t(first IPv6 attempt).

        ``None`` when either family never attempted (no fallback
        observed — wget, or the delay was below the client's CAD).
        """
        if self.first_attempt_v6_at is None or self.first_attempt_v4_at is None:
            return None
        return self.first_attempt_v4_at - self.first_attempt_v6_at

    @property
    def query_order(self) -> List[RdataType]:
        """Record types in the order their first queries were sent."""
        return [obs.rtype for obs in self.dns_observations]

    @property
    def queried_https(self) -> bool:
        """Did the client send an HTTPS (SVCB) query?  The HEv3
        discovery observable; always False without DNS decoding."""
        return any(obs.rtype is RdataType.HTTPS
                   for obs in self.dns_observations)

    @property
    def aaaa_first(self) -> Optional[bool]:
        """Did the AAAA query precede the A query?  None if either absent."""
        order = self.query_order
        if RdataType.AAAA not in order or RdataType.A not in order:
            return None
        return order.index(RdataType.AAAA) < order.index(RdataType.A)

    @property
    def resolution_delay(self) -> Optional[float]:
        """Time from the A response to the first IPv4 connection attempt.

        Meaningful in the RD test case, where the AAAA answer is
        delayed beyond any sensible RD: a client implementing RFC 8305
        §3 starts its IPv4 attempt ~RD after the A answer; a client
        waiting for both answers shows the resolver timeout here
        instead.
        """
        a_response = next((obs.response_at for obs in self.dns_observations
                           if obs.rtype is RdataType.A
                           and obs.response_at is not None), None)
        if a_response is None:
            return None
        first_v4 = self.first_attempt_v4_at
        if first_v4 is None or first_v4 < a_response:
            return None
        return first_v4 - a_response

    @property
    def time_to_first_attempt(self) -> Optional[float]:
        """Time from the first DNS query to the first connection attempt."""
        if not self.dns_observations or self.first_attempt_at is None:
            return None
        first_query = min(obs.query_at for obs in self.dns_observations)
        return self.first_attempt_at - first_query

