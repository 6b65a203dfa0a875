"""HEv3 service discovery: SVCB/HTTPS-driven candidate building.

draft-ietf-happy-happyeyeballs-v3 extends the race to layer 4: SVCB and
HTTPS records advertise per-endpoint protocol support (ALPN), address
hints, and TLS Encrypted ClientHello configs.  "The HEv3 address
selection should favor IP addresses with available TLS Encrypted
ClientHello (ECH) over QUIC over TCP" (§2).

This module turns DNS answers into an ordered list of
:class:`ServiceCandidate` (address, family, protocol, ECH flag) ready
for the racing engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from ..simnet.addr import Family, IPAddress, family_of, parse_address
from ..simnet.packet import Protocol
from ..dns.rdata import SVCB
from .interlace import apply_interlace

#: ALPN tokens that imply a QUIC-based protocol.
QUIC_ALPNS = frozenset({"h3", "h3-29", "doq"})


@dataclass(frozen=True)
class ServiceCandidate:
    """One raceable endpoint: where to connect and with what."""

    address: IPAddress
    protocol: Protocol
    port: int
    ech: bool = False
    svcb_priority: int = 0  # 0 = synthesized without an SVCB record

    @property
    def family(self) -> Family:
        return family_of(self.address)

    def preference_rank(self) -> "tuple[int, int]":
        """Lower is better: ECH first, then QUIC over TCP (HEv3 §2)."""
        ech_rank = 0 if self.ech else 1
        protocol_rank = 0 if self.protocol is Protocol.QUIC else 1
        return (ech_rank, protocol_rank)

    def __str__(self) -> str:
        flags = "+ech" if self.ech else ""
        return (f"{self.protocol.value}://{self.address}:{self.port}"
                f"{flags}")


def candidates_from_addresses(addresses: Iterable[Union[str, IPAddress]],
                              port: int,
                              protocols: Sequence[Protocol] = (Protocol.TCP,)
                              ) -> List[ServiceCandidate]:
    """Plain candidates when no SVCB/HTTPS records exist."""
    out: List[ServiceCandidate] = []
    for value in addresses:
        address = parse_address(value)
        for protocol in protocols:
            out.append(ServiceCandidate(address=address, protocol=protocol,
                                        port=port))
    return out


def candidates_from_svcb(records: Sequence[SVCB],
                         resolved_addresses: Iterable[Union[str, IPAddress]],
                         default_port: int) -> List[ServiceCandidate]:
    """Expand ServiceMode SVCB/HTTPS records into candidates.

    Addresses come from the records' ipv4hint/ipv6hint parameters when
    present, otherwise from the resolved A/AAAA answers.  ALPN tokens
    decide the protocol: any QUIC ALPN yields a QUIC candidate, any
    other (or no) ALPN yields TCP.
    """
    resolved = [parse_address(a) for a in resolved_addresses]
    out: List[ServiceCandidate] = []
    service_records = sorted(
        (record for record in records if record.priority > 0),
        key=lambda record: record.priority)
    for record in service_records:
        hinted: List[IPAddress] = list(record.ipv6_hints) + list(
            record.ipv4_hints)
        addresses = hinted if hinted else resolved
        port = record.port if record.port is not None else default_port
        alpn = record.alpn
        protocols: List[Protocol] = []
        if any(token in QUIC_ALPNS for token in alpn):
            protocols.append(Protocol.QUIC)
        if not alpn or any(token not in QUIC_ALPNS for token in alpn):
            protocols.append(Protocol.TCP)
        for address in addresses:
            for protocol in protocols:
                out.append(ServiceCandidate(
                    address=address, protocol=protocol, port=port,
                    ech=record.has_ech, svcb_priority=record.priority))
    return out


def order_candidates(candidates: Sequence[ServiceCandidate],
                     params) -> List[ServiceCandidate]:
    """HEv3 ordering: protocol preference, then family interlacing.

    Candidates are bucketed by ``(ech, protocol)`` preference; within a
    bucket the address families are interlaced per the parameters
    (``params`` is an :class:`HEParams` bag or the ``SortingStage`` of
    a policy stack — both expose the interlace fields), so the result
    still guarantees fast cross-family fallback.
    """
    buckets: dict = {}
    for candidate in candidates:
        buckets.setdefault(candidate.preference_rank(), []).append(candidate)

    ordered: List[ServiceCandidate] = []
    for rank in sorted(buckets):
        bucket = buckets[rank]
        by_address = {}
        for candidate in bucket:
            by_address.setdefault(candidate.address, []).append(candidate)
        interlaced = apply_interlace(
            list(by_address), params.interlace,
            preferred=params.preferred_family,
            first_count=params.first_address_family_count)
        for address in interlaced:
            ordered.extend(by_address[address])
    return ordered
