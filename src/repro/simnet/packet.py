"""Packet model for the simulated network.

Packets carry just enough layer-3/4 structure for the study's
observables: source/destination addresses (hence address family), the
transport protocol, ports, TCP control flags, and an opaque payload
(DNS messages travel as real RFC 1035 wire bytes).

Sizes are estimated from header sizes so netem rate shaping and
byte-count statistics behave plausibly.
"""

from __future__ import annotations

import enum
from ipaddress import IPv4Address as _IPv4, IPv6Address as _IPv6
from typing import Optional, Union

from .addr import Family, IPAddress, parse_address

IPV4_HEADER = 20
IPV6_HEADER = 40
TCP_HEADER = 20
UDP_HEADER = 8


class Protocol(enum.Enum):
    """Transport protocol of a simulated packet."""

    TCP = "tcp"
    UDP = "udp"
    QUIC = "quic"  # carried over UDP in reality; first-class here

    def __str__(self) -> str:
        return self.value


class TCPFlags(enum.Flag):
    """TCP control flags (subset used by the handshake machine)."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    RST = enum.auto()
    FIN = enum.auto()
    PSH = enum.auto()

    def short(self) -> str:
        parts = [flag.name for flag in TCPFlags
                 if flag is not TCPFlags.NONE and flag in self]
        return "|".join(parts) if parts else "NONE"


class QUICPacketType(enum.Enum):
    """QUIC long-header packet types used by the handshake model."""

    INITIAL = "initial"
    HANDSHAKE = "handshake"
    ONE_RTT = "1rtt"


class Packet:
    """A simulated IP packet with transport headers.

    ``payload`` is opaque bytes (or a small application object for
    convenience in tests) shared by reference across every hop — frames
    are flyweights, never copied in flight.  ``meta`` is scratch space
    for instrumentation, materialized lazily on first access because the
    overwhelming majority of packets never carry any.

    Slot-based: a campaign allocates one of these per simulated frame,
    so dropping the per-instance ``__dict__`` and precomputing
    ``family`` once (instead of re-deriving it from ``dst`` at every
    filter, route, and capture touchpoint) is a packet-path-wide win.
    """

    __slots__ = ("src", "dst", "protocol", "sport", "dport", "payload",
                 "flags", "seq", "ack", "quic_type", "family", "_meta")

    def __init__(self, src: Union[str, IPAddress],
                 dst: Union[str, IPAddress],
                 protocol: Protocol, sport: int, dport: int,
                 payload: bytes = b"", flags: TCPFlags = TCPFlags.NONE,
                 seq: int = 0, ack: int = 0,
                 quic_type: Optional[QUICPacketType] = None,
                 meta: Optional[dict] = None) -> None:
        # Transports hand in already-parsed address objects; the
        # isinstance ladder classifies and validates in one pass without
        # round-tripping through the parser on the per-packet path.
        if not isinstance(src, (_IPv4, _IPv6)):
            src = parse_address(src)
        if not isinstance(dst, (_IPv4, _IPv6)):
            dst = parse_address(dst)
        self.src = src
        self.dst = dst
        if isinstance(src, _IPv4):
            src_family = Family.V4
            matched = isinstance(dst, _IPv4)
        else:
            src_family = Family.V6
            matched = isinstance(dst, _IPv6)
        if not matched:
            raise ValueError(
                f"packet mixes families: {self.src} -> {self.dst}")
        if not 0 <= sport <= 65535:
            raise ValueError(f"bad source port {sport!r}")
        if not 0 <= dport <= 65535:
            raise ValueError(f"bad destination port {dport!r}")
        self.protocol = protocol
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.quic_type = quic_type
        self.family = src_family
        self._meta = meta

    @property
    def meta(self) -> dict:
        """Instrumentation scratch space (lazily allocated)."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @property
    def size(self) -> int:
        """Estimated on-wire size in bytes."""
        network = IPV4_HEADER if self.family is Family.V4 else IPV6_HEADER
        transport = TCP_HEADER if self.protocol is Protocol.TCP else UDP_HEADER
        body = len(self.payload) if isinstance(self.payload, bytes) else 0
        return network + transport + body

    @property
    def is_syn(self) -> bool:
        return (self.protocol is Protocol.TCP
                and TCPFlags.SYN in self.flags
                and TCPFlags.ACK not in self.flags)

    @property
    def is_syn_ack(self) -> bool:
        return (self.protocol is Protocol.TCP
                and TCPFlags.SYN in self.flags
                and TCPFlags.ACK in self.flags)

    @property
    def is_rst(self) -> bool:
        return self.protocol is Protocol.TCP and TCPFlags.RST in self.flags

    @property
    def is_connection_attempt(self) -> bool:
        """True for the packet kinds that open a connection.

        This is what the testbed's CAD inference looks for: the first
        TCP SYN (or QUIC Initial) per address family in a capture.
        """
        if self.protocol is Protocol.TCP:
            return self.is_syn
        if self.protocol is Protocol.QUIC:
            return self.quic_type is QUICPacketType.INITIAL
        return False

    def reply_template(self) -> "dict":
        """Header fields for a reply packet (src/dst and ports swapped)."""
        return {
            "src": self.dst,
            "dst": self.src,
            "protocol": self.protocol,
            "sport": self.dport,
            "dport": self.sport,
        }

    def describe(self) -> str:
        """Single-line human-readable rendering (tcpdump style)."""
        if self.protocol is Protocol.TCP:
            detail = f"[{self.flags.short()}]"
        elif self.protocol is Protocol.QUIC:
            detail = f"[{self.quic_type.value if self.quic_type else '?'}]"
        else:
            detail = f"len={len(self.payload)}"
        return (f"{self.family.label} {self.src}.{self.sport} > "
                f"{self.dst}.{self.dport} {self.protocol}: {detail}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet {self.describe()}>"
