"""Resource record data types.

Covers everything the study touches: A / AAAA (the two families being
raced), NS + SOA (delegation for the resolver experiments), CNAME, TXT,
PTR, OPT (EDNS), and SVCB / HTTPS (RFC 9460) which HEv3 consumes for
protocol selection (ALPN, ECH, address hints).
"""

from __future__ import annotations

import enum
import ipaddress
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..simnet.addr import IPAddress, parse_address
from .errors import MessageError
from .name import DNSName


class RdataType(enum.IntEnum):
    """Resource record TYPE values (RFC 1035 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    TXT = 16
    AAAA = 28
    OPT = 41
    SVCB = 64
    HTTPS = 65
    ANY = 255

    @classmethod
    def for_family(cls, family) -> "RdataType":
        from ..simnet.addr import Family

        return cls.AAAA if family is Family.V6 else cls.A


class RdataClass(enum.IntEnum):
    IN = 1
    ANY = 255


class SvcParamKey(enum.IntEnum):
    """SVCB/HTTPS service parameter keys (RFC 9460 §14.3.2)."""

    MANDATORY = 0
    ALPN = 1
    NO_DEFAULT_ALPN = 2
    PORT = 3
    IPV4HINT = 4
    ECH = 5
    IPV6HINT = 6


CompressionTable = Dict[Tuple[bytes, ...], int]


class Rdata:
    """Base class: every rdata knows its TYPE and wire codec."""

    rtype: RdataType

    def to_wire(self, compression: Optional[CompressionTable],
                offset: int) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError


@dataclass(frozen=True)
class A(Rdata):
    """IPv4 address record."""

    address: ipaddress.IPv4Address
    rtype = RdataType.A

    def __post_init__(self) -> None:
        if not isinstance(self.address, ipaddress.IPv4Address):
            object.__setattr__(
                self, "address", ipaddress.IPv4Address(self.address))

    def to_wire(self, compression=None, offset=0) -> bytes:
        return self.address.packed

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "A":
        if rdlength != 4:
            raise MessageError(f"A rdata must be 4 bytes, got {rdlength}")
        return cls(ipaddress.IPv4Address(wire[offset:offset + 4]))

    def __str__(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class AAAA(Rdata):
    """IPv6 address record."""

    address: ipaddress.IPv6Address
    rtype = RdataType.AAAA

    def __post_init__(self) -> None:
        if not isinstance(self.address, ipaddress.IPv6Address):
            object.__setattr__(
                self, "address", ipaddress.IPv6Address(self.address))

    def to_wire(self, compression=None, offset=0) -> bytes:
        return self.address.packed

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise MessageError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return cls(ipaddress.IPv6Address(wire[offset:offset + 16]))

    def __str__(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class _SingleName(Rdata):
    """Shared shape for NS / CNAME / PTR."""

    target: DNSName

    def to_wire(self, compression=None, offset=0) -> bytes:
        return self.target.encode(compression, offset)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int):
        name, _ = DNSName.decode(wire, offset)
        return cls(name)

    def __str__(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True)
class NS(_SingleName):
    rtype = RdataType.NS


@dataclass(frozen=True)
class CNAME(_SingleName):
    rtype = RdataType.CNAME


@dataclass(frozen=True)
class PTR(_SingleName):
    rtype = RdataType.PTR


@dataclass(frozen=True)
class SOA(Rdata):
    """Start of authority (zone apex bookkeeping)."""

    mname: DNSName
    rname: DNSName
    serial: int = 1
    refresh: int = 7200
    retry: int = 3600
    expire: int = 1209600
    minimum: int = 300
    rtype = RdataType.SOA

    def to_wire(self, compression=None, offset=0) -> bytes:
        out = bytearray(self.mname.encode(compression, offset))
        out += self.rname.encode(compression, offset + len(out))
        out += struct.pack("!IIIII", self.serial, self.refresh,
                           self.retry, self.expire, self.minimum)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "SOA":
        mname, offset = DNSName.decode(wire, offset)
        rname, offset = DNSName.decode(wire, offset)
        if offset + 20 > len(wire):
            raise MessageError("truncated SOA")
        serial, refresh, retry, expire, minimum = struct.unpack(
            "!IIIII", wire[offset:offset + 20])
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


@dataclass(frozen=True)
class TXT(Rdata):
    """Text record (tuple of character-strings)."""

    strings: Tuple[bytes, ...]
    rtype = RdataType.TXT

    def __post_init__(self) -> None:
        for chunk in self.strings:
            if len(chunk) > 255:
                raise MessageError("TXT character-string exceeds 255 bytes")

    def to_wire(self, compression=None, offset=0) -> bytes:
        out = bytearray()
        for chunk in self.strings:
            out.append(len(chunk))
            out += chunk
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "TXT":
        end = offset + rdlength
        strings = []
        while offset < end:
            length = wire[offset]
            offset += 1
            if offset + length > end:
                raise MessageError("TXT character-string overruns rdata")
            strings.append(wire[offset:offset + length])
            offset += length
        return cls(tuple(strings))

    @classmethod
    def from_text(cls, *texts: str) -> "TXT":
        return cls(tuple(t.encode("utf-8") for t in texts))


@dataclass(frozen=True)
class OPT(Rdata):
    """EDNS(0) pseudo-record payload (options only; TTL fields live
    in the resource record wrapper)."""

    options: Tuple[Tuple[int, bytes], ...] = ()
    rtype = RdataType.OPT

    def to_wire(self, compression=None, offset=0) -> bytes:
        out = bytearray()
        for code, data in self.options:
            out += struct.pack("!HH", code, len(data))
            out += data
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "OPT":
        end = offset + rdlength
        options = []
        while offset < end:
            if offset + 4 > end:
                raise MessageError("truncated EDNS option")
            code, length = struct.unpack("!HH", wire[offset:offset + 4])
            offset += 4
            if offset + length > end:
                raise MessageError("EDNS option overruns rdata")
            options.append((code, wire[offset:offset + length]))
            offset += length
        return cls(tuple(options))


def _encode_svc_params(params: Dict[int, bytes]) -> bytes:
    out = bytearray()
    for key in sorted(params):
        value = params[key]
        out += struct.pack("!HH", key, len(value))
        out += value
    return bytes(out)


def _decode_svc_params(wire: bytes, offset: int, end: int) -> Dict[int, bytes]:
    params: Dict[int, bytes] = {}
    previous = -1
    while offset < end:
        if offset + 4 > end:
            raise MessageError("truncated SvcParam")
        key, length = struct.unpack("!HH", wire[offset:offset + 4])
        offset += 4
        if key <= previous:
            raise MessageError("SvcParams not in strictly ascending order")
        previous = key
        if offset + length > end:
            raise MessageError("SvcParam overruns rdata")
        params[key] = wire[offset:offset + length]
        offset += length
    return params


@dataclass(frozen=True)
class SVCB(Rdata):
    """Service binding record (RFC 9460).

    ``priority`` 0 is AliasMode; otherwise ServiceMode.  Convenience
    accessors decode the parameters HEv3's selection consumes.
    """

    priority: int
    target: DNSName
    params: Tuple[Tuple[int, bytes], ...] = ()
    rtype = RdataType.SVCB

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 0xFFFF:
            raise MessageError(f"bad SvcPriority {self.priority}")

    @property
    def param_dict(self) -> Dict[int, bytes]:
        return dict(self.params)

    @property
    def alpn(self) -> Tuple[str, ...]:
        """Decoded ALPN list, e.g. ``("h3", "h2")``."""
        raw = self.param_dict.get(SvcParamKey.ALPN)
        if raw is None:
            return ()
        out = []
        offset = 0
        while offset < len(raw):
            length = raw[offset]
            offset += 1
            out.append(raw[offset:offset + length].decode("ascii", "replace"))
            offset += length
        return tuple(out)

    @property
    def has_ech(self) -> bool:
        """True when an ECH config is advertised (HEv3's top criterion)."""
        return SvcParamKey.ECH in self.param_dict

    @property
    def port(self) -> Optional[int]:
        raw = self.param_dict.get(SvcParamKey.PORT)
        if raw is None:
            return None
        if len(raw) != 2:
            raise MessageError("SVCB port param must be 2 bytes")
        return struct.unpack("!H", raw)[0]

    @property
    def ipv4_hints(self) -> Tuple[ipaddress.IPv4Address, ...]:
        raw = self.param_dict.get(SvcParamKey.IPV4HINT, b"")
        if len(raw) % 4:
            raise MessageError("ipv4hint length not a multiple of 4")
        return tuple(ipaddress.IPv4Address(raw[i:i + 4])
                     for i in range(0, len(raw), 4))

    @property
    def ipv6_hints(self) -> Tuple[ipaddress.IPv6Address, ...]:
        raw = self.param_dict.get(SvcParamKey.IPV6HINT, b"")
        if len(raw) % 16:
            raise MessageError("ipv6hint length not a multiple of 16")
        return tuple(ipaddress.IPv6Address(raw[i:i + 16])
                     for i in range(0, len(raw), 16))

    def to_wire(self, compression=None, offset=0) -> bytes:
        out = bytearray(struct.pack("!H", self.priority))
        # RFC 9460: the TargetName is never compressed.
        out += self.target.encode(None, 0)
        out += _encode_svc_params(self.param_dict)
        return bytes(out)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int):
        end = offset + rdlength
        if offset + 2 > end:
            raise MessageError("truncated SVCB priority")
        priority = struct.unpack("!H", wire[offset:offset + 2])[0]
        target, offset = DNSName.decode(wire, offset + 2)
        params = _decode_svc_params(wire, offset, end)
        return cls(priority, target, tuple(sorted(params.items())))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def service(cls, priority: int, target: DNSName,
                alpn: Tuple[str, ...] = (),
                port: Optional[int] = None,
                ech: bool = False,
                ipv4_hints: Tuple[str, ...] = (),
                ipv6_hints: Tuple[str, ...] = ()) -> "SVCB":
        """Build a ServiceMode record from friendly arguments."""
        params: Dict[int, bytes] = {}
        if alpn:
            encoded = bytearray()
            for proto in alpn:
                raw = proto.encode("ascii")
                encoded.append(len(raw))
                encoded += raw
            params[SvcParamKey.ALPN] = bytes(encoded)
        if port is not None:
            params[SvcParamKey.PORT] = struct.pack("!H", port)
        if ech:
            params[SvcParamKey.ECH] = b"\x00\x01fake-ech-config"
        if ipv4_hints:
            params[SvcParamKey.IPV4HINT] = b"".join(
                ipaddress.IPv4Address(a).packed for a in ipv4_hints)
        if ipv6_hints:
            params[SvcParamKey.IPV6HINT] = b"".join(
                ipaddress.IPv6Address(a).packed for a in ipv6_hints)
        return cls(priority, target, tuple(sorted(params.items())))


@dataclass(frozen=True)
class HTTPS(SVCB):
    """HTTPS record: SVCB with HTTP-specific semantics (RFC 9460 §9)."""

    rtype = RdataType.HTTPS


@dataclass(frozen=True)
class GenericRdata(Rdata):
    """Fallback for unknown TYPEs: opaque bytes (RFC 3597 style)."""

    type_value: int
    data: bytes

    @property
    def rtype(self) -> int:  # type: ignore[override]
        return self.type_value

    def to_wire(self, compression=None, offset=0) -> bytes:
        return self.data

    @classmethod
    def from_wire(cls, wire, offset, rdlength):  # pragma: no cover - direct
        raise NotImplementedError("decode via decode_rdata()")


_RDATA_CLASSES = {
    RdataType.A: A,
    RdataType.AAAA: AAAA,
    RdataType.NS: NS,
    RdataType.CNAME: CNAME,
    RdataType.PTR: PTR,
    RdataType.SOA: SOA,
    RdataType.TXT: TXT,
    RdataType.OPT: OPT,
    RdataType.SVCB: SVCB,
    RdataType.HTTPS: HTTPS,
}


def decode_rdata(rtype: int, wire: bytes, offset: int,
                 rdlength: int) -> Rdata:
    """Decode rdata of ``rtype``; unknown types become GenericRdata."""
    try:
        cls = _RDATA_CLASSES[RdataType(rtype)]
    except (ValueError, KeyError):
        return GenericRdata(rtype, wire[offset:offset + rdlength])
    return cls.from_wire(wire, offset, rdlength)


def address_rdata(address: Union[str, IPAddress]) -> Rdata:
    """A() or AAAA() depending on the address family."""
    parsed = parse_address(address)
    return A(parsed) if parsed.version == 4 else AAAA(parsed)
