"""DNS message wire codec (RFC 1035, EDNS per RFC 6891).

Messages are what actually travels in simulated UDP payloads between
stub resolvers, recursive resolvers, and the custom authoritative
server, so the codec round-trips everything the study uses, including
name compression across sections.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..memo import BoundedMemo
from .errors import MessageError
from .name import DNSName
from .rdata import CompressionTable, Rdata, RdataClass, RdataType, decode_rdata

HEADER_LENGTH = 12

#: The one process-wide DNS intern table: wire bytes to the decoded
#: message, shared by :meth:`DNSMessage.decode_interned` (the endpoints)
#: and :class:`~repro.testbed.inference.CaptureObservation` (the
#: capture).  Holds only successful decodes.
INTERN_TABLE = BoundedMemo()

#: Wire templates for plain queries, keyed by (qname, qtype, rd).  Only
#: the 16-bit id differs between two queries for the same name/type, so
#: the tail of the wire can be encoded once and reused.
_QUERY_WIRE_CACHE = BoundedMemo()


def encode_query_wire(name: "DNSName", rtype: "RdataType", query_id: int,
                      rd: bool = True) -> bytes:
    """Wire bytes of ``DNSMessage.make_query(...).encode()``, memoized.

    Byte-identical to encoding the message: the id occupies exactly the
    first two bytes of the header, so a per-(name, type, rd) template is
    stamped with the id.
    """
    key = (name, rtype, rd)
    template = _QUERY_WIRE_CACHE.get(key)
    if template is None:
        template = _QUERY_WIRE_CACHE.put(
            key, DNSMessage.make_query(name, rtype, 0, rd=rd).encode())
    if not 0 <= query_id <= 0xFFFF:
        raise MessageError(f"bad message id {query_id}")
    return query_id.to_bytes(2, "big") + template[2:]


class Opcode(enum.IntEnum):
    QUERY = 0
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    name: DNSName
    rtype: RdataType
    rclass: RdataClass = RdataClass.IN

    def encode(self, compression: Optional[CompressionTable],
               offset: int) -> bytes:
        out = bytearray(self.name.encode(compression, offset))
        out += struct.pack("!HH", int(self.rtype), int(self.rclass))
        return bytes(out)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["Question", int]:
        name, offset = DNSName.decode(wire, offset)
        if offset + 4 > len(wire):
            raise MessageError("truncated question")
        rtype, rclass = struct.unpack("!HH", wire[offset:offset + 4])
        return cls(name, RdataType(rtype), RdataClass(rclass)), offset + 4

    def __str__(self) -> str:
        return f"{self.name} {self.rtype.name}"


@dataclass(frozen=True)
class ResourceRecord:
    """One resource record with its owner name and TTL."""

    name: DNSName
    rtype: RdataType
    ttl: int
    rdata: Rdata
    rclass: RdataClass = RdataClass.IN

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 0x7FFFFFFF:
            raise MessageError(f"bad TTL {self.ttl}")

    def encode(self, compression: Optional[CompressionTable],
               offset: int) -> bytes:
        out = bytearray(self.name.encode(compression, offset))
        out += struct.pack("!HHI", int(self.rtype), int(self.rclass),
                           self.ttl)
        rdata_offset = offset + len(out) + 2
        rdata_wire = self.rdata.to_wire(compression, rdata_offset)
        out += struct.pack("!H", len(rdata_wire))
        out += rdata_wire
        return bytes(out)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["ResourceRecord", int]:
        name, offset = DNSName.decode(wire, offset)
        if offset + 10 > len(wire):
            raise MessageError("truncated resource record header")
        rtype, rclass, ttl, rdlength = struct.unpack(
            "!HHIH", wire[offset:offset + 10])
        offset += 10
        if offset + rdlength > len(wire):
            raise MessageError("rdata runs past end of message")
        rdata = decode_rdata(rtype, wire, offset, rdlength)
        try:
            rtype_enum = RdataType(rtype)
        except ValueError:
            rtype_enum = rtype  # type: ignore[assignment]
        try:
            rclass_enum = RdataClass(rclass)
        except ValueError:
            rclass_enum = rclass  # type: ignore[assignment]
        record = cls(name, rtype_enum, ttl, rdata, rclass_enum)
        return record, offset + rdlength

    def __str__(self) -> str:
        return (f"{self.name} {self.ttl} {self.rclass.name} "
                f"{RdataType(self.rtype).name} {self.rdata}")


@dataclass
class DNSMessage:
    """A full DNS message."""

    id: int = 0
    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: Rcode = Rcode.NOERROR
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 0xFFFF:
            raise MessageError(f"bad message id {self.id}")

    # -- construction ----------------------------------------------------------

    @classmethod
    def make_query(cls, name: DNSName, rtype: RdataType, query_id: int,
                   rd: bool = True) -> "DNSMessage":
        return cls(id=query_id, rd=rd,
                   questions=[Question(name, rtype)])

    def make_response(self, rcode: Rcode = Rcode.NOERROR,
                      aa: bool = False, ra: bool = False) -> "DNSMessage":
        """Start a response to this query (echoes id and question)."""
        return DNSMessage(id=self.id, qr=True, opcode=self.opcode,
                          aa=aa, rd=self.rd, ra=ra, rcode=rcode,
                          questions=list(self.questions))

    # -- convenience accessors ----------------------------------------------

    @property
    def question(self) -> Question:
        if not self.questions:
            raise MessageError("message has no question")
        return self.questions[0]

    def addresses(self) -> List:
        """All A/AAAA addresses in the answer section."""
        out = []
        for rr in self.answers:
            if rr.rtype in (RdataType.A, RdataType.AAAA):
                out.append(rr.rdata.address)  # type: ignore[attr-defined]
        return out

    # -- wire format -------------------------------------------------------------

    def encode(self) -> bytes:
        flags = 0
        if self.qr:
            flags |= 0x8000
        flags |= (int(self.opcode) & 0xF) << 11
        if self.aa:
            flags |= 0x0400
        if self.tc:
            flags |= 0x0200
        if self.rd:
            flags |= 0x0100
        if self.ra:
            flags |= 0x0080
        flags |= int(self.rcode) & 0xF
        out = bytearray(struct.pack(
            "!HHHHHH", self.id, flags, len(self.questions),
            len(self.answers), len(self.authorities), len(self.additionals)))
        compression: CompressionTable = {}
        for question in self.questions:
            out += question.encode(compression, len(out))
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                out += record.encode(compression, len(out))
        return bytes(out)

    @classmethod
    def decode_interned(cls, wire: bytes) -> "DNSMessage":
        """Decode ``wire``, sharing one decoded message per distinct payload.

        Simulated campaigns decode the same handful of wire payloads
        over and over (the same queries and responses recur across every
        run of a sweep), so this is a decode-free fast path: the first
        decode of a payload is cached in :data:`INTERN_TABLE` and
        returned for every later occurrence, to the endpoints and to
        the capture observation alike.

        The returned message is **shared and must be treated as
        read-only** — use plain :meth:`decode` anywhere the caller
        mutates the result (e.g. a resolver stamping flags onto an
        upstream response).  Bytes that do not decode raise on every
        call: failures are never cached.
        """
        message = INTERN_TABLE.get(wire)
        if message is None:
            message = INTERN_TABLE.put(wire, cls.decode(wire))
        return message

    @classmethod
    def decode(cls, wire: bytes) -> "DNSMessage":
        if len(wire) < HEADER_LENGTH:
            raise MessageError(f"message too short: {len(wire)} bytes")
        (msg_id, flags, qdcount, ancount,
         nscount, arcount) = struct.unpack("!HHHHHH", wire[:HEADER_LENGTH])
        message = cls(
            id=msg_id,
            qr=bool(flags & 0x8000),
            opcode=Opcode((flags >> 11) & 0xF),
            aa=bool(flags & 0x0400),
            tc=bool(flags & 0x0200),
            rd=bool(flags & 0x0100),
            ra=bool(flags & 0x0080),
            rcode=Rcode(flags & 0xF),
        )
        offset = HEADER_LENGTH
        for _ in range(qdcount):
            question, offset = Question.decode(wire, offset)
            message.questions.append(question)
        for count, section in ((ancount, message.answers),
                               (nscount, message.authorities),
                               (arcount, message.additionals)):
            for _ in range(count):
                record, offset = ResourceRecord.decode(wire, offset)
                section.append(record)
        return message

    def summary(self) -> str:
        """dig-style one-liner for traces and examples."""
        parts = [f"id={self.id}", "response" if self.qr else "query"]
        if self.questions:
            parts.append(str(self.question))
        if self.qr:
            parts.append(f"rcode={self.rcode.name}")
            parts.append(f"answers={len(self.answers)}")
        return " ".join(parts)
