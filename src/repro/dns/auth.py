"""The custom authoritative name server (§4.1(ii)).

The paper's key DNS trick: *test parameters are encoded in the query
name itself* — the delay to apply, which record type to delay, and a
nonce that defeats caching — so a single server deployment supports a
whole family of experiments.  Query names look like::

    d250-aaaa-k3xq7.he-test.example.

meaning "delay the AAAA response by 250 ms"; the nonce ``k3xq7`` makes
the name unique per measurement.  Zones answer such names through
wildcards.

The server also keeps a query log (arrival time, qname, qtype, source,
transport family) — the resolver study's entire observable is this log
on the authoritative side (§4.2, Table 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..memo import BoundedMemo
from ..simnet.addr import Family, IPAddress, family_of
from ..simnet.host import Host
from ..transport.udp import Datagram, UDPSocket
from .message import DNSMessage, Rcode
from .name import DNSName
from .rdata import RdataType
from .zone import LookupKind, NotInZoneError, Zone

_PARAM_LABEL = re.compile(
    rb"^d(?P<ms>\d{1,6})-(?P<rtype>a|aaaa|both|none)-(?P<nonce>[a-z0-9]{1,32})$",
    re.IGNORECASE)


@dataclass(frozen=True)
class TestParams:
    """Per-query test parameters carried in the first qname label."""

    __test__ = False  # not a pytest class, despite the name

    delay_ms: int
    delayed_rtype: str  # "a" | "aaaa" | "both" | "none"
    nonce: str

    def __post_init__(self) -> None:
        if self.delayed_rtype not in ("a", "aaaa", "both", "none"):
            raise ValueError(f"bad delayed rtype {self.delayed_rtype!r}")
        if self.delay_ms < 0:
            raise ValueError(f"negative delay {self.delay_ms}")

    def to_label(self) -> str:
        return f"d{self.delay_ms}-{self.delayed_rtype}-{self.nonce}"

    @classmethod
    def parse_label(cls, label: bytes) -> Optional["TestParams"]:
        match = _PARAM_LABEL.match(label)
        if match is None:
            return None
        return cls(delay_ms=int(match.group("ms")),
                   delayed_rtype=match.group("rtype").decode().lower(),
                   nonce=match.group("nonce").decode().lower())

    def applies_to(self, qtype: RdataType) -> bool:
        if self.delayed_rtype == "none":
            return False
        if self.delayed_rtype == "both":
            return qtype in (RdataType.A, RdataType.AAAA)
        wanted = RdataType.A if self.delayed_rtype == "a" else RdataType.AAAA
        return qtype is wanted

    def query_name(self, base: Union[str, DNSName]) -> DNSName:
        """Full test qname under ``base``."""
        base_name = (base if isinstance(base, DNSName)
                     else DNSName.from_text(base))
        return base_name.prepend(self.to_label())


@dataclass(frozen=True)
class QueryLogEntry:
    """One query as observed by the authoritative server."""

    timestamp: float
    qname: DNSName
    qtype: RdataType
    client: IPAddress
    client_port: int
    server_address: IPAddress

    @property
    def transport_family(self) -> Family:
        """Family of the transport the resolver chose — Table 3's metric."""
        return family_of(self.server_address)


#: Classic DNS/UDP payload ceiling; larger answers are truncated and
#: the client retries over TCP (RFC 1035 §4.2.1).
MAX_UDP_PAYLOAD = 512

#: Process-wide UDP response-wire cache keyed by
#: (max_udp_payload, zone content keys, query wire minus the id).
#: Campaign sweeps rebuild identical zones and replay identical queries
#: every run; only the 16-bit id differs, and a response echoes it in
#: its first two bytes, so the id-stripped tail can be shared.  Keys
#: compare by value (tuple/bytes equality), so a hash collision cannot
#: produce a wrong answer.
_RESPONSE_WIRE_CACHE = BoundedMemo()


class AuthoritativeServer:
    """Serves zones over simulated UDP and TCP with injectable delays.

    Responses larger than ``max_udp_payload`` are truncated (TC bit)
    on UDP; the stub resolver transparently retries them over TCP.
    """

    def __init__(self, host: Host, zones: Optional[List[Zone]] = None,
                 port: int = 53,
                 addresses: Optional[List[Union[str, IPAddress]]] = None,
                 max_udp_payload: int = MAX_UDP_PAYLOAD,
                 serve_tcp: bool = True) -> None:
        self.host = host
        self.port = port
        self.zones: List[Zone] = list(zones or [])
        self.query_log: List[QueryLogEntry] = []
        # Static per-rtype extra delays (seconds), set by testbed modules;
        # qname-encoded parameters take precedence.
        self.static_delays: Dict[RdataType, float] = {}
        self.max_udp_payload = max_udp_payload
        self.serve_tcp = serve_tcp
        self.sockets: List[UDPSocket] = []
        self.truncated_responses = 0
        self.tcp_queries = 0
        self._tcp_listeners: list = []
        self._running = False
        self._addresses = addresses

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "AuthoritativeServer":
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        if self._addresses is None:
            sockets = [self.host.udp.socket(local_port=self.port)]
        else:
            sockets = [self.host.udp.socket(local_addr=addr,
                                            local_port=self.port)
                       for addr in self._addresses]
        self.sockets = sockets
        for sock in sockets:
            self.host.sim.process(self._serve(sock),
                                  name=f"auth:{self.host.name}")
        if self.serve_tcp:
            self._tcp_listeners = []
            bind_addresses = self._addresses or [None]
            for address in bind_addresses:
                try:
                    self._tcp_listeners.append(
                        self.host.tcp.listen(self.port, addr=address))
                except Exception:
                    continue  # port owned by another service
            for listener in self._tcp_listeners:
                self.host.sim.process(self._serve_tcp(listener),
                                      name=f"auth-tcp:{self.host.name}")
        return self

    def stop(self) -> None:
        self._running = False
        for sock in self.sockets:
            sock.close()
        self.sockets = []
        for listener in self._tcp_listeners:
            listener.close()
        self._tcp_listeners = []

    # -- serving ------------------------------------------------------------------

    def _serve(self, sock: UDPSocket):
        from ..transport.errors import SocketClosed

        while self._running:
            try:
                datagram = yield sock.recv()
            except SocketClosed:
                return
            self._handle(datagram, sock)

    def _handle(self, datagram: Datagram, sock: UDPSocket) -> None:
        try:
            query = DNSMessage.decode_interned(datagram.payload)
        except Exception:
            return  # malformed: drop, like a hardened server
        if query.qr or not query.questions:
            return
        question = query.question
        self.query_log.append(QueryLogEntry(
            timestamp=self.host.sim.now,
            qname=question.name,
            qtype=question.rtype,
            client=datagram.src,
            client_port=datagram.sport,
            server_address=datagram.dst))

        wire = datagram.payload
        key = (self.max_udp_payload,
               tuple(zone._content_key for zone in self.zones), wire[2:])
        cached = _RESPONSE_WIRE_CACHE.get(key)
        if cached is None:
            response = self._build_response(query)
            payload = response.encode()
            was_truncated = len(payload) > self.max_udp_payload
            if was_truncated:
                # Too big for UDP: answer with just the question + TC bit.
                truncated = query.make_response(aa=response.aa)
                truncated.tc = True
                payload = truncated.encode()
            _RESPONSE_WIRE_CACHE.put(key, (payload[2:], was_truncated))
        else:
            tail, was_truncated = cached
            payload = wire[:2] + tail
        if was_truncated:
            self.truncated_responses += 1
        delay = self._response_delay(question.name, question.rtype)
        if delay > 0:
            self.host.sim.schedule(delay, self._send_reply, sock, payload,
                                   datagram)
        else:
            self._send_reply(sock, payload, datagram)

    def _send_reply(self, sock: UDPSocket, payload: bytes,
                    datagram: Datagram) -> None:
        if sock.closed:
            return
        # Reply from the address that was queried, like a real server.
        sock.sendto(payload, datagram.src, datagram.sport,
                    src=datagram.dst)

    # -- DNS over TCP -----------------------------------------------------------

    def _serve_tcp(self, listener):
        from ..transport.errors import SocketClosed

        while self._running:
            try:
                connection = yield listener.accept()
            except SocketClosed:
                return
            self.host.sim.process(self._serve_tcp_connection(connection),
                                  name="auth-tcp-conn")

    def _serve_tcp_connection(self, connection):
        """Length-prefixed DNS over one TCP connection (RFC 1035 §4.2.2)."""
        from ..transport.errors import SocketClosed, ConnectionAborted

        buffer = b""
        while True:
            try:
                chunk = yield connection.recv()
            except (SocketClosed, ConnectionAborted):
                return
            if not chunk:
                return  # EOF
            buffer += chunk
            while len(buffer) >= 2:
                length = int.from_bytes(buffer[:2], "big")
                if len(buffer) < 2 + length:
                    break
                wire, buffer = buffer[2:2 + length], buffer[2 + length:]
                try:
                    query = DNSMessage.decode_interned(wire)
                except Exception:
                    return
                if query.qr or not query.questions:
                    continue
                self.tcp_queries += 1
                question = query.question
                self.query_log.append(QueryLogEntry(
                    timestamp=self.host.sim.now, qname=question.name,
                    qtype=question.rtype, client=connection.remote_addr,
                    client_port=connection.remote_port,
                    server_address=connection.local_addr))
                response = self._build_response(query).encode()
                delay = self._response_delay(question.name,
                                             question.rtype)
                framed = len(response).to_bytes(2, "big") + response
                if delay > 0:
                    self.host.sim.schedule(
                        delay, self._tcp_reply, connection, framed)
                else:
                    self._tcp_reply(connection, framed)

    @staticmethod
    def _tcp_reply(connection, framed: bytes) -> None:
        from ..transport.errors import SocketClosed

        try:
            connection.send(framed)
        except SocketClosed:
            pass

    # -- response construction ----------------------------------------------------

    def find_zone(self, qname: DNSName) -> Optional[Zone]:
        """Longest-origin-match zone for ``qname``."""
        best: Optional[Zone] = None
        for zone in self.zones:
            if qname.is_subdomain_of(zone.origin):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    def _build_response(self, query: DNSMessage) -> DNSMessage:
        question = query.question
        zone = self.find_zone(question.name)
        if zone is None:
            return query.make_response(rcode=Rcode.REFUSED)
        try:
            result = zone.lookup(question.name, question.rtype)
        except NotInZoneError:
            return query.make_response(rcode=Rcode.REFUSED)

        if result.kind is LookupKind.NXDOMAIN:
            response = query.make_response(rcode=Rcode.NXDOMAIN, aa=True)
        elif result.kind is LookupKind.REFERRAL:
            response = query.make_response(aa=False)
        else:
            response = query.make_response(aa=True)

        from .message import ResourceRecord

        def emit(rrsets, section):
            for rrset in rrsets:
                for rdata in rrset:
                    section.append(ResourceRecord(
                        rrset.name, rrset.rtype, rrset.ttl, rdata))

        emit(result.answers, response.answers)
        emit(result.authority, response.authorities)
        emit(result.glue, response.additionals)

        if result.kind is LookupKind.CNAME:
            self._chase_cname(zone, result, question.rtype, response)
        return response

    def _chase_cname(self, zone: Zone, result, qtype: RdataType,
                     response: DNSMessage) -> None:
        """Follow in-zone CNAME chains, appending to the answer."""
        from .message import ResourceRecord

        seen = set()
        current = result.answers[0].rdatas[0].target  # type: ignore
        for _ in range(8):
            if current in seen:
                break
            seen.add(current)
            if not current.is_subdomain_of(zone.origin):
                break
            chased = zone.lookup(current, qtype)
            for rrset in chased.answers:
                for rdata in rrset:
                    response.answers.append(ResourceRecord(
                        rrset.name, rrset.rtype, rrset.ttl, rdata))
            if chased.kind is LookupKind.CNAME:
                current = chased.answers[0].rdatas[0].target  # type: ignore
                continue
            break

    # -- delay logic -----------------------------------------------------------------

    def _response_delay(self, qname: DNSName, qtype: RdataType) -> float:
        if not qname.is_root:
            params = TestParams.parse_label(qname.first_label)
            if params is not None:
                return params.delay_ms / 1000.0 if params.applies_to(qtype) \
                    else 0.0
        return self.static_delays.get(qtype, 0.0)

    # -- instrumentation ------------------------------------------------------------

    def queries_for(self, suffix: Union[str, DNSName]) -> List[QueryLogEntry]:
        suffix_name = (suffix if isinstance(suffix, DNSName)
                       else DNSName.from_text(suffix))
        return [entry for entry in self.query_log
                if entry.qname.is_subdomain_of(suffix_name)]
