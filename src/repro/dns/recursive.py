"""Iterative (recursive) resolver engine.

Performs real delegation walking over the simulated network: starts at
configured root hints, follows referrals, (re-)resolves name-server
addresses according to the policy's :class:`~repro.dns.nsselect.GluePlan`,
and races per-attempt timeouts the way the daemons measured in §5.3 do.
The per-upstream-query instrumentation plus the authoritative server's
query log together yield every Table 3 column.

A lightweight :class:`ForwardingResolver` is also provided: it is the
"resolver in the middle" of the browser experiments, whose timeout the
clients inherit because they set none of their own (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..simnet.addr import Family, IPAddress, family_of, parse_address
from ..simnet.host import Host
from ..simnet.process import Process
from ..transport.errors import SocketClosed
from .cache import DNSCache
from .errors import (NoAnswerError, NxDomainError, ResolutionError,
                     ServFailError)
from .message import (DNSMessage, Rcode, ResourceRecord,
                      encode_query_wire)
from .name import DNSName
from .nsselect import (ConfigurableNSPolicy, GluePlan, ResolverBehavior,
                       RetryAction, ServerInfo)
from .rdata import RdataType

MAX_DELEGATION_DEPTH = 16
MAX_CNAME_CHASES = 8

#: Slack added to attempt timers, emulating daemon timer coarseness:
#: a response delayed by exactly the configured timeout is still used,
#: which matches how the paper reports "maximum IPv6 delay used" equal
#: to the observed fallback timeout (Table 3).
TIMER_SLACK = 0.001


@dataclass(frozen=True)
class UpstreamQuery:
    """One query the resolver sent toward an authoritative server."""

    timestamp: float
    server: IPAddress
    qname: DNSName
    qtype: RdataType
    timeout: float
    answered: bool
    rtt: Optional[float]

    @property
    def family(self) -> Family:
        return family_of(self.server)


@dataclass
class ResolutionResult:
    """Answer of a completed resolution."""

    qname: DNSName
    qtype: RdataType
    records: List[ResourceRecord] = field(default_factory=list)
    duration: float = 0.0
    upstream_queries: List[UpstreamQuery] = field(default_factory=list)

    @property
    def addresses(self) -> List[IPAddress]:
        return [rr.rdata.address for rr in self.records  # type: ignore
                if rr.rtype in (RdataType.A, RdataType.AAAA)]


class RecursiveResolver:
    """Policy-driven iterative resolver on a simulated host."""

    def __init__(self, host: Host,
                 root_hints: Dict[str, Sequence[Union[str, IPAddress]]],
                 behavior: Optional[ResolverBehavior] = None,
                 rng_label: Optional[str] = None) -> None:
        """``root_hints`` maps root-server names to their addresses."""
        if not root_hints:
            raise ValueError("recursive resolver needs root hints")
        self.host = host
        self.behavior = behavior or ResolverBehavior(name="default")
        rng = host.sim.derive_rng(
            rng_label or f"resolver:{host.name}:{self.behavior.name}")
        self.policy = ConfigurableNSPolicy(self.behavior, rng)
        self.root_servers = [
            ServerInfo(ns_name=DNSName.from_text(name),
                       address=parse_address(addr))
            for name, addresses in root_hints.items()
            for addr in addresses]
        self.upstream_log: List[UpstreamQuery] = []
        self._listen_socket = None

    # -- public API -----------------------------------------------------------

    def resolve(self, name: Union[str, DNSName],
                rtype: RdataType) -> Process:
        """Spawn a resolution process yielding a ResolutionResult."""
        qname = name if isinstance(name, DNSName) else DNSName.from_text(name)
        return self.host.sim.process(
            self._resolve_body(qname, rtype),
            name=f"recursive:{qname}:{rtype.name}")

    def serve(self, port: int = 53,
              addresses: Optional[List[Union[str, IPAddress]]] = None
              ) -> None:
        """Answer client queries on UDP ``port`` (SERVFAIL on failure)."""
        socks = ([self.host.udp.socket(local_port=port)]
                 if addresses is None else
                 [self.host.udp.socket(local_addr=a, local_port=port)
                  for a in addresses])
        for sock in socks:
            self.host.sim.process(self._serve_loop(sock),
                                  name=f"resolver-serve:{self.host.name}")

    # -- serving clients ----------------------------------------------------------

    def _serve_loop(self, sock):
        while True:
            try:
                datagram = yield sock.recv()
            except SocketClosed:
                return
            try:
                query = DNSMessage.decode_interned(datagram.payload)
            except Exception:
                continue
            if query.qr or not query.questions:
                continue
            self.host.sim.process(
                self._answer_client(sock, datagram, query),
                name="resolver-answer")

    def _answer_client(self, sock, datagram, query: DNSMessage):
        question = query.question
        try:
            result = yield self.resolve(question.name, question.rtype)
        except NxDomainError:
            response = query.make_response(rcode=Rcode.NXDOMAIN, ra=True)
        except NoAnswerError:
            response = query.make_response(rcode=Rcode.NOERROR, ra=True)
        except ResolutionError:
            response = query.make_response(rcode=Rcode.SERVFAIL, ra=True)
        else:
            response = query.make_response(ra=True)
            response.answers.extend(result.records)
        if not sock.closed:
            sock.sendto(response.encode(), datagram.src, datagram.sport,
                        src=datagram.dst)

    # -- the iterative walk -----------------------------------------------------------

    def _resolve_body(self, qname: DNSName, rtype: RdataType,
                      depth: int = 0):
        sim = self.host.sim
        started = sim.now
        if depth > MAX_CNAME_CHASES:
            raise ResolutionError(f"CNAME chain too deep for {qname}")
        result = ResolutionResult(qname=qname, qtype=rtype)
        servers = [ServerInfo(s.ns_name, s.address)
                   for s in self.root_servers]

        for _hop in range(MAX_DELEGATION_DEPTH):
            response = yield from self._query_servers(
                qname, rtype, servers, result)
            if response is None:
                raise ServFailError(
                    f"all servers failed for {qname} {rtype.name}")
            if response.rcode is Rcode.NXDOMAIN:
                raise NxDomainError(f"{qname} does not exist")
            if response.rcode is not Rcode.NOERROR:
                raise ServFailError(
                    f"upstream rcode {response.rcode.name} for {qname}")

            direct = [rr for rr in response.answers if rr.rtype == rtype
                      and rr.name == qname]
            if direct:
                result.records.extend(response.answers)
                result.duration = sim.now - started
                return result

            cnames = [rr for rr in response.answers
                      if rr.rtype is RdataType.CNAME and rr.name == qname]
            if cnames:
                target = cnames[0].rdata.target  # type: ignore[attr-defined]
                chased = yield self.host.sim.process(
                    self._resolve_body(target, rtype, depth + 1))
                result.records.extend(cnames)
                result.records.extend(chased.records)
                result.upstream_queries.extend(chased.upstream_queries)
                result.duration = sim.now - started
                return result

            ns_records = [rr for rr in response.authorities
                          if rr.rtype is RdataType.NS]
            if response.aa and not ns_records:
                # Authoritative NODATA.
                raise NoAnswerError(f"{qname} has no {rtype.name} records")
            if not ns_records:
                raise ServFailError(
                    f"lame response for {qname}: no answer, no referral")
            servers = yield from self._servers_from_referral(
                response, ns_records, result)
            if not servers:
                raise ServFailError(
                    f"referral for {qname} yielded no usable addresses")
        raise ResolutionError(f"delegation chain too long for {qname}")

    # -- talking to one delegation level ----------------------------------------------

    def _query_servers(self, qname: DNSName, rtype: RdataType,
                       servers: List[ServerInfo],
                       result: ResolutionResult):
        """Try servers per policy until one answers; None if all fail."""
        current = self.policy.initial_select(servers)
        timeout = self.policy.first_timeout()
        attempts = 0
        while current is not None:
            attempts += 1
            response = yield from self._single_query(
                qname, rtype, current, timeout, result)
            if response is not None:
                return response
            action, nxt, next_timeout = self.policy.after_timeout(
                current, servers, attempts)
            if action is RetryAction.GIVE_UP:
                return None
            current = nxt
            timeout = next_timeout
        return None

    def _single_query(self, qname: DNSName, rtype: RdataType,
                      server: ServerInfo, timeout: float,
                      result: ResolutionResult):
        """One query/response exchange with one server address."""
        from ..simnet.host import NoRouteError

        sim = self.host.sim
        sock = self.host.udp.socket()
        sent_at = sim.now
        server.queries_sent += 1
        try:
            query_id = (id(sock) ^ int(sim.now * 1e6)) & 0xFFFF
            message = DNSMessage.make_query(qname, rtype, query_id, rd=False)
            try:
                sock.sendto(
                    encode_query_wire(qname, rtype, query_id, rd=False),
                    server.address, 53)
            except NoRouteError:
                # Resolver host lacks this family: the §5.3 capability
                # gate ("cannot resolve IPv6-only delegations").
                server.failures += 1
                return None
            deadline = sim.timeout(timeout + TIMER_SLACK)
            while True:
                receive = sock.recv()
                raced = yield sim.any_of([receive, deadline])
                if deadline in raced and receive not in raced:
                    sock.discard_waiter(receive)
                    server.failures += 1
                    entry = UpstreamQuery(
                        timestamp=sent_at, server=server.address,
                        qname=qname, qtype=rtype, timeout=timeout,
                        answered=False, rtt=None)
                    self.upstream_log.append(entry)
                    result.upstream_queries.append(entry)
                    return None
                datagram = receive.value
                try:
                    response = DNSMessage.decode(datagram.payload)
                except Exception:
                    continue
                if response.id != query_id or not response.qr:
                    continue
                rtt = sim.now - sent_at
                server.srtt = rtt if server.srtt is None else (
                    0.75 * server.srtt + 0.25 * rtt)
                entry = UpstreamQuery(
                    timestamp=sent_at, server=server.address,
                    qname=qname, qtype=rtype, timeout=timeout,
                    answered=True, rtt=rtt)
                self.upstream_log.append(entry)
                result.upstream_queries.append(entry)
                return response
        finally:
            sock.close()

    # -- referral processing -----------------------------------------------------------

    def _servers_from_referral(self, response: DNSMessage,
                               ns_records: List[ResourceRecord],
                               result: ResolutionResult):
        """Build the next candidate set, honoring the glue plan."""
        glue: Dict[DNSName, List[IPAddress]] = {}
        for rr in response.additionals:
            if rr.rtype in (RdataType.A, RdataType.AAAA):
                glue.setdefault(rr.name, []).append(
                    rr.rdata.address)  # type: ignore[attr-defined]

        servers: List[ServerInfo] = []
        for ns_rr in ns_records:
            ns_name = ns_rr.rdata.target  # type: ignore[attr-defined]
            addresses = list(glue.get(ns_name, []))
            if addresses and not self.behavior.queries_ns_addresses_despite_glue:
                servers.extend(ServerInfo(ns_name, addr)
                               for addr in addresses)
                continue
            # (Re-)query the NS name's addresses per the glue plan,
            # using glue (or already-known addresses) as transport.
            transport = addresses or [s.address for s in servers]
            fetched = yield from self._fetch_ns_addresses(
                ns_name, transport, result)
            combined = list(dict.fromkeys(fetched + addresses))
            servers.extend(ServerInfo(ns_name, addr) for addr in combined)
        return servers

    def _fetch_ns_addresses(self, ns_name: DNSName,
                            transport: List[IPAddress],
                            result: ResolutionResult):
        """Query A/AAAA for a name-server name per the glue plan."""
        plan = self.behavior.glue_plan
        if not transport:
            return []
        if plan is GluePlan.AAAA_FIRST:
            order = [RdataType.AAAA, RdataType.A]
        elif plan is GluePlan.A_FIRST:
            order = [RdataType.A, RdataType.AAAA]
        elif plan is GluePlan.SINGLE:
            pick = (RdataType.AAAA
                    if self.policy.rng.random() < 0.5 else RdataType.A)
            order = [pick]
        else:  # AAAA_AFTER_USE: A now; AAAA later, after the main query.
            order = [RdataType.A]

        found: List[IPAddress] = []
        for qtype in order:
            server = ServerInfo(ns_name, transport[0])
            response = yield from self._single_query(
                ns_name, qtype, server, self.behavior.attempt_timeout,
                result)
            if response is None:
                continue
            for rr in response.answers:
                if rr.rtype == qtype and rr.name == ns_name:
                    found.append(rr.rdata.address)  # type: ignore

        if plan is GluePlan.AAAA_AFTER_USE:
            # Schedule the late AAAA probe observed for Google P. DNS:
            # it arrives at the authoritative server after the main query.
            self.host.sim.process(
                self._late_aaaa_probe(ns_name, transport[0]),
                name=f"late-aaaa:{ns_name}")
        return found

    def _late_aaaa_probe(self, ns_name: DNSName, server_addr: IPAddress):
        yield self.host.sim.timeout(0.010)
        throwaway = ResolutionResult(qname=ns_name, qtype=RdataType.AAAA)
        server = ServerInfo(ns_name, server_addr)
        yield from self._single_query(ns_name, RdataType.AAAA, server,
                                      self.behavior.attempt_timeout,
                                      throwaway)


class ForwardingResolver:
    """A caching-free forwarder with a configurable upstream timeout.

    This is the resolver the *client* hosts point at in the browser
    testbed.  Its ``upstream_timeout`` is the timeout that clients
    without their own DNS timeout inherit (§5.2): when the
    authoritative server delays a record beyond it, the stub only gets
    an answer (SERVFAIL) after this timeout fires.
    """

    def __init__(self, host: Host, upstream: Union[str, IPAddress],
                 upstream_timeout: float = 5.0, port: int = 53,
                 upstream_port: int = 53,
                 cache: Optional["DNSCache"] = None) -> None:
        self.host = host
        self.upstream = parse_address(upstream)
        self.upstream_timeout = upstream_timeout
        self.port = port
        self.upstream_port = upstream_port
        self.cache = cache
        self.forwarded = 0
        self.servfails = 0
        self.cache_answers = 0
        self._sock = None

    def start(self) -> "ForwardingResolver":
        self._sock = self.host.udp.socket(local_port=self.port)
        self.host.sim.process(self._serve(),
                              name=f"forwarder:{self.host.name}")
        return self

    def stop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _serve(self):
        while self._sock is not None:
            try:
                datagram = yield self._sock.recv()
            except SocketClosed:
                return
            try:
                query = DNSMessage.decode_interned(datagram.payload)
            except Exception:
                continue
            if query.qr or not query.questions:
                continue
            self.host.sim.process(self._forward(datagram, query),
                                  name="forward")

    def _forward(self, datagram, query: DNSMessage):
        sim = self.host.sim
        if self.cache is not None:
            cached = self.cache.answer_from_cache(query, sim.now)
            if cached is not None:
                self.cache_answers += 1
                if self._sock is not None and not self._sock.closed:
                    self._sock.sendto(cached.encode(), datagram.src,
                                      datagram.sport, src=datagram.dst)
                return
        upstream_sock = self.host.udp.socket()
        try:
            # Relay the original query bytes: re-encoding the decoded
            # message would produce the same wire anyway.
            upstream_sock.sendto(datagram.payload, self.upstream,
                                 self.upstream_port)
            self.forwarded += 1
            deadline = sim.timeout(self.upstream_timeout)
            while True:
                receive = upstream_sock.recv()
                raced = yield sim.any_of([receive, deadline])
                if deadline in raced and receive not in raced:
                    upstream_sock.discard_waiter(receive)
                    self.servfails += 1
                    out_wire = query.make_response(
                        rcode=Rcode.SERVFAIL, ra=True).encode()
                    break
                upstream = receive.value
                wire = upstream.payload
                if self.cache is None:
                    # No cache to populate: validate the response via the
                    # shared intern table (read-only) and relay the
                    # upstream bytes with just the RA bit patched in,
                    # skipping the decode→mutate→re-encode round trip.
                    try:
                        response = DNSMessage.decode_interned(wire)
                    except Exception:
                        continue
                    if response.id != query.id:
                        continue
                    out_wire = wire[:3] + bytes((wire[3] | 0x80,)) + wire[4:]
                    break
                try:
                    response = DNSMessage.decode(wire)
                except Exception:
                    continue
                if response.id != query.id:
                    continue
                response.ra = True
                self.cache.store_response(response, sim.now)
                out_wire = response.encode()
                break
            if self._sock is not None and not self._sock.closed:
                self._sock.sendto(out_wire, datagram.src,
                                  datagram.sport, src=datagram.dst)
        finally:
            upstream_sock.close()
