"""iCloud Private Relay egress modeling (§5.1/§5.2).

With iCPR enabled, Safari does not build an IP tunnel: it hands the
*server name* to a MASQUE egress node, which performs DNS resolution
and the whole transport stack on the client's behalf.  Measurements
through iCPR therefore show the **egress operator's** connection
establishment policy, not Safari's:

* Akamai egress — CAD 150 ms, A/AAAA query timeout 400 ms,
* Cloudflare egress — CAD 200 ms, A/AAAA query timeout 1.75 s,

and neither implements RD or address selection, so "Safari users lose
RD and address selection features" behind iCPR (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ..core.engine import HappyEyeballsEngine
from ..core.events import HETrace
from ..core.params import HEParams, InterlaceStrategy, ResolutionPolicy
from ..dns.stub import StubResolver
from ..seeding import stable_run_seed
from ..simnet.addr import IPAddress
from ..simnet.host import Host
from ..simnet.process import Process


@dataclass(frozen=True)
class EgressOperatorProfile:
    """Observable connection policy of one iCPR egress operator."""

    operator: str
    connection_attempt_delay: float
    dns_timeout: float  # applies to both the A and the AAAA query

    def params(self) -> HEParams:
        return HEParams(
            connection_attempt_delay=self.connection_attempt_delay,
            resolution_delay=None,
            resolution_policy=ResolutionPolicy.WAIT_BOTH,
            interlace=InterlaceStrategy.SEQUENTIAL,
            max_attempts_per_family=1,
        )


AKAMAI_EGRESS = EgressOperatorProfile(
    operator="Akamai", connection_attempt_delay=0.150, dns_timeout=0.400)
CLOUDFLARE_EGRESS = EgressOperatorProfile(
    operator="Cloudflare", connection_attempt_delay=0.200,
    dns_timeout=1.750)

EGRESS_OPERATORS = (AKAMAI_EGRESS, CLOUDFLARE_EGRESS)


class ICPREgressNode:
    """A MASQUE egress node performing HE on behalf of relay clients.

    The egress applies its *own* per-record-type DNS timeout (so a
    delayed AAAA only stalls it for ``dns_timeout``) and a fixed CAD —
    the behaviour the paper extracted from web measurements over iCPR.
    """

    def __init__(self, host: Host, operator: EgressOperatorProfile,
                 nameservers: Sequence[Union[str, IPAddress]]) -> None:
        self.host = host
        self.operator = operator
        # retries=0 and timeout=dns_timeout: the operator's stub gives
        # up on a record type after its own deadline, unlike browsers.
        self.stub = StubResolver(host, nameservers,
                                 timeout=operator.dns_timeout, retries=0)
        self.trace = HETrace()
        self.engine = HappyEyeballsEngine(host, self.stub,
                                          operator.params())
        self.connections_proxied = 0

    def proxied_fetch(self, hostname: str, port: int = 80) -> Process:
        """Fetch ``hostname`` the way a relayed Safari request would.

        Returns the egress-side :class:`HEResult`; the relay client only
        learns success/failure and payload, never addresses — which is
        why iCPR hides the client's HE features.
        """
        return self.host.sim.process(self._fetch_body(hostname, port),
                                     name=f"icpr:{self.operator.operator}")

    def _fetch_body(self, hostname: str, port: int):
        self.connections_proxied += 1
        result = yield self.engine.connect(hostname, port, trace=self.trace)
        connection = result.connection
        connection.send(b"GET /ip HTTP/1.1\r\nHost: "
                        + hostname.encode("ascii") + b"\r\n\r\n")
        reply = yield connection.recv()
        connection.close()
        return result, reply


class ICPRRelayService:
    """The egress node's proxy listener (MASQUE-style, simplified).

    Relay clients open a TCP connection and send
    ``CONNECT <hostname>\\r\\n``; the egress performs DNS + Happy
    Eyeballs + the fetch *itself* and streams the result back.  The
    client never sees target addresses — exactly why iCPR measurements
    reveal the egress operator's stack, not Safari's (§5.1).
    """

    PROXY_PORT = 4443

    def __init__(self, egress: ICPREgressNode,
                 port: int = PROXY_PORT) -> None:
        self.egress = egress
        self.port = port
        self.listener = None

    def start(self) -> "ICPRRelayService":
        host = self.egress.host
        self.listener = host.tcp.listen(self.port)
        host.sim.process(self._accept_loop(), name="icpr-relay")
        return self

    def _accept_loop(self):
        from ..transport.errors import SocketClosed

        while self.listener is not None:
            try:
                connection = yield self.listener.accept()
            except SocketClosed:
                return
            self.egress.host.sim.process(
                self._serve(connection), name="icpr-relay-conn")

    def _serve(self, connection):
        from ..transport.errors import SocketClosed, ConnectionAborted

        try:
            request = yield connection.recv()
        except (SocketClosed, ConnectionAborted):
            return
        if not request.startswith(b"CONNECT "):
            connection.abort()
            return
        hostname = request[len(b"CONNECT "):].split(b"\r\n")[0].decode()
        try:
            _result, reply = yield self.egress.proxied_fetch(hostname)
        except Exception:  # noqa: BLE001 - proxy reports failure inline
            try:
                connection.send(b"ICPR-ERROR\r\n")
            except SocketClosed:
                pass
            return
        try:
            connection.send(b"ICPR-OK\r\n" + reply)
            connection.close()
        except SocketClosed:
            pass


class ICPRRelayClient:
    """A Safari-with-iCPR-enabled client: everything goes via the relay."""

    def __init__(self, host: Host, relay_address,
                 relay_port: int = ICPRRelayService.PROXY_PORT) -> None:
        self.host = host
        self.relay_address = relay_address
        self.relay_port = relay_port

    def fetch(self, hostname: str) -> Process:
        return self.host.sim.process(self._fetch_body(hostname),
                                     name=f"icpr-client:{hostname}")

    def _fetch_body(self, hostname: str):
        attempt = self.host.tcp.connect(self.relay_address,
                                        self.relay_port)
        connection = yield attempt.established
        connection.send(b"CONNECT " + hostname.encode("ascii") + b"\r\n")
        reply = yield connection.recv()
        connection.close()
        ok = reply.startswith(b"ICPR-OK")
        body = reply.split(b"\r\n", 1)[-1] if ok else b""
        return ok, body


# --------------------------------------------------------------------------
# Measurement helpers (the §5.1/§5.2 iCPR experiments)
# --------------------------------------------------------------------------


def measure_egress_cad(operator: EgressOperatorProfile,
                       delays_ms: Sequence[int],
                       seed: int = 0) -> "dict[int, str]":
    """Egress-node family choice per configured IPv6 delay.

    Returns ``{delay_ms: "IPv6"|"IPv4"}``; the crossover reveals the
    operator's CAD (Akamai 150 ms, Cloudflare 200 ms in the paper).
    """
    from ..testbed.topology import LocalTestbed

    outcomes = {}
    for delay_ms in delays_ms:
        testbed = LocalTestbed(seed=stable_run_seed(seed, delay_ms))
        testbed.delay_ipv6_tcp(delay_ms / 1000.0)
        egress = ICPREgressNode(testbed.client, operator,
                                testbed.resolver_addresses[:1])
        process = egress.proxied_fetch(
            f"icpr-{delay_ms}.{testbed.test_domain}")
        result, _reply = testbed.sim.run_until(process)
        outcomes[delay_ms] = result.winning_family.label
    return outcomes


def measure_egress_dns_timeout(operator: EgressOperatorProfile,
                               delayed_rtype,
                               injected_delay_s: float = 3.0,
                               seed: int = 0) -> float:
    """How long the egress stalls when one record type is delayed.

    Both measured operators apply the *same* timeout to A and AAAA
    queries (Akamai 400 ms, Cloudflare 1.75 s) — far from Safari's own
    50 ms resolution delay, which iCPR users therefore lose.
    """
    from ..testbed.topology import LocalTestbed
    from ..testbed.inference import time_to_first_attempt

    testbed = LocalTestbed(seed=seed)
    testbed.set_dns_delay(delayed_rtype, injected_delay_s)
    capture = testbed.start_client_capture()
    egress = ICPREgressNode(testbed.client, operator,
                            testbed.resolver_addresses[:1])
    process = egress.proxied_fetch(f"icpr-rd.{testbed.test_domain}")
    testbed.sim.run_until(process)
    stall = time_to_first_attempt(capture)
    assert stall is not None
    return stall
