"""The two-host local testbed topology (§4.3(i), App. Figure 3).

A client node and a server node on one directly connected segment.  The
server node runs the web service (NGINX's stand-in), the custom
authoritative DNS server, and a forwarding resolver whose timeout the
clients inherit; traffic shaping attaches to the server's interface
exactly where the paper's ``tc-netem`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..dns.auth import AuthoritativeServer
from ..dns.recursive import ForwardingResolver
from ..dns.zone import Zone
from ..simnet.addr import Family, IPAddress, parse_address
from ..simnet.capture import PacketCapture
from ..simnet.host import Host
from ..simnet.netem import NetemFilter, NetemRule, NetemSpec
from ..simnet.network import Network, NetworkSegment
from ..simnet.packet import Protocol
from ..transport.tcp import TCPListener

#: Default addressing plan of the lab segment.
CLIENT_V4 = "192.0.2.1"
CLIENT_V6 = "2001:db8:1::1"
SERVER_V4 = "192.0.2.10"
SERVER_V6 = "2001:db8:1::10"
RESOLVER_V4 = "192.0.2.2"
RESOLVER_V6 = "2001:db8:1::2"

#: The domain the testbed serves; every test qname lives under it.
TEST_DOMAIN = "he-test.example"
WEB_PORT = 80


@dataclass
class EchoExchange:
    """Record of one HTTP-ish request served by the test web server."""

    timestamp: float
    client_address: IPAddress
    server_address: IPAddress

    @property
    def family(self) -> Family:
        from ..simnet.addr import family_of

        return family_of(self.client_address)


class EchoWebServer:
    """The web service under test: answers GET with the client's address.

    This is both the NGINX stand-in of the local testbed and the
    measurement primitive of the web tool: "our web server returns the
    client's source address in its response" (§4.3(ii)).
    """

    def __init__(self, host: Host, port: int = WEB_PORT) -> None:
        self.host = host
        self.port = port
        self.exchanges: List[EchoExchange] = []
        self._listener: Optional[TCPListener] = None

    def start(self) -> "EchoWebServer":
        self._listener = self.host.tcp.listen(self.port)
        self.host.sim.process(self._accept_loop(),
                              name=f"web:{self.host.name}")
        return self

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _accept_loop(self):
        from ..transport.errors import SocketClosed

        while self._listener is not None:
            try:
                connection = yield self._listener.accept()
            except SocketClosed:
                return
            self.host.sim.process(self._serve_one(connection),
                                  name="web-conn")

    def _serve_one(self, connection):
        from ..transport.errors import SocketClosed, ConnectionAborted

        try:
            request = yield connection.recv()
        except (SocketClosed, ConnectionAborted):
            return
        if not request:
            return
        self.exchanges.append(EchoExchange(
            timestamp=self.host.sim.now,
            client_address=connection.remote_addr,
            server_address=connection.local_addr))
        body = str(connection.remote_addr).encode("ascii")
        try:
            connection.send(b"HTTP/1.1 200 OK\r\n\r\n" + body)
        except SocketClosed:
            return


class LocalTestbed:
    """Client node + server node with the paper's server-side services."""

    def __init__(self, seed: int = 0,
                 resolver_timeout: float = 5.0,
                 propagation_delay: float = 0.0001) -> None:
        self.network = Network(seed=seed)
        self.sim = self.network.sim
        self.segment: NetworkSegment = self.network.add_segment(
            "lab", propagation_delay=propagation_delay)
        self.client: Host = self.network.add_host("client-node")
        self.server: Host = self.network.add_host("server-node")
        self.client_iface = self.network.connect(
            self.client, self.segment, [CLIENT_V4, CLIENT_V6])
        self.server_iface = self.network.connect(
            self.server, self.segment,
            [SERVER_V4, SERVER_V6, RESOLVER_V4, RESOLVER_V6])

        self.zone = self._build_zone()
        self.auth = AuthoritativeServer(
            self.server, [self.zone], port=5353).start()
        self.resolver = ForwardingResolver(
            self.server, upstream=RESOLVER_V4, upstream_port=5353,
            upstream_timeout=resolver_timeout)
        # The forwarder listens on :53 for the client's stub queries and
        # forwards to the co-located authoritative server on :5353.
        self.resolver.start()
        self.web = EchoWebServer(self.server, WEB_PORT).start()
        self._extra_addresses: List[IPAddress] = []

    # -- zone -----------------------------------------------------------------

    def _build_zone(self) -> Zone:
        zone = Zone(TEST_DOMAIN)
        zone.add_address("*", SERVER_V4)
        zone.add_address("*", SERVER_V6)
        zone.add_address("www", SERVER_V4)
        zone.add_address("www", SERVER_V6)
        return zone

    @property
    def test_domain(self) -> str:
        return TEST_DOMAIN

    @property
    def resolver_addresses(self) -> List[str]:
        return [RESOLVER_V4, RESOLVER_V6]

    def unique_hostname(self, label: str) -> str:
        """A fresh in-zone hostname (nonce against caching)."""
        return f"{label}.{TEST_DOMAIN}"

    def add_domain(self, label: str,
                   addresses: List[Union[str, IPAddress]]) -> str:
        """Register an extra name, e.g. for address-selection tests.

        Addresses that should be unresponsive simply stay unattached on
        the segment — the blackhole behaviour of §4.1(iii).
        """
        hostname = f"{label}.{TEST_DOMAIN}"
        self.zone.add_addresses(label, addresses)
        return hostname

    def attach_server_address(self, address: Union[str, IPAddress]) -> None:
        """Make one more address answer on the server node."""
        parsed = parse_address(address)
        self.server_iface.add_address(parsed)
        self._extra_addresses.append(parsed)

    # -- traffic shaping (the tc-netem equivalent) ---------------------------------

    def delay_ipv6_tcp(self, delay_s: float) -> None:
        """Delay IPv6 TCP on the server side — the CAD experiment knob.

        Scoped to TCP so that co-located DNS service timing is not
        perturbed (the paper runs DNS separately / pre-resolved).
        """
        self.server_iface.egress.add_rule(NetemRule(
            spec=NetemSpec(delay=delay_s),
            filter=NetemFilter(family=Family.V6, protocol=Protocol.TCP),
            name="cad-delay-v6"))

    def clear_shaping(self) -> None:
        self.server_iface.egress.clear()
        self.server_iface.ingress.clear()

    def set_dns_delay(self, rtype, delay_s: float) -> None:
        """Statically delay one DNS record type at the auth server."""
        self.auth.static_delays[rtype] = delay_s

    def clear_dns_delays(self) -> None:
        self.auth.static_delays.clear()

    # -- capturing ---------------------------------------------------------------

    def start_client_capture(self) -> PacketCapture:
        return self.client.start_capture()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)
