"""The web tool deployment: one server, 18 shaped address pairs.

A single simulated host carries every delay step's dedicated IPv4/IPv6
address pair, an echo web service answering on all of them, per-pair
netem rules delaying IPv6 traffic, and the authoritative DNS for the
per-delay domains (with wildcards, so each measurement can use a fresh
nonce hostname).
"""

from __future__ import annotations

from typing import List, Optional

from ..dns.auth import AuthoritativeServer
from ..dns.zone import Zone
from ..simnet.addr import AddressAllocator
from ..simnet.host import Host
from ..simnet.netem import NetemFilter, NetemRule, NetemSpec
from ..simnet.network import Network, NetworkSegment
from ..testbed.topology import EchoWebServer
from .ladder import DELAY_LADDER_MS, DelayStep, WEBTOOL_DOMAIN, build_ladder

SERVER_DNS_V4 = "198.51.100.2"
WEB_PORT = 80


class WebToolDeployment:
    """The publicly reachable tool: server side of happy-eyeballs.net."""

    def __init__(self, network: Optional[Network] = None, seed: int = 0,
                 delays_ms=DELAY_LADDER_MS) -> None:
        self.network = network if network is not None else Network(seed=seed)
        self.sim = self.network.sim
        self.segment: NetworkSegment = self.network.add_segment(
            "internet", propagation_delay=0.0005)
        self.server: Host = self.network.add_host("webtool-server")
        self.ladder: List[DelayStep] = build_ladder(delays_ms=delays_ms)

        addresses = [SERVER_DNS_V4]
        for step in self.ladder:
            addresses.extend([step.v4_address, step.v6_address])
        self.server_iface = self.network.connect(self.server, self.segment,
                                                 addresses)
        self._apply_ladder_shaping()
        self.zone = self._build_zone()
        self.auth = AuthoritativeServer(self.server, [self.zone]).start()
        self.web = EchoWebServer(self.server, WEB_PORT).start()

        # Browser hosts get addresses from these pools, one pair per
        # session (different visitors come from different addresses).
        self._browser_v4 = AddressAllocator("203.0.113.0/24")
        self._browser_v6 = AddressAllocator("2001:db8:99::/64")

    # -- server-side configuration ----------------------------------------

    def _apply_ladder_shaping(self) -> None:
        """Per-step netem: delay IPv6 traffic of that step's pair."""
        for step in self.ladder:
            if step.delay_ms <= 0:
                continue
            self.server_iface.egress.add_rule(NetemRule(
                spec=NetemSpec(delay=step.delay_ms / 1000.0),
                filter=NetemFilter(src_addresses=[step.v6_address]),
                name=f"web-delay-{step.delay_ms}ms"))

    def _build_zone(self) -> Zone:
        zone = Zone(WEBTOOL_DOMAIN)
        for step in self.ladder:
            label = f"t{step.delay_ms}"
            zone.add_address(f"*.{label}", step.v4_address)
            zone.add_address(f"*.{label}", step.v6_address)
            zone.add_address(label, step.v4_address)
            zone.add_address(label, step.v6_address)
        # The RD test page: undelayed pair, test parameters in qnames.
        baseline = self.ladder[0]
        zone.add_address("*.rd", baseline.v4_address)
        zone.add_address("*.rd", baseline.v6_address)
        return zone

    @property
    def dns_address(self) -> str:
        return SERVER_DNS_V4

    # -- browser attachment --------------------------------------------------

    def attach_browser_host(self, label: str) -> Host:
        """A fresh dual-stack host for one visiting browser session."""
        host = self.network.add_host(f"browser-{label}")
        self.network.connect(host, self.segment, [
            self._browser_v4.allocate(), self._browser_v6.allocate()])
        return host
