"""Setup modules: the pluggable stages of the framework (App. Fig. 3).

The paper's test runner executes per-case and per-run setup stages
defined in configuration ("Setup stages can be executed at each test
run configuration, or only at the start and end of a test case").
Each module encapsulates one concern — traffic shaping, DNS delays,
unresponsive address sets, packet capture — and the runner composes
the modules a test-case kind requires.
"""

from __future__ import annotations

from typing import List, Optional

from ..dns.rdata import RdataType
from ..simnet.capture import PacketCapture
from ..simnet.netem import NetemFilter, NetemRule, NetemSpec
from .config import TestCaseConfig, TestCaseKind
from .topology import LocalTestbed


class SetupModule:
    """Base class: hooks called around each test case and run."""

    name = "module"

    def on_case_start(self, testbed: LocalTestbed,
                      case: TestCaseConfig) -> None:
        """Runs once when a test case begins (fresh testbed)."""

    def on_run_start(self, testbed: LocalTestbed, case: TestCaseConfig,
                     value_ms: int, run_label: str) -> None:
        """Runs before each (configuration value, repetition)."""

    def on_run_end(self, testbed: LocalTestbed, case: TestCaseConfig,
                   value_ms: int) -> None:
        """Runs after each run; undo per-run state."""


class NetemModule(SetupModule):
    """Applies the per-run IPv6 TCP delay (the CAD experiment knob)."""

    name = "netem"

    def on_run_start(self, testbed, case, value_ms, run_label):
        if case.kind is TestCaseKind.CONNECTION_ATTEMPT_DELAY:
            testbed.delay_ipv6_tcp(value_ms / 1000.0)

    def on_run_end(self, testbed, case, value_ms):
        testbed.clear_shaping()


class DnsDelayModule(SetupModule):
    """Delays one DNS record type at the authoritative server."""

    name = "dns-delay"

    def on_run_start(self, testbed, case, value_ms, run_label):
        if case.kind is TestCaseKind.RESOLUTION_DELAY:
            testbed.set_dns_delay(RdataType.AAAA, value_ms / 1000.0)
        elif case.kind is TestCaseKind.DELAYED_A:
            testbed.set_dns_delay(RdataType.A, value_ms / 1000.0)

    def on_run_end(self, testbed, case, value_ms):
        testbed.clear_dns_delays()


class AddressSelectionModule(SetupModule):
    """Registers N unresponsive addresses per family for a run.

    The addresses come from dedicated prefixes that are never attached
    to any interface, so every SYN toward them blackholes (§4.1(iii)).
    """

    name = "address-selection"
    UNRESPONSIVE_V4_PREFIX = "203.0.113."
    UNRESPONSIVE_V6_PREFIX = "2001:db8:dead::"

    def __init__(self) -> None:
        self.last_hostname: Optional[str] = None

    def on_run_start(self, testbed, case, value_ms, run_label):
        if case.kind is not TestCaseKind.ADDRESS_SELECTION:
            return
        count = case.addresses_per_family
        addresses = (
            [f"{self.UNRESPONSIVE_V6_PREFIX}{i + 1:x}"
             for i in range(count)]
            + [f"{self.UNRESPONSIVE_V4_PREFIX}{i + 1}"
               for i in range(count)])
        self.last_hostname = testbed.add_domain(
            f"sel-{run_label}", addresses)


class ImpairmentModule(SetupModule):
    """Applies a case's declarative :class:`ImpairmentSpec` stanzas.

    Each stanza becomes one netem rule on the server egress (where the
    paper attaches ``tc``) — or a static DNS answer delay when
    ``dns_rtype`` is set.  ``value_scaled`` stanzas add the run's sweep
    value to their base delay, so a single spec describes a sweep.
    """

    name = "impairment"

    def on_run_start(self, testbed, case, value_ms, run_label):
        for spec in case.impairments:
            delay_s = spec.delay_s + (value_ms / 1000.0
                                      if spec.value_scaled else 0.0)
            if spec.dns_rtype is not None:
                testbed.set_dns_delay(spec.dns_rtype, delay_s)
                continue
            testbed.server_iface.egress.add_rule(NetemRule(
                spec=NetemSpec(
                    delay=delay_s,
                    jitter=spec.jitter_s,
                    jitter_correlation=spec.jitter_correlation,
                    loss=spec.loss,
                    reorder_probability=spec.reorder_probability,
                    reorder_gap=spec.reorder_gap_s,
                    rate_bps=spec.rate_bps),
                filter=NetemFilter(family=spec.family,
                                   protocol=spec.protocol),
                name=spec.name or spec.label()))

    def on_run_end(self, testbed, case, value_ms):
        if case.impairments:
            testbed.clear_shaping()
            testbed.clear_dns_delays()


class ServiceModule(SetupModule):
    """Applies a case's :class:`~repro.testbed.config.ServiceSpec`.

    Registers a dedicated hostname for the run and, per the spec:
    answers it with an explicit address set (attached to the server
    node so the addresses respond — the sortlist scenarios), publishes
    an HTTPS/SVCB record (the HEv3 discovery scenarios), serves an
    alternative web port, and answers QUIC Initials on the web port(s).
    """

    name = "service-discovery"

    def __init__(self) -> None:
        self.last_hostname: Optional[str] = None

    def on_run_start(self, testbed, case, value_ms, run_label):
        spec = case.service
        if spec is None:
            return
        from ..dns.rdata import HTTPS
        from ..dns.name import DNSName
        from .topology import SERVER_V4, SERVER_V6, WEB_PORT, EchoWebServer

        label = f"svc-{run_label}"
        addresses = spec.addresses or (SERVER_V6, SERVER_V4)
        self.last_hostname = testbed.add_domain(label, list(addresses))
        from ..simnet.addr import parse_address

        for address in spec.addresses:
            if parse_address(address) not in testbed.server_iface.addresses:
                testbed.attach_server_address(address)
        if spec.https_alpn:
            record = HTTPS.service(
                priority=1, target=DNSName.root(), alpn=spec.https_alpn,
                port=spec.https_port)
            testbed.zone.add(label, record)
        if spec.https_port is not None:
            EchoWebServer(testbed.server, spec.https_port).start()
        if spec.quic_listener:
            testbed.server.quic.listen(WEB_PORT)
            if spec.https_port is not None:
                testbed.server.quic.listen(spec.https_port)


class CaptureModule(SetupModule):
    """start capture.sh / stop capture.sh on the client node."""

    name = "packet-capture"

    def __init__(self) -> None:
        self.capture: Optional[PacketCapture] = None

    def on_run_start(self, testbed, case, value_ms, run_label):
        self.capture = testbed.start_client_capture()

    def on_run_end(self, testbed, case, value_ms):
        if self.capture is not None:
            self.capture.stop()


def modules_for(case: TestCaseConfig) -> List[SetupModule]:
    """The module chain a test-case kind needs (capture always last)."""
    chain: List[SetupModule] = []
    if case.kind is TestCaseKind.CONNECTION_ATTEMPT_DELAY:
        chain.append(NetemModule())
    if case.kind in (TestCaseKind.RESOLUTION_DELAY, TestCaseKind.DELAYED_A):
        chain.append(DnsDelayModule())
    if case.kind is TestCaseKind.ADDRESS_SELECTION:
        chain.append(AddressSelectionModule())
    if case.service is not None:
        chain.append(ServiceModule())
    if case.impairments:
        chain.append(ImpairmentModule())
    chain.append(CaptureModule())
    return chain
