"""Test case and sweep configuration (App. Figure 3).

The paper's framework keeps test cases and clients *outside* the
framework code: a configuration names the case kind, the parameter
sweep (with coarse initial runs and fine-grained follow-ups), and the
repetition count.  These dataclasses are that configuration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..dns.rdata import RdataType
from ..simnet.addr import Family
from ..simnet.packet import Protocol


class TestCaseKind(enum.Enum):
    """The measurement targets of §4.1 (plus generic impairments)."""

    __test__ = False  # not a pytest class, despite the name

    CONNECTION_ATTEMPT_DELAY = "cad"
    RESOLUTION_DELAY = "rd"
    DELAYED_A = "delayed-a"
    ADDRESS_SELECTION = "address-selection"
    #: A case whose only setup is its declarative ``impairments`` —
    #: the conformance battery's scenario mechanism.
    IMPAIRMENT = "impairment"


@dataclass(frozen=True)
class ImpairmentSpec:
    """One declarative shaping stanza applied at every run of a case.

    The configuration-file equivalent of one ``tc filter``+``qdisc``
    line in the paper's setup scripts: which packets to match (family,
    protocol) and how to impair them (netem delay/jitter/loss/reorder/
    rate), or — with ``dns_rtype`` set — a static answer delay at the
    authoritative server instead of wire shaping.  Times are seconds,
    like :class:`~repro.simnet.netem.NetemSpec`.  With ``value_scaled``
    the case's sweep value (ms) is added to ``delay_s``, so one spec
    describes a whole delay sweep.
    """

    family: Optional[Family] = None
    protocol: Optional[Protocol] = None
    value_scaled: bool = False
    delay_s: float = 0.0
    jitter_s: float = 0.0
    jitter_correlation: float = 0.0
    loss: float = 0.0
    reorder_probability: float = 0.0
    reorder_gap_s: float = 0.001
    rate_bps: Optional[float] = None
    dns_rtype: Optional[RdataType] = None
    name: str = ""

    def __post_init__(self) -> None:
        # Validate every numeric field by name up front: a NaN or
        # out-of-range value would otherwise clamp (or misbehave)
        # silently deep inside netem, long after the config was built.
        self._check_seconds("delay_s", self.delay_s)
        self._check_seconds("jitter_s", self.jitter_s)
        self._check_seconds("reorder_gap_s", self.reorder_gap_s)
        self._check_probability("loss", self.loss)
        self._check_probability("reorder_probability",
                                self.reorder_probability)
        self._check_probability("jitter_correlation",
                                self.jitter_correlation)
        if self.rate_bps is not None and not (
                math.isfinite(self.rate_bps) and self.rate_bps > 0):
            raise ValueError(
                f"ImpairmentSpec.rate_bps must be a finite positive "
                f"rate (or None for unshaped): {self.rate_bps!r}")
        if self.dns_rtype is not None and (
                self.family is not None or self.protocol is not None
                or self.loss or self.jitter_s or self.reorder_probability
                or self.rate_bps is not None):
            raise ValueError(
                "a dns_rtype impairment is a static answer delay; "
                "netem fields do not apply to it")

    @staticmethod
    def _check_seconds(field_name: str, value: float) -> None:
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"ImpairmentSpec.{field_name} must be a finite "
                f"non-negative duration in seconds: {value!r}")

    @staticmethod
    def _check_probability(field_name: str, value: float) -> None:
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(
                f"ImpairmentSpec.{field_name} must be a finite "
                f"probability in [0, 1]: {value!r}")

    def label(self) -> str:
        """Descriptive shaping summary (``name`` is the rule name)."""
        parts = []
        if self.dns_rtype is not None:
            parts.append(f"dns-{self.dns_rtype.name.lower()}")
        if self.family is not None:
            parts.append(self.family.label)
        if self.protocol is not None:
            parts.append(self.protocol.value)
        if self.value_scaled:
            parts.append("delay=sweep")
        elif self.delay_s:
            parts.append(f"delay={self.delay_s * 1000:.0f}ms")
        if self.jitter_s:
            parts.append(f"jitter={self.jitter_s * 1000:.0f}ms")
        if self.loss:
            parts.append(f"loss={self.loss * 100:.0f}%")
        if self.reorder_probability:
            parts.append(f"reorder={self.reorder_probability * 100:.0f}%")
        if self.rate_bps is not None:
            parts.append(f"rate={self.rate_bps:.0f}bps")
        return ",".join(parts) or "no-op"


@dataclass(frozen=True)
class ServiceSpec:
    """Declarative server-side service discovery for one test case.

    The setup-stage equivalent of the HEv3 testbed additions: publish
    an HTTPS (SVCB) record for the test hostname, answer QUIC, serve an
    alternative port, or answer the hostname with an explicit address
    set (per-OS sortlist scenarios use ULA/site-local/Teredo space
    attached to the server node).  Consumed by
    :class:`~repro.testbed.modules.ServiceModule`.
    """

    #: ALPN tokens advertised in the published HTTPS record; empty
    #: means no HTTPS record is published.
    https_alpn: "Tuple[str, ...]" = ()
    #: Alternative port advertised in the HTTPS record (and served).
    https_port: Optional[int] = None
    #: Answer QUIC Initials on the web port(s).
    quic_listener: bool = False
    #: Explicit destination addresses for the test hostname (attached
    #: to the server node so they answer); empty keeps the standard
    #: dual-stack pair.
    addresses: "Tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        if self.https_port is not None and not 1 <= self.https_port <= 65535:
            raise ValueError(f"bad https_port: {self.https_port!r}")
        if self.https_port is not None and not self.https_alpn:
            raise ValueError("https_port needs an HTTPS record "
                             "(set https_alpn)")

    def label(self) -> str:
        parts = []
        if self.https_alpn:
            parts.append("https-rr=" + "+".join(self.https_alpn))
        if self.https_port is not None:
            parts.append(f"port={self.https_port}")
        if self.quic_listener:
            parts.append("quic")
        if self.addresses:
            parts.append(f"addrs={len(self.addresses)}")
        return ",".join(parts) or "no-op"


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over the test-run configuration variable (delay in ms).

    Supports the paper's two-phase strategy: "coarse initial runs and
    fine-grained follow-ups" (§4.3(i)).
    """

    values_ms: "tuple[int, ...]"

    def __post_init__(self) -> None:
        if not self.values_ms:
            raise ValueError("sweep needs at least one value")
        if any(v < 0 for v in self.values_ms):
            raise ValueError("sweep values must be non-negative")

    @classmethod
    def fixed(cls, *values_ms: int) -> "SweepSpec":
        return cls(tuple(values_ms))

    @classmethod
    def range(cls, start_ms: int, stop_ms: int, step_ms: int) -> "SweepSpec":
        """Inclusive range, like the paper's 0–400 ms in 5 ms steps."""
        if step_ms <= 0:
            raise ValueError(f"step must be positive: {step_ms}")
        return cls(tuple(range(start_ms, stop_ms + 1, step_ms)))

    @classmethod
    def coarse_fine(cls, coarse_step_ms: int, fine_step_ms: int,
                    stop_ms: int,
                    fine_window_ms: int = 100,
                    around_ms: Optional[int] = None) -> "SweepSpec":
        """Coarse pass everywhere plus a fine pass around a region.

        ``around_ms`` centers the fine window (e.g. a CAD estimate from
        the coarse pass); without it the fine pass covers everything.
        """
        coarse = set(range(0, stop_ms + 1, coarse_step_ms))
        if around_ms is None:
            fine = set(range(0, stop_ms + 1, fine_step_ms))
        else:
            lo = max(0, around_ms - fine_window_ms)
            hi = min(stop_ms, around_ms + fine_window_ms)
            fine = set(range(lo, hi + 1, fine_step_ms))
        return cls(tuple(sorted(coarse | fine)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.values_ms)

    def __len__(self) -> int:
        return len(self.values_ms)


@dataclass(frozen=True)
class TestCaseConfig:
    """One test case: what to vary and how to observe it."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    kind: TestCaseKind
    sweep: SweepSpec
    repetitions: int = 1
    #: For ADDRESS_SELECTION: how many (unresponsive) addresses per family.
    addresses_per_family: int = 10
    #: Observation window per run, simulated seconds.
    run_timeout: float = 30.0
    #: Declarative shaping applied at every run (any kind may stack
    #: impairments; an IMPAIRMENT-kind case typically has only these).
    impairments: Tuple[ImpairmentSpec, ...] = ()
    #: Server-side service discovery (HTTPS records, QUIC listener,
    #: explicit destination address sets) applied at every run.
    service: Optional[ServiceSpec] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not (math.isfinite(self.run_timeout)
                and self.run_timeout > 0):
            raise ValueError(
                f"TestCaseConfig.run_timeout must be a finite positive "
                f"duration in seconds: {self.run_timeout!r}")


def cad_case(fine: bool = True, stop_ms: int = 400,
             repetitions: int = 1) -> TestCaseConfig:
    """The paper's CAD case: 0–400 ms in 5 ms steps (coarse: 25 ms)."""
    sweep = (SweepSpec.range(0, stop_ms, 5) if fine
             else SweepSpec.range(0, stop_ms, 25))
    return TestCaseConfig(name="connection-attempt-delay",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=sweep, repetitions=repetitions)


def rd_case(repetitions: int = 1) -> TestCaseConfig:
    """Delay the AAAA answer; observe when IPv4 connecting starts."""
    return TestCaseConfig(name="resolution-delay",
                          kind=TestCaseKind.RESOLUTION_DELAY,
                          sweep=SweepSpec.fixed(200, 500, 1000, 2000),
                          repetitions=repetitions)


def delayed_a_case(repetitions: int = 1) -> TestCaseConfig:
    """Delay the *A* answer; §5.2's surprising IPv6 stall."""
    return TestCaseConfig(name="delayed-a-record",
                          kind=TestCaseKind.DELAYED_A,
                          sweep=SweepSpec.fixed(200, 500, 1000, 2000),
                          repetitions=repetitions)


def address_selection_case(addresses_per_family: int = 10
                           ) -> TestCaseConfig:
    """Ten unresponsive addresses per family (Figure 5 / App. D)."""
    return TestCaseConfig(name="address-selection",
                          kind=TestCaseKind.ADDRESS_SELECTION,
                          sweep=SweepSpec.fixed(0),
                          addresses_per_family=addresses_per_family,
                          run_timeout=60.0)
