"""Client behaviour profiles as policy-stack compositions.

A :class:`ClientProfile` is the externally observable fingerprint of
one client implementation + version.  Its behaviour is declared as a
:class:`~repro.core.policy.PolicyStack` — resolution, sorting, and
racing stages composed per client — and the stack is its only Happy
Eyeballs input.  The flat :class:`~repro.core.params.HEParams` record
(``profile.params``) is derived from the stack and kept only because
every run's store key renders it.  The registry in
:mod:`repro.clients.registry` instantiates one profile per
client/version measured in the paper; the testbed and web tool treat
them as black boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.params import (HEParams, HEVersion, InterlaceStrategy,
                           ResolutionPolicy)
from ..core.policy import (PolicyStack, RacingStage, ResolutionStage,
                           SortingStage)
from ..dns.rdata import RdataType

#: Marker CAD for clients that never race (no Happy Eyeballs): the next
#: attempt starts only after the previous one fails.
SERIAL_CAD = 2.0e5

#: Engine families a profile may declare (the paper's client taxonomy
#: plus the HEv3 draft reference implementation).
ENGINE_FAMILIES = ("chromium", "gecko", "webkit", "curl", "wget",
                   "reference")


@dataclass(frozen=True)
class ClientProfile:
    """One client implementation/version as a measurable black box.

    ``stack`` declares the behaviour.  ``params`` is not an argument:
    it is set from the stack, and stays a field (in this position)
    because :func:`~repro.testbed.store.canonical` renders every field
    into the run keys.
    """

    name: str
    version: str
    released: str  # "YYYY-MM" as shown on the Figure 2 axis
    engine_family: str  # chromium | gecko | webkit | curl | wget | reference
    kind: str  # browser | mobile-browser | cli
    params: HEParams = field(init=False)
    query_first: RdataType = RdataType.AAAA
    implements_happy_eyeballs: bool = True
    outlier_probability: float = 0.0  # Firefox: rare late IPv4 fallback
    outlier_extra_cad: float = 0.0
    hev3_flag_available: bool = False
    supports_local_tests: bool = True
    supports_web_tests: bool = True
    os_hint: str = "Linux"
    notes: str = ""
    stack: PolicyStack = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.engine_family not in ENGINE_FAMILIES:
            raise ValueError(f"unknown engine family {self.engine_family!r}")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ValueError("outlier_probability must be a probability")
        object.__setattr__(self, "params", self.stack.params())

    @property
    def full_name(self) -> str:
        return f"{self.name} {self.version}"

    @property
    def label(self) -> str:
        """Figure 2 row label, e.g. ``"Chrome (130.0 10-2024)"``."""
        return f"{self.name} ({self.version} {self.released})"

    @property
    def nominal_cad(self) -> Optional[float]:
        """The fixed CAD in seconds, or None when dynamic / serial /
        absent (the SERIAL_CAD marker is not a real stagger delay)."""
        if not self.implements_happy_eyeballs:
            return None
        racing = self.stack.racing
        if racing.dynamic_cad or racing.serial:
            return None
        return racing.connection_attempt_delay

    @property
    def implements_resolution_delay(self) -> bool:
        resolution = self.stack.resolution
        return (resolution.mode is ResolutionPolicy.HE_V2
                and resolution.resolution_delay is not None)

    @property
    def nominal_rd(self) -> Optional[float]:
        """The declared Resolution Delay in seconds, or None.

        The conformance fingerprint compares its *measured* RD against
        this declared value, exactly as :attr:`nominal_cad` anchors
        the measured CAD.
        """
        if not self.implements_happy_eyeballs:
            return None
        if not self.implements_resolution_delay:
            return None
        return self.stack.resolution.resolution_delay

    def with_stack(self, stack: PolicyStack) -> "ClientProfile":
        """This profile with a replacement policy stack."""
        return replace(self, stack=stack)

    def with_hev3_flag(self) -> "ClientProfile":
        """The profile with Chromium's HEv3 feature flag enabled.

        Since April 2024 Chromium offers a flag that "adds RD and gets
        rid of" the delayed-A stall (§5.2).
        """
        if not self.hev3_flag_available:
            raise ValueError(
                f"{self.full_name} has no HEv3 feature flag")
        flagged = self.stack.with_resolution(
            mode=ResolutionPolicy.HE_V2, resolution_delay=0.050)
        return replace(self.with_stack(flagged),
                       notes=(self.notes + " [HEv3 flag]").strip())


# --------------------------------------------------------------------------
# per-engine-family stack compositions
# --------------------------------------------------------------------------


def chromium_stack(cad: float = 0.300,
                   sortlist: Optional[str] = "linux") -> PolicyStack:
    """Chromium-family behaviour: fixed 300 ms CAD, no RD, HEv1-style.

    The 300 ms constant is in the Chromium source; the delayed-A stall
    comes from waiting for both DNS answers with no own timeout.
    """
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.WAIT_BOTH,
                                   resolution_delay=None),
        sorting=SortingStage(interlace=InterlaceStrategy.SEQUENTIAL,
                             sortlist=sortlist),
        racing=RacingStage(connection_attempt_delay=cad,
                           max_attempts_per_family=1),
    )


def gecko_stack(cad: float = 0.250,
                sortlist: Optional[str] = "linux") -> PolicyStack:
    """Firefox: the RFC-recommended 250 ms CAD, otherwise HEv1-style."""
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.WAIT_BOTH,
                                   resolution_delay=None),
        sorting=SortingStage(interlace=InterlaceStrategy.SEQUENTIAL,
                             sortlist=sortlist),
        racing=RacingStage(connection_attempt_delay=cad,
                           max_attempts_per_family=1),
    )


def webkit_stack(maximum_cad: float = 2.0,
                 sortlist: Optional[str] = "macos") -> PolicyStack:
    """Safari: full HEv2 — dynamic CAD, 50 ms RD, FAFC 2, interlacing.

    With no connection history (the pristine local testbed) the dynamic
    CAD falls back to its maximum — which is why Safari's local CAD
    measures a constant 2 s (§5.1).  ``maximum_cad=1.0`` models the
    observed iOS preference for lower values.
    """
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.HE_V2,
                                   resolution_delay=0.050),
        sorting=SortingStage(
            interlace=InterlaceStrategy.FIRST_FAMILY_BURST,
            first_address_family_count=2, sortlist=sortlist),
        racing=RacingStage(dynamic_cad=True,
                           connection_attempt_delay=0.250,  # unused: dynamic
                           minimum_cad=0.010, recommended_cad=0.100,
                           maximum_cad=maximum_cad),
    )


def curl_stack(sortlist: Optional[str] = "linux") -> PolicyStack:
    """curl: the smallest fixed CAD observed, 200 ms (a curl default)."""
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.WAIT_BOTH,
                                   resolution_delay=None),
        sorting=SortingStage(interlace=InterlaceStrategy.SEQUENTIAL,
                             sortlist=sortlist),
        racing=RacingStage(connection_attempt_delay=0.200,
                           max_attempts_per_family=1),
    )


def wget_stack(sortlist: Optional[str] = "rfc3484") -> PolicyStack:
    """wget: no Happy Eyeballs at all — strictly serial attempts.

    It resolves both families, prefers IPv6, and only ever moves to the
    next address when the current attempt fails outright; with impaired
    IPv6 it "fails without using the provided IPv4 addresses".  Its
    destination ordering is the legacy RFC 3484 sortlist (pre-6724
    getaddrinfo), which still ranks ULA and site-local space above
    IPv4 — exactly what the sortlist battery discriminates.
    """
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.WAIT_BOTH,
                                   resolution_delay=None),
        sorting=SortingStage(interlace=InterlaceStrategy.SEQUENTIAL,
                             sortlist=sortlist),
        racing=RacingStage(connection_attempt_delay=SERIAL_CAD),
    )


def hev3_reference_stack() -> PolicyStack:
    """The HEv3 draft as a client: SVCB consumption + QUIC racing."""
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.HE_V2,
                                   resolution_delay=0.050, use_svcb=True),
        sorting=SortingStage(interlace=InterlaceStrategy.RFC8305,
                             first_address_family_count=1,
                             sortlist="rfc6724"),
        racing=RacingStage(connection_attempt_delay=0.250, race_quic=True),
        version=HEVersion.V3,
    )

