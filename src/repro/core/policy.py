"""The staged client policy API: PolicyStack = resolution · sorting · racing.

RFC 8305 is a pipeline — resolve names, sort destinations, race
connections — and the paper fingerprints clients by the *stage* they
deviate in.  A client's Happy Eyeballs behaviour is declared as three
explicit, composable policy stages mirroring those phases:

* :class:`ResolutionStage` — how DNS answers become "start connecting
  now": the §3 Resolution Delay state machine (or the wait-both /
  first-usable behaviours real clients ship), plus HEv3's SVCB/HTTPS
  record consumption;
* :class:`SortingStage` — §4 destination ordering: family preference
  or an explicit per-OS RFC 6724 sortlist
  (:mod:`repro.core.sortlist`), then First-Address-Family-Count
  interlacing;
* :class:`RacingStage` — §5 staggered racing: the CAD schedule (fixed,
  dynamic, or serial), per-family attempt caps, the outcome cache TTL,
  and HEv3's QUIC-vs-TCP protocol racing.

A :class:`PolicyStack` composes one of each, and it is the only Happy
Eyeballs configuration the engine, the racer, the resolution phase and
the client profiles accept.  Every stage is a frozen, declarative
dataclass, so the testbed's configuration digests
(:func:`repro.testbed.store.canonical`) cover a client's policies
field-by-field with no extra plumbing, and ``repro ls --clients`` can
print a registry row straight from the declarations.

:meth:`PolicyStack.params` renders a stack into the flat
:class:`~repro.core.params.HEParams` record that client profiles carry
for their store keys; per-OS sortlists have no field there.  The
Table 1 presets (:func:`rfc6555_stack`, :func:`rfc8305_stack`,
:func:`hev3_draft_stack`) are stacks too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..simnet.addr import Family, IPAddress
from .interlace import apply_interlace
from .params import (HEParams, HEVersion, InterlaceStrategy,
                     ResolutionPolicy)
from .sortlist import HistoryStore, PolicyTable, order_addresses, \
    policy_table


@dataclass(frozen=True)
class ResolutionStage:
    """How DNS answers trigger connecting (RFC 8305 §3, HEv3 §3).

    ``mode`` picks the state machine (see
    :class:`~repro.core.params.ResolutionPolicy`); ``resolution_delay``
    is its grace period in seconds (None = the client implements no RD
    at all); ``use_svcb`` adds the HEv3 HTTPS/SVCB query and feeds the
    answered records to the racing stage.
    """

    mode: ResolutionPolicy = ResolutionPolicy.HE_V2
    resolution_delay: Optional[float] = 0.050
    use_svcb: bool = False

    def __post_init__(self) -> None:
        if self.resolution_delay is not None and self.resolution_delay < 0:
            raise ValueError(
                f"negative resolution delay: {self.resolution_delay}")

    def query_https(self, stub, hostname: str):
        """Issue the HEv3 HTTPS query, or None when SVCB is off."""
        if not self.use_svcb:
            return None
        from ..dns.rdata import RdataType

        return stub.query(hostname, RdataType.HTTPS)

    def resolve(self, sim, dual, trace):
        """Drive the resolution state machine (a simulator generator)."""
        from .resolution import resolve_addresses

        return resolve_addresses(sim, dual, self, trace)

    def harvest_svcb(self, https_process) -> List:
        """SVCB/HTTPS records from a completed HTTPS lookup (best
        effort: an unanswered or failed lookup contributes nothing)."""
        from ..dns.rdata import RdataType

        if https_process is None or not https_process.triggered:
            return []
        try:
            response = https_process.value
        except Exception:  # noqa: BLE001 - HTTPS lookup is best-effort
            return []
        if response is None:
            return []
        return [rr.rdata for rr in response.answers
                if rr.rtype in (RdataType.HTTPS, RdataType.SVCB)]

    def summary(self) -> str:
        parts = [self.mode.value]
        if self.resolution_delay is not None \
                and self.mode is ResolutionPolicy.HE_V2:
            parts.append(f"rd={self.resolution_delay * 1000:.0f}ms")
        if self.use_svcb:
            parts.append("svcb")
        return " ".join(parts)


@dataclass(frozen=True)
class SortingStage:
    """Destination ordering and interlacing (RFC 8305 §4, RFC 6724).

    ``sortlist`` optionally names a per-OS RFC 6724 policy table
    (:data:`repro.core.sortlist.POLICY_TABLES`); without one the stage
    keeps the legacy family-preference ordering every pre-stack profile
    used, which is what holds the historical artifacts byte-identical.
    """

    preferred_family: Family = Family.V6
    interlace: InterlaceStrategy = InterlaceStrategy.RFC8305
    first_address_family_count: int = 1
    sortlist: Optional[str] = None

    def __post_init__(self) -> None:
        if self.first_address_family_count < 1:
            raise ValueError("first_address_family_count must be >= 1")
        if self.sortlist is not None:
            policy_table(self.sortlist)  # raises on unknown names

    @property
    def table(self) -> Optional[PolicyTable]:
        return None if self.sortlist is None else policy_table(self.sortlist)

    def select(self, addresses: Sequence[IPAddress],
               history: Optional[HistoryStore], now: float,
               biased_family: Optional[Family] = None) -> List[IPAddress]:
        """Order + interlace the resolved addresses.

        ``biased_family`` is the RFC 6555 §4.1 outcome-cache bias; it
        overrides the declared family preference (legacy mode) or
        outranks the policy table (sortlist mode).
        """
        table = self.table
        if table is None:
            preferred = (biased_family if biased_family is not None
                         else self.preferred_family)
            ordered = order_addresses(addresses, preferred_family=preferred,
                                      history=history, now=now)
        else:
            ordered = order_addresses(addresses,
                                      preferred_family=self.preferred_family,
                                      history=history, now=now,
                                      policy=table,
                                      biased_family=biased_family)
            # The table decided the leading family; interlacing below
            # must not shuffle it back.
            preferred = (self.family_of_first(ordered)
                         or self.preferred_family)
        return apply_interlace(ordered, self.interlace, preferred=preferred,
                               first_count=self.first_address_family_count)

    def interleave_late(self, addresses: Sequence[IPAddress],
                        preferred: Family) -> List[IPAddress]:
        """Interlace late-resolved addresses joining a running race."""
        return apply_interlace(addresses, self.interlace,
                               preferred=preferred,
                               first_count=self.first_address_family_count)

    @staticmethod
    def family_of_first(ordered: Sequence[IPAddress]) -> Optional[Family]:
        if not ordered:
            return None
        return Family.V6 if ordered[0].version == 6 else Family.V4

    def summary(self) -> str:
        parts = [f"prefer={self.preferred_family.label}",
                 self.interlace.value,
                 f"fafc={self.first_address_family_count}"]
        if self.sortlist is not None:
            parts.append(f"sortlist={self.sortlist}")
        return " ".join(parts)


@dataclass(frozen=True)
class RacingStage:
    """The staggered connection race (RFC 8305 §5, HEv3 §4); the
    parameter object of :class:`~repro.core.racing.ConnectionRacer`."""

    connection_attempt_delay: float = 0.250
    dynamic_cad: bool = False
    minimum_cad: float = 0.010
    recommended_cad: float = 0.100
    maximum_cad: float = 2.0
    max_attempts_per_family: Optional[int] = None
    race_quic: bool = False
    outcome_cache_ttl: float = 600.0

    def __post_init__(self) -> None:
        if self.connection_attempt_delay <= 0:
            raise ValueError(
                f"CAD must be positive: {self.connection_attempt_delay}")
        if not (0 < self.minimum_cad <= self.recommended_cad
                <= self.maximum_cad):
            raise ValueError(
                "dynamic CAD bounds must satisfy 0 < min <= rec <= max")
        if (self.max_attempts_per_family is not None
                and self.max_attempts_per_family < 1):
            raise ValueError("max_attempts_per_family must be >= 1")

    def clamp_dynamic_cad(self, proposed: float) -> float:
        """Clamp a history-derived CAD into the RFC's min/max bounds."""
        return max(self.minimum_cad, min(self.maximum_cad, proposed))

    def cap_per_family(self, ordered: Sequence[IPAddress]
                       ) -> List[IPAddress]:
        """Apply the per-family attempt budget (None = all addresses)."""
        cap = self.max_attempts_per_family
        if cap is None:
            return list(ordered)
        kept: List[IPAddress] = []
        counts = {Family.V4: 0, Family.V6: 0}
        for address in ordered:
            family = Family.V6 if address.version == 6 else Family.V4
            if counts[family] < cap:
                counts[family] += 1
                kept.append(address)
        return kept

    def build_candidates(self, ordered: Sequence[IPAddress],
                         svcb_records: Sequence, port: int,
                         sorting: SortingStage, use_svcb: bool) -> List:
        """Raceable candidates: per-family caps, then — when SVCB
        records are in play — protocol expansion and HEv3 preference
        ordering (ECH over QUIC over TCP)."""
        from .svcb import (candidates_from_addresses, candidates_from_svcb,
                           order_candidates)
        from ..simnet.packet import Protocol

        capped = self.cap_per_family(ordered)
        if use_svcb and svcb_records:
            candidates = candidates_from_svcb(svcb_records, capped, port)
            if not self.race_quic:
                candidates = [c for c in candidates
                              if c.protocol is Protocol.TCP]
            return order_candidates(candidates, sorting)
        return candidates_from_addresses(capped, port)

    def racer(self, host, trace=None, history=None, attempt_timeout=None):
        from .racing import ConnectionRacer

        return ConnectionRacer(host, self, trace=trace, history=history,
                               attempt_timeout=attempt_timeout)

    @property
    def serial(self) -> bool:
        """True for the no-HE marker CAD (next attempt only on failure)."""
        from .racing import NEVER_CAD

        return not self.dynamic_cad \
            and self.connection_attempt_delay >= NEVER_CAD

    def summary(self) -> str:
        if self.serial:
            parts = ["serial"]
        elif self.dynamic_cad:
            parts = [f"cad=dyn({self.minimum_cad * 1000:.0f}/"
                     f"{self.recommended_cad * 1000:.0f}/"
                     f"{self.maximum_cad * 1000:.0f}ms)"]
        else:
            parts = [f"cad={self.connection_attempt_delay * 1000:.0f}ms"]
        if self.max_attempts_per_family is not None:
            parts.append(f"cap={self.max_attempts_per_family}/family")
        if self.race_quic:
            parts.append("quic")
        return " ".join(parts)


@dataclass(frozen=True)
class PolicyStack:
    """One client's composed Happy Eyeballs behaviour, stage by stage."""

    resolution: ResolutionStage = ResolutionStage()
    sorting: SortingStage = SortingStage()
    racing: RacingStage = RacingStage()
    version: HEVersion = HEVersion.V2

    # -- composition ---------------------------------------------------------

    def with_resolution(self, **changes) -> "PolicyStack":
        return replace(self, resolution=replace(self.resolution, **changes))

    def with_sorting(self, **changes) -> "PolicyStack":
        return replace(self, sorting=replace(self.sorting, **changes))

    def with_racing(self, **changes) -> "PolicyStack":
        return replace(self, racing=replace(self.racing, **changes))

    # -- the store-key record ------------------------------------------------

    def params(self) -> HEParams:
        """The flat :class:`HEParams` record of this stack — the only
        place one is built.  Per-OS sortlists have no field there."""
        return HEParams(
            version=self.version,
            connection_attempt_delay=self.racing.connection_attempt_delay,
            dynamic_cad=self.racing.dynamic_cad,
            minimum_cad=self.racing.minimum_cad,
            recommended_cad=self.racing.recommended_cad,
            maximum_cad=self.racing.maximum_cad,
            resolution_delay=self.resolution.resolution_delay,
            first_address_family_count=(
                self.sorting.first_address_family_count),
            preferred_family=self.sorting.preferred_family,
            interlace=self.sorting.interlace,
            resolution_policy=self.resolution.mode,
            outcome_cache_ttl=self.racing.outcome_cache_ttl,
            race_quic=self.racing.race_quic,
            use_svcb=self.resolution.use_svcb,
            max_attempts_per_family=self.racing.max_attempts_per_family,
        )

    # -- introspection -------------------------------------------------------

    def stage_summaries(self) -> "Tuple[Tuple[str, str], ...]":
        """``(stage name, one-line declaration)`` per stage — the single
        source ``repro ls --clients`` renders from."""
        return (("resolution", self.resolution.summary()),
                ("sorting", self.sorting.summary()),
                ("racing", self.racing.summary()))

    def describe(self) -> str:
        return " | ".join(f"{name}: {summary}"
                          for name, summary in self.stage_summaries())


# --------------------------------------------------------------------------
# the RFC-recommended parameter sets of Table 1
# --------------------------------------------------------------------------


def rfc6555_stack() -> PolicyStack:
    """HEv1 as recommended: 150–250 ms fixed CAD, no DNS handling.

    The RFC gives a range; 250 ms (its upper recommendation, kept by
    HEv2) is used as the fixed value.
    """
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.WAIT_BOTH,
                                   resolution_delay=None),
        sorting=SortingStage(interlace=InterlaceStrategy.SEQUENTIAL),
        racing=RacingStage(connection_attempt_delay=0.250,
                           max_attempts_per_family=1),
        version=HEVersion.V1,
    )


def rfc8305_stack() -> PolicyStack:
    """HEv2 as recommended: 250 ms CAD, 50 ms RD, interlacing, FAFC 1."""
    return PolicyStack(
        resolution=ResolutionStage(mode=ResolutionPolicy.HE_V2,
                                   resolution_delay=0.050),
        sorting=SortingStage(interlace=InterlaceStrategy.RFC8305,
                             first_address_family_count=1),
        racing=RacingStage(connection_attempt_delay=0.250),
        version=HEVersion.V2,
    )


def hev3_draft_stack() -> PolicyStack:
    """HEv3 draft: HEv2 values plus SVCB processing and QUIC racing."""
    return replace(rfc8305_stack().with_resolution(use_svcb=True)
                   .with_racing(race_quic=True), version=HEVersion.V3)


#: The three parameter sets of Table 1, in version order.
RFC_PARAMETER_SETS: Tuple[PolicyStack, ...] = (
    rfc6555_stack(), rfc8305_stack(), hev3_draft_stack())
