"""Happy Eyeballs vocabulary: versions, resolution policies, interlacing.

The enums name what a :class:`~repro.core.policy.PolicyStack` declares
stage by stage; :class:`HEParams` is the flat record a stack renders
into store keys (:meth:`~repro.core.policy.PolicyStack.params`), not
an input.  The Table 1 presets
(:data:`~repro.core.policy.RFC_PARAMETER_SETS`) are stacks:

=====================  ============  ============  ===================
Parameter              HEv1 (2012)   HEv2 (2017)   HEv3 (draft, 2025)
=====================  ============  ============  ===================
Considered protocols   IPv4, IPv6    + DNS         + QUIC
DNS records            —             AAAA, A       + SVCB, HTTPS
Resolution delay       —             50 ms         50 ms
Address selection      v6 then v4    interlaced    + L4 protocol
Fixed CAD              150–250 ms    250 ms        250 ms
Dynamic CAD min/rec/max  —           10/100/2000 ms same
=====================  ============  ============  ===================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..simnet.addr import Family


class HEVersion(enum.Enum):
    """The standardized / drafted Happy Eyeballs generations."""

    V1 = "RFC 6555 (2012)"
    V2 = "RFC 8305 (2017)"
    V3 = "draft-ietf-happy-happyeyeballs-v3 (2025)"

    @property
    def short(self) -> str:
        return {"V1": "HEv1", "V2": "HEv2", "V3": "HEv3"}[self.name]


class ResolutionPolicy(enum.Enum):
    """How a client turns DNS answers into "start connecting now".

    * ``HE_V2`` — the RFC 8305 §3 Resolution Delay state machine.
    * ``WAIT_BOTH`` — wait for *both* the AAAA and the A answer (or the
      resolver's timeout) before any connection attempt.  This is what
      Chromium, Firefox, curl, and wget actually do (§5.2) and the root
      of the delayed-A pathology.
    * ``FIRST_USABLE`` — connect as soon as any answer with addresses
      arrives (no delay logic at all).
    """

    HE_V2 = "hev2-resolution-delay"
    WAIT_BOTH = "wait-both-answers"
    FIRST_USABLE = "first-usable-answer"


class InterlaceStrategy(enum.Enum):
    """How the ordered dual-stack address list is interleaved.

    * ``RFC8305`` — strict alternation after the First Address Family
      Count prefix (RFC 8305 §4).
    * ``FIRST_FAMILY_BURST`` — Safari's observed pattern (App. D): two
      IPv6, one IPv4, then all remaining IPv6, then remaining IPv4.
    * ``SEQUENTIAL`` — no interlacing: all preferred-family addresses,
      then the other family (HEv1's "IPv6 once, then IPv4").
    """

    RFC8305 = "rfc8305"
    FIRST_FAMILY_BURST = "first-family-burst"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class HEParams:
    """The flat record of one client's Happy Eyeballs configuration.

    Not an input: :meth:`repro.core.policy.PolicyStack.params` builds
    it, and :attr:`repro.clients.profile.ClientProfile.params` carries
    it so that every run's store key renders this exact text (the
    class name, the field names and order, and the enum names are part
    of the key).  Times are in seconds; ``resolution_delay=None`` means
    no RD at all.
    """

    version: HEVersion
    connection_attempt_delay: float
    dynamic_cad: bool
    minimum_cad: float
    recommended_cad: float
    maximum_cad: float
    resolution_delay: Optional[float]
    first_address_family_count: int
    preferred_family: Family
    interlace: InterlaceStrategy
    resolution_policy: ResolutionPolicy
    outcome_cache_ttl: float
    race_quic: bool
    use_svcb: bool
    max_attempts_per_family: Optional[int]
