"""Name-server address selection policies.

When a recursive resolver follows a delegation it must pick *which* of
the zone's name-server addresses to query — in a dual-stack deployment
this is the resolver's equivalent of Happy Eyeballs, and it is exactly
what §5.3 / Table 3 measure: whether AAAA glue is (re-)queried and in
which order, how often IPv6 is chosen, how long the resolver waits
before falling back, and how many packets it fires at an IPv6 address.

All measured daemons and open-resolver services are expressed as
parameterizations of one policy (:class:`ResolverBehavior` +
:class:`ConfigurableNSPolicy`); the behavioral fingerprints themselves
live in :mod:`repro.resolvers`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..simnet.addr import Family, IPAddress, family_of
from .name import DNSName


class GluePlan(enum.Enum):
    """When/how the resolver looks up name-server addresses.

    Mirrors the markers in Table 3:

    * ``AAAA_FIRST`` — sends the AAAA query before the A query, both
      before contacting the authoritative server (the RFC 8305 §3
      behaviour; "•" in the table).
    * ``A_FIRST`` — A before AAAA, both before contacting the server
      ("sends AAAA after A").
    * ``AAAA_AFTER_USE`` — contacts the (IPv4) authoritative server
      first and only then queries AAAA (Google Public DNS).
    * ``SINGLE`` — sends either A or AAAA but never both (Knot).
    """

    AAAA_FIRST = "aaaa-first"
    A_FIRST = "a-first"
    AAAA_AFTER_USE = "aaaa-after-use"
    SINGLE = "single"


class RetryAction(enum.Enum):
    """What to do after an attempt times out."""

    RETRY_SAME = "retry-same"
    SWITCH_FAMILY = "switch-family"
    GIVE_UP = "give-up"


@dataclass
class ServerInfo:
    """One candidate name-server address with its runtime state."""

    ns_name: DNSName
    address: IPAddress
    srtt: Optional[float] = None
    failures: int = 0
    queries_sent: int = 0

    @property
    def family(self) -> Family:
        return family_of(self.address)


@dataclass(frozen=True)
class ResolverBehavior:
    """The measurable fingerprint of a resolver implementation.

    Every column of Table 3 maps onto a field here; see
    :mod:`repro.resolvers` for the concrete values per implementation.
    """

    name: str
    glue_plan: GluePlan = GluePlan.AAAA_FIRST
    v6_preference: float = 0.5
    attempt_timeout: float = 0.4
    backoff_factor: float = 1.0
    retry_same_probability: float = 0.0
    max_queries_per_address: int = 1
    switch_family_on_failure: bool = True
    max_total_attempts: int = 6
    queries_ns_addresses_despite_glue: bool = True
    parallel_families: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.v6_preference <= 1.0:
            raise ValueError(
                f"v6_preference must be a probability: {self.v6_preference}")
        if self.attempt_timeout <= 0:
            raise ValueError(f"bad timeout {self.attempt_timeout}")
        if self.max_queries_per_address < 1:
            raise ValueError("max_queries_per_address must be >= 1")


class ConfigurableNSPolicy:
    """Drives address choice and retries from a :class:`ResolverBehavior`."""

    def __init__(self, behavior: ResolverBehavior,
                 rng: Optional[random.Random] = None) -> None:
        self.behavior = behavior
        self.rng = rng if rng is not None else random.Random(0)
        self.selections: List[Family] = []  # instrumentation

    # -- initial choice -----------------------------------------------------

    def initial_select(self, servers: Sequence[ServerInfo]
                       ) -> Optional[ServerInfo]:
        """Pick the first address to try for a fresh delegation."""
        v6 = [s for s in servers if s.family is Family.V6]
        v4 = [s for s in servers if s.family is Family.V4]
        if not v6 and not v4:
            return None
        if not v6:
            chosen = v4[0]
        elif not v4:
            chosen = v6[0]
        else:
            use_v6 = self.rng.random() < self.behavior.v6_preference
            chosen = v6[0] if use_v6 else v4[0]
        self.selections.append(chosen.family)
        return chosen

    # -- retry decisions -------------------------------------------------------

    def after_timeout(self, current: ServerInfo,
                      servers: Sequence[ServerInfo],
                      attempts_so_far: int) -> "tuple[RetryAction, Optional[ServerInfo], float]":
        """Decide the next step after ``current`` timed out.

        Returns ``(action, next_server, timeout_for_next_attempt)``.
        """
        behavior = self.behavior
        if attempts_so_far >= behavior.max_total_attempts:
            return RetryAction.GIVE_UP, None, 0.0

        may_retry_same = current.queries_sent < behavior.max_queries_per_address
        if may_retry_same and behavior.retry_same_probability > 0.0:
            if self.rng.random() < behavior.retry_same_probability:
                timeout = (behavior.attempt_timeout
                           * behavior.backoff_factor ** current.queries_sent)
                return RetryAction.RETRY_SAME, current, timeout
        elif may_retry_same and behavior.retry_same_probability == 0.0 \
                and not behavior.switch_family_on_failure:
            timeout = (behavior.attempt_timeout
                       * behavior.backoff_factor ** current.queries_sent)
            return RetryAction.RETRY_SAME, current, timeout

        if behavior.switch_family_on_failure:
            other = [s for s in servers
                     if s.family is not current.family
                     and s.queries_sent < behavior.max_queries_per_address]
            if other:
                return (RetryAction.SWITCH_FAMILY, other[0],
                        behavior.attempt_timeout)
        # Same family, different (or same) address as a last resort.
        same = [s for s in servers
                if s.family is current.family and s is not current
                and s.queries_sent < behavior.max_queries_per_address]
        if same:
            return RetryAction.RETRY_SAME, same[0], behavior.attempt_timeout
        if not behavior.switch_family_on_failure:
            return RetryAction.GIVE_UP, None, 0.0
        exhausted_other = [s for s in servers if s.family is not current.family]
        if exhausted_other:
            return (RetryAction.SWITCH_FAMILY, exhausted_other[0],
                    behavior.attempt_timeout)
        return RetryAction.GIVE_UP, None, 0.0

    def first_timeout(self) -> float:
        return self.behavior.attempt_timeout
