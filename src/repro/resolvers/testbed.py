"""Resolver measurement testbed (§4.2).

"Instead of different domain names inside a single zone, we created
entirely different zones for each measured delay.  Our traffic shaping
is applied to the name server records ... and the corresponding IP
addresses.  Additionally, we use unique zone apexes and unique
authoritative name server names to reduce the impact of caching."

This module builds exactly that: a resolver host walking a real
delegation (root → measurement zone) toward an authoritative server
whose per-zone IPv6 name-server address is netem-delayed, with all
observables collected from the *authoritative* query log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Any, List, NamedTuple, Optional, Sequence

from ..dns.auth import AuthoritativeServer
from ..dns.name import DNSName
from ..dns.nsselect import ResolverBehavior
from ..dns.rdata import RdataType, TXT
from ..dns.recursive import RecursiveResolver
from ..dns.zone import Zone
from ..experiments.base import Session
from ..seeding import render_part, stable_run_seed
from ..simnet.addr import Family
from ..simnet.netem import NetemFilter, NetemRule, NetemSpec
from ..simnet.network import Network
from ..testbed.parallel import Plan, resolve_specs
from ..testbed.store import CampaignStore

RESOLVER_V4 = "192.0.2.100"
RESOLVER_V6 = "2001:db8:2::100"
ROOT_V4 = "192.0.2.53"


@dataclass
class ResolverRunObservation:
    """Everything the authoritative side observed in one resolution."""

    zone: str
    delay_ms: int
    success: bool
    #: Family of the first query for the probe name at the zone NS.
    first_probe_family: Optional[Family] = None
    #: Family of the query that was answered in time (used for the result).
    answering_family: Optional[Family] = None
    #: Packets to the zone's IPv6 NS address (retries visible here).
    v6_packets: int = 0
    v4_packets: int = 0
    #: True if an AAAA query for the NS name preceded the first probe query.
    aaaa_before_probe: Optional[bool] = None
    #: True if the AAAA (NS name) query preceded the A (NS name) query.
    aaaa_before_a: Optional[bool] = None
    #: Gap between first IPv6 probe query and first IPv4 probe query (s).
    fallback_gap_s: Optional[float] = None
    duration_s: float = 0.0


class ResolverTestbed:
    """One isolated resolution measurement against a shaped zone."""

    def __init__(self, behavior: ResolverBehavior, seed: int = 0,
                 delay_ms: int = 0, zone_index: int = 0,
                 dual_stack_resolver: bool = True,
                 v6_only_zone: bool = False) -> None:
        self.behavior = behavior
        self.delay_ms = delay_ms
        self.network = Network(seed=seed)
        self.sim = self.network.sim
        segment = self.network.add_segment("resolver-lab")

        # Unique zone apex + unique NS name + unique NS addresses per
        # measurement (the paper's anti-caching measures).
        self.zone_apex = f"m{zone_index}-d{delay_ms}.example"
        self.ns_name = f"ns1.{self.zone_apex}"
        self.ns_v4 = f"198.51.100.{(zone_index % 200) + 1}"
        self.ns_v6 = f"2001:db8:3::{(zone_index % 60000) + 1:x}"

        resolver_addresses = [RESOLVER_V4]
        if dual_stack_resolver:
            resolver_addresses.append(RESOLVER_V6)
        self.resolver_host = self.network.add_host("resolver")
        self.network.connect(self.resolver_host, segment,
                             resolver_addresses)

        self.auth_host = self.network.add_host("auth")
        auth_addresses = [ROOT_V4, self.ns_v6]
        if not v6_only_zone:
            auth_addresses.append(self.ns_v4)
        self.auth_iface = self.network.connect(self.auth_host, segment,
                                               auth_addresses)

        self.v6_only_zone = v6_only_zone
        self._build_zones()
        # Two address-scoped servers on the auth node: the root zone
        # answers only on the root address, the measurement zone only on
        # its own (per-zone, shapeable) name-server addresses — so the
        # resolver must actually walk the delegation.
        self.root_server = AuthoritativeServer(
            self.auth_host, [self.root_zone],
            addresses=[ROOT_V4]).start()
        zone_addresses = ([self.ns_v6] if v6_only_zone
                          else [self.ns_v4, self.ns_v6])
        self.auth = AuthoritativeServer(
            self.auth_host, [self.zone],
            addresses=zone_addresses).start()
        self._apply_shaping()

        self.resolver = RecursiveResolver(
            self.resolver_host,
            root_hints={"a.root-servers.example": [ROOT_V4]},
            behavior=behavior,
            rng_label=f"{behavior.name}:{zone_index}:{delay_ms}")

    # -- zones -----------------------------------------------------------------

    def _build_zones(self) -> None:
        self.root_zone = Zone(".")
        glue = {self.ns_name: ([self.ns_v6] if self.v6_only_zone
                               else [self.ns_v4, self.ns_v6])}
        self.root_zone.delegate(
            DNSName.from_text(self.zone_apex),
            [DNSName.from_text(self.ns_name)], glue=glue)

        self.zone = Zone(self.zone_apex)
        self.zone.add(f"probe.{self.zone_apex}",
                      TXT.from_text("happy-eyeballs-probe"))
        if not self.v6_only_zone:
            self.zone.add_address(self.ns_name, self.ns_v4)
        self.zone.add_address(self.ns_name, self.ns_v6)

    def _apply_shaping(self) -> None:
        """Delay responses leaving the zone's IPv6 NS address.

        Shaping the server's egress (like the paper's tc-netem on the
        authoritative hosts) keeps the query-arrival order at the
        server intact — the query log *is* the observable.
        """
        if self.delay_ms <= 0:
            return
        self.auth_iface.egress.add_rule(NetemRule(
            spec=NetemSpec(delay=self.delay_ms / 1000.0),
            filter=NetemFilter(src_addresses=[self.ns_v6]),
            name="ns-v6-delay"))

    # -- execution ----------------------------------------------------------------

    @property
    def probe_name(self) -> str:
        return f"probe.{self.zone_apex}"

    def run(self, timeout: float = 30.0) -> ResolverRunObservation:
        """Resolve the probe name once and analyze the auth query log."""
        process = self.resolver.resolve(self.probe_name, RdataType.TXT)
        process.defused = True
        started = self.sim.now
        finished_at: List[float] = []
        process.add_callback(lambda _ev: finished_at.append(self.sim.now))
        self.sim.run(until=started + timeout)
        success = process.triggered and process.ok
        observation = self._analyze(success)
        observation.duration_s = ((finished_at[0] - started)
                                  if finished_at else timeout)
        return observation

    # -- analysis ------------------------------------------------------------------

    def _analyze(self, success: bool) -> ResolverRunObservation:
        probe = DNSName.from_text(self.probe_name)
        ns_name = DNSName.from_text(self.ns_name)
        observation = ResolverRunObservation(
            zone=self.zone_apex, delay_ms=self.delay_ms, success=success)

        probe_queries = [entry for entry in self.auth.query_log
                         if entry.qname == probe]
        ns_aaaa = [entry for entry in self.auth.query_log
                   if entry.qname == ns_name
                   and entry.qtype is RdataType.AAAA]
        ns_a = [entry for entry in self.auth.query_log
                if entry.qname == ns_name and entry.qtype is RdataType.A]

        if probe_queries:
            first = probe_queries[0]
            observation.first_probe_family = first.transport_family
            observation.v6_packets = sum(
                1 for entry in probe_queries
                if entry.transport_family is Family.V6)
            observation.v4_packets = sum(
                1 for entry in probe_queries
                if entry.transport_family is Family.V4)
            if success:
                # The answering query is the last one the resolver sent
                # whose response it could still use: with serial
                # attempts this is simply the final probe query.
                observation.answering_family = (
                    probe_queries[-1].transport_family)
            v6_times = [entry.timestamp for entry in probe_queries
                        if entry.transport_family is Family.V6]
            v4_times = [entry.timestamp for entry in probe_queries
                        if entry.transport_family is Family.V4]
            if v6_times and v4_times and min(v6_times) < min(v4_times):
                observation.fallback_gap_s = min(v4_times) - min(v6_times)
            if ns_aaaa:
                observation.aaaa_before_probe = (
                    ns_aaaa[0].timestamp < first.timestamp)
        if ns_aaaa and ns_a:
            observation.aaaa_before_a = (
                ns_aaaa[0].timestamp < ns_a[0].timestamp)
        return observation


@dataclass
class ResolverCampaignResult:
    """Aggregate over many runs of one resolver behaviour."""

    behavior_name: str
    observations: List[ResolverRunObservation] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.observations)

    @property
    def ipv6_share(self) -> Optional[float]:
        """Share of runs whose first probe query used IPv6 (%, Table 3)."""
        families = [o.first_probe_family for o in self.observations
                    if o.first_probe_family is not None]
        if not families:
            return None
        v6 = sum(1 for family in families if family is Family.V6)
        return 100.0 * v6 / len(families)

    @property
    def max_ipv6_delay_ms(self) -> Optional[int]:
        """Largest delay still *answered* over IPv6 in any run."""
        delays = [o.delay_ms for o in self.observations
                  if o.answering_family is Family.V6]
        return max(delays) if delays else None

    def reliable_max_ipv6_delay_ms(self) -> Optional[int]:
        """Largest delay where *every* IPv6-first run stayed on IPv6.

        This is Table 3's semantics: probabilistic retries (Unbound's
        44 % backoff) can rescue IPv6 at larger delays occasionally,
        but the reported maximum is the delay up to which IPv6 is used
        *reliably*.
        """
        by_delay: dict = {}
        for observation in self.observations:
            if observation.first_probe_family is not Family.V6:
                continue
            entry = by_delay.setdefault(observation.delay_ms, [])
            entry.append(observation.answering_family is Family.V6)
        reliable = [delay for delay, outcomes in by_delay.items()
                    if outcomes and all(outcomes)]
        return max(reliable) if reliable else None

    @property
    def max_v6_packets(self) -> int:
        return max((o.v6_packets for o in self.observations), default=0)

    def median_fallback_gap_ms(self) -> Optional[float]:
        from statistics import median

        gaps = [o.fallback_gap_s for o in self.observations
                if o.fallback_gap_s is not None]
        return median(gaps) * 1000.0 if gaps else None


# --------------------------------------------------------------------------
# campaign execution through the content-addressed store
# --------------------------------------------------------------------------


def encode_observation(observation: ResolverRunObservation) -> list:
    """The observation's row, its fields in dataclass order;
    :func:`decode_observation` rebuilds an ``==``-identical observation
    (the store's byte-identity contract)."""
    def fam(value: "Optional[Family]") -> Optional[str]:
        return value.name if value is not None else None

    return [observation.zone, observation.delay_ms, observation.success,
            fam(observation.first_probe_family),
            fam(observation.answering_family), observation.v6_packets,
            observation.v4_packets, observation.aaaa_before_probe,
            observation.aaaa_before_a, observation.fallback_gap_s,
            observation.duration_s]


def decode_observation(row: "Sequence[Any]") -> ResolverRunObservation:
    """Rebuild a cached observation from its row (a list or a tuple);
    raises on a wrong length, an unknown family name or a string where
    a number belongs."""
    def fam(value) -> "Optional[Family]":
        return Family[value] if value is not None else None

    (zone, delay_ms, success, first_probe_family, answering_family,
     v6_packets, v4_packets, aaaa_before_probe, aaaa_before_a,
     fallback_gap_s, duration_s) = row
    return ResolverRunObservation(
        zone, index(delay_ms), bool(success), fam(first_probe_family),
        fam(answering_family), index(v6_packets), index(v4_packets),
        aaaa_before_probe, aaaa_before_a,
        None if fallback_gap_s is None else fallback_gap_s * 1.0,
        duration_s * 1.0)


class ResolverRun(NamedTuple):
    """One resolution measurement: the resolver campaign's plan entry.

    A pure function of ``(behavior, run_seed, delay_ms, repetition)``
    — the zone apex and name-server addresses derive from the
    repetition index, not from a campaign-wide counter — so it caches
    exactly like a testbed run, independent of which other delays
    share the campaign.
    """

    behavior: ResolverBehavior
    delay_ms: int
    repetition: int
    run_seed: int
    key: str

    decode = staticmethod(decode_observation)
    encode = staticmethod(encode_observation)

    def execute(self, fault_plan: Any,
                attempt: int) -> ResolverRunObservation:
        return ResolverTestbed(self.behavior, seed=self.run_seed,
                               delay_ms=self.delay_ms,
                               zone_index=self.repetition).run()

    def label(self) -> str:
        return (f"resolver/{self.behavior.name}/v{self.delay_ms}"
                f"/r{self.repetition}")

    def failed(self, failure: Any) -> ResolverRunObservation:
        raise RuntimeError(f"{self.label()}: {failure.error} "
                           f"(attempts={failure.attempts})")


def resolver_campaign_plan(behavior: ResolverBehavior,
                           delays_ms: "list[int]", repetitions: int,
                           seed: int) -> Plan:
    """Every run of a delays × repetitions sweep, in run order, keyed
    by the full behaviour dataclass (any knob change misses) plus the
    run coordinates — the behaviour is rendered once, not per key."""
    key = CampaignStore.keyer("resolver-run", behavior)
    entries = []
    for delay_ms in delays_ms:
        for repetition in range(repetitions):
            run_seed = stable_run_seed(seed, behavior.name, delay_ms,
                                       repetition)
            entries.append(ResolverRun(
                behavior, delay_ms, repetition, run_seed,
                key(render_part(run_seed), render_part(delay_ms),
                    render_part(repetition))))
    return Plan(entries)


def run_resolver_campaign(behavior: ResolverBehavior,
                          delays_ms: "list[int]",
                          repetitions: int = 4,
                          session: Optional[Session] = None
                          ) -> ResolverCampaignResult:
    """Sweep delays × repetitions for one resolver behaviour under
    ``session`` (seeded by ``session.seed``); with a session store,
    unchanged runs replay from the content-addressed cache exactly
    like testbed runs."""
    session = session or Session()
    plan = resolver_campaign_plan(behavior, delays_ms, repetitions,
                                  session.seed)
    return ResolverCampaignResult(behavior.name,
                                  list(resolve_specs(plan, session)))


def probe_ipv6_only_capability(behavior: Optional[ResolverBehavior],
                               dual_stack_resolver: bool,
                               seed: int = 0) -> bool:
    """Can this resolver resolve a zone with IPv6-only name servers?

    This is the Table 4 admission check that excluded Hurricane
    Electric, Lumen, Dyn, and G-Core.
    """
    from ..dns.nsselect import ResolverBehavior as RB

    probe_behavior = behavior or RB(name="capability-probe")
    testbed = ResolverTestbed(probe_behavior, seed=seed,
                              dual_stack_resolver=dual_stack_resolver,
                              v6_only_zone=True)
    observation = testbed.run(timeout=20.0)
    return observation.success
