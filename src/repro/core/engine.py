"""The Happy Eyeballs engine: a thin driver over a PolicyStack.

:class:`HappyEyeballsEngine` walks the stages exactly as Figure 1
depicts and RFC 8305 phrases them: the **resolution** stage issues the
AAAA/A (and, for HEv3, HTTPS) queries and decides when connecting
starts; the **sorting** stage orders and interlaces the destinations
(family preference or an explicit RFC 6724 sortlist); the **racing**
stage builds the raceable candidates (per-family caps, QUIC-vs-TCP
expansion) and staggers attempts one CAD apart.  The engine itself
only carries the host plumbing — caches, tracing, late-answer feeds —
while every behavioural decision lives in the
:class:`~repro.core.policy.PolicyStack` stages.

The stack is the engine's only configuration; every observable the
paper measures — query order, RD behaviour, attempt schedule, winner —
comes out in the :class:`~repro.core.events.HETrace` and the
:class:`HEResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..simnet.addr import Family, address_str
from ..simnet.host import Host
from ..simnet.process import Process
from ..dns.rdata import RdataType
from ..dns.stub import StubResolver
from .cache import OutcomeCache
from .events import HEEventKind, HETrace
from .policy import PolicyStack
from .racing import AttemptRecord, ConnectionRacer, RaceResult
from .resolution import ResolutionOutcome
from .sortlist import HistoryStore
from .svcb import candidates_from_addresses


class HappyEyeballsError(Exception):
    """Engine-level failure (no addresses, all attempts failed)."""

    def __init__(self, message: str, result: "HEResult") -> None:
        super().__init__(message)
        self.result = result


@dataclass
class HEResult:
    """Everything observable about one ``connect()`` call."""

    hostname: str
    port: int
    started_at: float
    finished_at: Optional[float] = None
    connection: Optional[object] = None
    resolution: Optional[ResolutionOutcome] = None
    race: Optional[RaceResult] = None
    trace: HETrace = field(default_factory=HETrace)
    error: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.connection is not None

    @property
    def winning_family(self) -> Optional[Family]:
        if self.race is None:
            return None
        return self.race.winning_family

    @property
    def time_to_connect(self) -> Optional[float]:
        if self.finished_at is None or not self.success:
            return None
        return self.finished_at - self.started_at

    @property
    def attempts(self) -> List[AttemptRecord]:
        return self.race.attempts if self.race is not None else []


class HappyEyeballsEngine:
    """A configurable Happy Eyeballs implementation on one host."""

    def __init__(self, host: Host, stub: StubResolver,
                 stack: PolicyStack,
                 cache: Optional[OutcomeCache] = None,
                 history: Optional[HistoryStore] = None,
                 query_first: RdataType = RdataType.AAAA,
                 attempt_timeout: Optional[float] = None,
                 overall_deadline: Optional[float] = None) -> None:
        self.host = host
        self.stub = stub
        self.stack = stack
        self.cache = cache if cache is not None else OutcomeCache(
            ttl=self.stack.racing.outcome_cache_ttl)
        self.history = history
        self.query_first = query_first
        self.attempt_timeout = attempt_timeout
        self.overall_deadline = overall_deadline

    # -- public API ---------------------------------------------------------

    def connect(self, hostname: str, port: int = 80,
                trace: Optional[HETrace] = None) -> Process:
        """Spawn the connection process; its value is an :class:`HEResult`.

        The process raises :class:`HappyEyeballsError` (carrying the
        partial result) when no connection could be established.
        """
        # Note: `trace or HETrace()` would be wrong — an empty HETrace
        # is falsy (len 0) and the caller's trace would be dropped.
        return self.host.sim.process(
            self._connect_body(hostname, port,
                               trace if trace is not None else HETrace()),
            name=f"he-connect:{hostname}")

    # -- the stage driver ----------------------------------------------------

    def _connect_body(self, hostname: str, port: int, trace: HETrace):
        sim = self.host.sim
        stack = self.stack
        result = HEResult(hostname=hostname, port=port, started_at=sim.now,
                          trace=trace)
        trace.record(sim.now, HEEventKind.CONNECT_REQUESTED,
                     hostname=hostname, port=port,
                     version=stack.version.short)

        biased_family: Optional[Family] = None
        cached = self.cache.lookup(hostname, sim.now)
        if cached is not None:
            # RFC 6555 §4.1: bias toward the family that last won.
            biased_family = cached.family
            trace.record(sim.now, HEEventKind.CACHE_HIT,
                         address=address_str(cached.address),
                         family=cached.family.label)

        # -- resolution stage -------------------------------------------------
        dual = self.stub.lookup_dual(hostname, first=self.query_first)
        trace.record(sim.now, HEEventKind.QUERY_SENT,
                     first=self.query_first.name,
                     order="AAAA,A" if self.query_first is RdataType.AAAA
                     else "A,AAAA")
        https_process = stack.resolution.query_https(self.stub, hostname)

        resolution = yield from stack.resolution.resolve(sim, dual, trace)
        result.resolution = resolution
        if not resolution.has_addresses:
            result.finished_at = sim.now
            result.error = "no usable addresses"
            trace.record(sim.now, HEEventKind.CONNECT_FAILED,
                         reason=result.error)
            raise HappyEyeballsError(
                f"resolution of {hostname!r} yielded no addresses", result)
        svcb_records = stack.resolution.harvest_svcb(https_process)

        # -- sorting stage ----------------------------------------------------
        ordered = stack.sorting.select(resolution.addresses,
                                       history=self.history, now=sim.now,
                                       biased_family=biased_family)

        # -- racing stage -----------------------------------------------------
        candidates = stack.racing.build_candidates(
            ordered, svcb_records, port, stack.sorting,
            use_svcb=stack.resolution.use_svcb)
        trace.record(sim.now, HEEventKind.ADDRESSES_SELECTED,
                     count=len(candidates),
                     order=",".join(c.family.label[3] + ":" + address_str(c.address)
                                    for c in candidates[:12]))
        racer = stack.racing.racer(self.host, trace=trace,
                                   history=self.history,
                                   attempt_timeout=self.attempt_timeout)
        self._arm_late_answers(racer, resolution, port, biased_family, trace)
        try:
            race = yield from racer.run(candidates,
                                        deadline=self.overall_deadline)
        except Exception as exc:  # noqa: BLE001 - attach partial result
            result.race = getattr(exc, "race_result", None)
            result.finished_at = sim.now
            result.error = str(exc)
            raise HappyEyeballsError(
                f"connection to {hostname!r} failed: {exc}", result) from exc

        result.race = race
        result.connection = race.winner
        result.finished_at = sim.now
        if race.winning_attempt is not None:
            self.cache.record(hostname,
                              race.winning_attempt.candidate.address,
                              sim.now)
        return result

    # -- late answers ------------------------------------------------------------------

    def _arm_late_answers(self, racer: ConnectionRacer,
                          resolution: ResolutionOutcome, port: int,
                          biased_family: Optional[Family],
                          trace: HETrace) -> None:
        """Feed addresses that arrive mid-race into the racer.

        RFC 8305 §3: when the RD expires and connecting starts with IPv4
        only, a later AAAA answer still joins the race.
        """
        dual = resolution.dual
        if dual is None:
            return
        known = set(resolution.addresses)
        sim = self.host.sim
        stack = self.stack
        preferred = (biased_family if biased_family is not None
                     else stack.sorting.preferred_family)

        def feed(event):
            def watcher():
                answer = yield event
                fresh = [addr for addr in answer.addresses
                         if addr not in known]
                if not answer.usable or not fresh:
                    return
                known.update(fresh)
                ordered = stack.sorting.interleave_late(fresh, preferred)
                ordered = stack.racing.cap_per_family(ordered)
                if not ordered:
                    return
                trace.record(sim.now, HEEventKind.LATE_ADDRESSES_ADDED,
                             rtype=answer.rtype.name, count=len(ordered))
                racer.add_candidates(
                    candidates_from_addresses(ordered, port))
            sim.process(watcher(), name="late-answers")

        for event in (dual.aaaa, dual.a):
            if not event.triggered:
                feed(event)
