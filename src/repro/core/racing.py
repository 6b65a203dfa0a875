"""Staggered connection racing — the heart of Happy Eyeballs.

Connection attempts start one Connection Attempt Delay apart
(RFC 8305 §5); the first attempt to complete its handshake wins and all
others are aborted.  A failed attempt (RST) releases the next attempt
immediately.  Addresses resolved *after* racing began (late AAAA
answers) can be appended to a running race.

The racer is protocol-agnostic: candidates carry their transport
(TCP or QUIC for HEv3), and the per-attempt connector is looked up from
the host's stacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..simnet.addr import Family, address_str
from ..simnet.host import Host, NoRouteError
from ..simnet.packet import Protocol
from ..transport.errors import ConnectError, ConnectionAborted
from .events import HEEventKind, HETrace
from .sortlist import HistoryStore
from .svcb import ServiceCandidate

if False:  # typing only, avoids a policy<->racing import cycle
    from .policy import RacingStage  # noqa: F401


#: CAD at or above this threshold means "never stagger": the next
#: attempt starts only when the previous one fails (wget-style serial
#: connecting, i.e. no Happy Eyeballs at all).
NEVER_CAD = 1.0e5


class AttemptOutcome(enum.Enum):
    PENDING = "pending"
    WON = "won"
    FAILED = "failed"
    ABORTED = "aborted"


@dataclass(eq=False)  # identity semantics: records key runtime tables
class AttemptRecord:
    """Bookkeeping for one connection attempt in a race."""

    index: int
    candidate: ServiceCandidate
    started_at: float
    finished_at: Optional[float] = None
    outcome: AttemptOutcome = AttemptOutcome.PENDING
    error: Optional[Exception] = None

    @property
    def family(self) -> Family:
        return self.candidate.family

    @property
    def protocol(self) -> Protocol:
        return self.candidate.protocol

    @property
    def elapsed(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


@dataclass
class RaceResult:
    """Outcome of one race."""

    started_at: float
    finished_at: Optional[float] = None
    winner: Optional[object] = None  # TCPConnection or QUICConnection
    winning_attempt: Optional[AttemptRecord] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    error: Optional[Exception] = None

    @property
    def success(self) -> bool:
        return self.winner is not None

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def winning_family(self) -> Optional[Family]:
        if self.winning_attempt is None:
            return None
        return self.winning_attempt.family


class AllAttemptsFailed(ConnectError):
    """Every candidate address failed."""


class RaceDeadlineExceeded(ConnectError):
    """The overall deadline passed before any attempt succeeded."""


CadProvider = Callable[[int, ServiceCandidate], float]


class ConnectionRacer:
    """Runs one staggered race on a host.

    ``stage`` is the :class:`~repro.core.policy.RacingStage` of the
    client's policy stack: its CAD schedule drives the stagger.
    """

    def __init__(self, host: Host, stage: "RacingStage",
                 trace: Optional[HETrace] = None,
                 history: Optional[HistoryStore] = None,
                 cad_provider: Optional[CadProvider] = None,
                 attempt_timeout: Optional[float] = None) -> None:
        self.host = host
        self.stage = stage
        self.trace = trace
        self.history = history
        self.attempt_timeout = attempt_timeout
        self._cad_provider = cad_provider or self._default_cad
        self._queue: List[ServiceCandidate] = []
        self._new_candidates_event = None

    # -- CAD computation ----------------------------------------------------

    def _default_cad(self, index: int,
                     candidate: ServiceCandidate) -> float:
        """Fixed CAD, or the RFC 8305 §5 dynamic rule when enabled.

        Dynamic rule: with RTT history toward this address, wait twice
        the smoothed RTT (clamped to [min, max]); with no history the
        conservative choice is the maximum CAD — which is exactly why
        Safari shows a 2 s CAD in the paper's pristine local testbed.
        """
        stage = self.stage
        if not stage.dynamic_cad:
            return stage.connection_attempt_delay
        srtt = None
        if self.history is not None:
            srtt = self.history.srtt(candidate.address, self.host.sim.now)
        if srtt is None:
            return stage.maximum_cad
        return stage.clamp_dynamic_cad(2.0 * srtt)

    # -- dynamic candidate addition ------------------------------------------

    def add_candidates(self, candidates: Sequence[ServiceCandidate]) -> None:
        """Append late-resolved candidates to a running race."""
        self._queue.extend(candidates)
        if (self._new_candidates_event is not None
                and not self._new_candidates_event.triggered):
            self._new_candidates_event.succeed(len(candidates))

    # -- the race -------------------------------------------------------------

    def run(self, candidates: Sequence[ServiceCandidate],
            deadline: Optional[float] = None):
        """Generator running the race; returns a :class:`RaceResult`.

        Drive with ``yield from`` inside a simulator process.  Raises
        :class:`AllAttemptsFailed` / :class:`RaceDeadlineExceeded` with
        the partial result attached as ``.race_result``.
        """
        sim = self.host.sim
        self._queue = list(candidates)
        result = RaceResult(started_at=sim.now)
        active = {}  # watcher Process -> AttemptRecord
        connections = {}  # AttemptRecord -> connection object
        next_start_at = sim.now
        deadline_at = None if deadline is None else sim.now + deadline

        def fail_race(error: ConnectError):
            for record, connection in connections.items():
                if record.outcome is AttemptOutcome.PENDING:
                    record.outcome = AttemptOutcome.ABORTED
                    record.finished_at = sim.now
                    connection.abort()
            result.finished_at = sim.now
            result.error = error
            error.race_result = result  # type: ignore[attr-defined]
            self._trace(HEEventKind.CONNECT_FAILED, reason=str(error))
            return error

        # Stagger-gate and deadline timers are superseded every loop
        # iteration (a finished attempt reshapes the wait set).  They are
        # retained so the superseded ones can be cancelled: a dead
        # deadline left to fire as a no-op would still advance the clock
        # to its instant when the simulator drains.
        gate_timer = None
        deadline_timer = None
        try:
            while True:
                # Start every attempt that is due.
                while self._queue and sim.now >= next_start_at:
                    candidate = self._queue.pop(0)
                    record, watcher = self._start_attempt(
                        len(result.attempts), candidate, connections)
                    result.attempts.append(record)
                    if watcher is not None:
                        active[watcher] = record
                        cad = self._cad_provider(record.index, candidate)
                        next_start_at = sim.now + cad
                    # If the attempt failed synchronously (no route), the
                    # next candidate starts immediately: leave next_start_at.

                if gate_timer is not None:
                    gate_timer.cancel()
                    gate_timer = None
                if deadline_timer is not None:
                    deadline_timer.cancel()
                    deadline_timer = None
                waits = list(active)
                self._new_candidates_event = sim.event(
                    name="race-new-candidates")
                waits.append(self._new_candidates_event)
                if self._queue and next_start_at - sim.now < NEVER_CAD:
                    gate_timer = sim.timeout(
                        max(0.0, next_start_at - sim.now))
                    waits.append(gate_timer)
                elif not self._queue and not active:
                    raise fail_race(AllAttemptsFailed(
                        f"all {len(result.attempts)} attempts failed"))
                if deadline_at is not None:
                    remaining = deadline_at - sim.now
                    if remaining <= 0:
                        raise fail_race(RaceDeadlineExceeded(
                            f"no connection within {deadline}s"))
                    deadline_timer = sim.timeout(remaining)
                    waits.append(deadline_timer)

                yield sim.any_of(waits)

                if (deadline_at is not None and sim.now >= deadline_at
                        and not any(w.triggered and w.value[1] is not None
                                    for w in active)):
                    raise fail_race(RaceDeadlineExceeded(
                        f"no connection within {deadline}s"))

                # Collect finished watchers.
                finished = [w for w in list(active) if w.triggered]
                for watcher in finished:
                    record = active.pop(watcher)
                    _, connection, error = watcher.value
                    record.finished_at = sim.now
                    if connection is not None:
                        record.outcome = AttemptOutcome.WON
                        result.winner = connection
                        result.winning_attempt = record
                        result.finished_at = sim.now
                        self._on_win(record, connection)
                        self._abort_losers(record, connections, active)
                        return result
                    if isinstance(error, ConnectionAborted):
                        record.outcome = AttemptOutcome.ABORTED
                    else:
                        record.outcome = AttemptOutcome.FAILED
                        record.error = error
                        self._on_failure(record, error)
                        # RFC 8305 §5: a failed attempt unblocks the next.
                        next_start_at = sim.now
        finally:
            # Whatever ended the race (win, failure, deadline, or an
            # abandoned generator), drop any still-pending timers.
            if gate_timer is not None:
                gate_timer.cancel()
            if deadline_timer is not None:
                deadline_timer.cancel()

    # -- attempt plumbing ----------------------------------------------------------

    def _start_attempt(self, index: int, candidate: ServiceCandidate,
                       connections: dict):
        sim = self.host.sim
        record = AttemptRecord(index=index, candidate=candidate,
                               started_at=sim.now)
        self._trace(HEEventKind.ATTEMPT_STARTED, index=index,
                    address=address_str(candidate.address),
                    family=candidate.family.label,
                    protocol=candidate.protocol.value)
        try:
            if candidate.protocol is Protocol.QUIC:
                connection = self.host.quic.connect(
                    candidate.address, candidate.port,
                    timeout=self.attempt_timeout)
            else:
                connection = self.host.tcp.connect(
                    candidate.address, candidate.port,
                    timeout=self.attempt_timeout)
        except NoRouteError as exc:
            record.outcome = AttemptOutcome.FAILED
            record.error = exc
            record.finished_at = sim.now
            self._on_failure(record, exc)
            return record, None
        connections[record] = connection
        watcher = sim.process(self._watch(record, connection),
                              name=f"attempt-{index}")
        return record, watcher

    def _watch(self, record: AttemptRecord, connection):
        """Normalize attempt completion to (record, connection|None, error)."""
        try:
            established = yield connection.established
        except Exception as exc:  # noqa: BLE001 - reported via tuple
            return (record, None, exc)
        return (record, established, None)

    def _abort_losers(self, winning: AttemptRecord, connections: dict,
                      active: dict) -> None:
        for record, connection in connections.items():
            if record is winning:
                continue
            if record.outcome is AttemptOutcome.PENDING:
                record.outcome = AttemptOutcome.ABORTED
                record.finished_at = self.host.sim.now
                self._trace(HEEventKind.ATTEMPT_ABORTED,
                            index=record.index,
                            address=address_str(record.candidate.address))
                connection.abort()
        active.clear()

    # -- callbacks ----------------------------------------------------------------

    def _on_win(self, record: AttemptRecord, connection) -> None:
        sim = self.host.sim
        self._trace(HEEventKind.ATTEMPT_SUCCEEDED, index=record.index,
                    address=address_str(record.candidate.address),
                    family=record.family.label,
                    elapsed_ms=(record.elapsed or 0.0) * 1000.0)
        self._trace(HEEventKind.CONNECTION_WON,
                    address=address_str(record.candidate.address),
                    family=record.family.label,
                    protocol=record.protocol.value)
        if self.history is not None and record.elapsed is not None:
            self.history.record_success(record.candidate.address,
                                        record.elapsed, sim.now)

    def _on_failure(self, record: AttemptRecord,
                    error: Optional[Exception]) -> None:
        self._trace(HEEventKind.ATTEMPT_FAILED, index=record.index,
                    address=address_str(record.candidate.address),
                    family=record.family.label,
                    error=type(error).__name__ if error else "unknown")
        if self.history is not None:
            self.history.record_failure(record.candidate.address,
                                        self.host.sim.now)

    def _trace(self, kind: HEEventKind, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self.host.sim.now, kind, **detail)
