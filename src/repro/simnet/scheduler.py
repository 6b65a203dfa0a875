"""The discrete-event simulator core.

:class:`Simulator` owns the clock and a binary heap of scheduled
callbacks.  All higher layers — links, netem qdiscs, TCP state machines,
DNS servers, Happy Eyeballs engines — interact with time exclusively
through this object, which is what makes measurement runs perfectly
reproducible: the paper's testbed relies on sub-millisecond packet
timestamping (§4.3); simulation gives exact timestamps.

Execution order is the classic ``(when, seq)`` discipline — strictly
increasing time, FIFO among callbacks scheduled for the same instant —
kept by one ``heapq`` of ``(when, seq, call)`` tuples.  The queue stays
shallow on every registered experiment (at most ~250 entries pending,
usually under 15), and cancels are a few percent of schedules, so
:meth:`ScheduledCall.cancel` simply empties the entry in place and the
run loop discards it when it reaches the head.
"""

from __future__ import annotations

import gc
import random
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .clock import SimClock
from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process, ProcessGenerator


class ScheduledCall:
    """Handle to a scheduled callback; supports cancellation.

    Executing or cancelling the call empties it (``fn = None``), so an
    emptied entry left in the heap is skipped without running.
    """

    __slots__ = ("when", "seq", "fn", "args")

    def __init__(self, when: float, seq: int,
                 fn: Optional[Callable[..., None]], args: "tuple") -> None:
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args

    @property
    def cancelled(self) -> bool:
        """True once cancelled (or executed); kept for introspection."""
        return self.fn is None

    def cancel(self) -> None:
        """Empty this entry in place; a cancelled call never executes."""
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.fn is not None else "done/cancelled"
        return f"<ScheduledCall t={self.when:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler with a process model.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned RNG.  Every stochastic component
        (netem jitter/loss, resolver address selection, web campaign
        noise) draws from RNGs derived from this seed, so a run is fully
        determined by ``(seed, configuration)``.
    start:
        Starting value of the simulated clock, in seconds.
    """

    __slots__ = ("_clock", "_rng", "_seed", "_unhandled", "_seq", "_queue")

    def __init__(self, seed: int = 0, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._rng = random.Random(seed)
        self._seed = seed
        self._unhandled: List[BaseException] = []
        self._seq = 0
        self._queue: List[Tuple[float, int, ScheduledCall]] = []

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock._now

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def rng(self) -> random.Random:
        """The simulator-level RNG (use :meth:`derive_rng` per component)."""
        return self._rng

    def derive_rng(self, label: str) -> random.Random:
        """A component-private RNG derived from the simulator seed.

        Deriving by label keeps components independent: adding a new
        random consumer does not perturb the draw sequence of others.
        Each call seeds a fresh ``random.Random`` from the seed string:
        campaign runs derive fresh (seed, label) pairs, so a memo of
        seeded states would never hit.
        """
        return random.Random(f"{self._seed}:{label}")

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        ``delay`` must be finite and non-negative; one chained compare
        rejects negative, infinite and NaN delays alike.
        """
        if not 0.0 <= delay < inf:
            raise ValueError(
                f"delay must be finite and non-negative: delay={delay!r}")
        return self._insert(self._clock._now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable[..., None],
                    *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        now = self._clock._now
        if not now <= when < inf:
            raise ValueError(
                f"when must be finite and not in the past: "
                f"when={when!r}, now={now!r}")
        return self._insert(when, fn, args)

    def _insert(self, when: float, fn: Callable[..., None],
                args: "tuple") -> ScheduledCall:
        # ``args`` is already the vararg tuple — no re-packing copy.
        seq = self._seq = self._seq + 1
        call = ScheduledCall(when, seq, fn, args)
        heappush(self._queue, (when, seq, call))
        return call

    def report_unhandled(self, exc: BaseException) -> None:
        """Record a failure nobody waited on; re-raised from :meth:`run`."""
        self._unhandled.append(exc)

    # -- queue inspection --------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled, unexecuted) scheduled calls."""
        return sum(1 for entry in self._queue if entry[2].fn is not None)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or None if idle."""
        queue = self._queue
        while queue and queue[0][2].fn is None:
            heappop(queue)
        return queue[0][0] if queue else None

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None,
            _stop_event: Optional[Event] = None,
            _limit_raises: bool = False) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the simulated time when execution stopped.  If ``until``
        is given and the queue drains early, the clock is advanced to
        ``until`` so successive bounded runs compose predictably.

        This is *the* hot loop — every simulated event in every campaign
        executes here.  The clock is advanced by direct assignment
        because the ``(when, seq)`` discipline already guarantees
        monotonicity.  A callback may drive the simulator itself
        (a nested ``run``): both loops pop the same heap, so the global
        order is unchanged.

        Cyclic garbage collection is paused while the loop runs: the
        loop allocates heavily (events, frames, packets) but creates few
        cycles, and generation-0 scans in the middle of a campaign cost
        ~10% of wall time.  The collector is restored on exit, so cycles
        are still reclaimed between runs.
        """
        clock = self._clock
        if until is not None and until < clock.now:
            raise ValueError(
                f"until={until!r} is in the past (now={clock.now!r})")
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        try:
            return self._run(until, _stop_event, _limit_raises)
        finally:
            if gc_enabled:
                gc.enable()

    def _run(self, until: Optional[float],
             _stop_event: Optional[Event],
             _limit_raises: bool) -> float:
        clock = self._clock
        queue = self._queue
        unhandled = self._unhandled
        horizon = inf if until is None else until
        while queue:
            entry = heappop(queue)
            call = entry[2]
            fn = call.fn
            if fn is None:  # cancelled: discard without touching the clock
                continue
            when = entry[0]
            if when > horizon:
                heappush(queue, entry)
                if _limit_raises:
                    raise SimulationError(
                        f"{_stop_event!r} still pending at "
                        f"time limit {until!r}")
                clock.advance_to(horizon)
                return clock.now
            clock._now = when
            args = call.args
            call.fn = None
            call.args = ()
            if args:
                fn(*args)
            else:
                fn()
            if unhandled:
                self._raise_unhandled()
                unhandled = self._unhandled
            if _stop_event is not None and _stop_event.processed:
                return clock.now
        if _stop_event is not None:
            raise SimulationError(
                f"simulation ran dry before {_stop_event!r} triggered")
        if until is not None:
            clock.advance_to(until)
        return clock.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises :class:`SimulationError` if the queue drains (or ``limit``
        passes) without the event triggering — usually a deadlocked test.
        Drives the same hot loop as :meth:`run`.
        """
        if not event.processed:
            self.run(until=limit, _stop_event=event, _limit_raises=True)
        return event.value

    def _raise_unhandled(self) -> None:
        """Raise the first unhandled failure, chaining the rest.

        A single callback can strand several failures at once (an event
        failure fanning out to multiple waiting processes).  Raising
        only the first and clearing the rest would silently drop the
        concurrent failures; instead every further exception is linked
        onto the first one's ``__context__`` chain, so deadlock
        diagnosis (and pytest tracebacks) sees all of them while the
        raised type stays exactly what callers already catch.
        """
        if not self._unhandled:
            return
        pending = self._unhandled
        self._unhandled = []
        primary = pending[0]
        tail = primary
        seen = {id(primary)}
        for exc in pending[1:]:
            if id(exc) in seen:
                continue
            # Append at the end of the existing chain; the id-set
            # guards against pre-existing context cycles.  The walk can
            # discover ``exc`` already sitting inside the chain (a
            # reported wrapper whose cause is also reported), so the
            # duplicate check repeats after the walk — appending then
            # would create a self-referential __context__ cycle.
            while (tail.__context__ is not None
                   and id(tail.__context__) not in seen):
                tail = tail.__context__
                seen.add(id(tail))
            if tail.__context__ is None and id(exc) not in seen:
                tail.__context__ = exc
                tail = exc
                seen.add(id(exc))
        raise primary

    # -- process / event helpers ------------------------------------------

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a generator as a process starting at the current time."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self.now:.6f}, "
                f"pending={self.pending_count})")
