"""The discrete-event simulator core.

:class:`Simulator` owns the clock and a hashed timer wheel of scheduled
callbacks.  All higher layers — links, netem qdiscs, TCP state machines,
DNS servers, Happy Eyeballs engines — interact with time exclusively
through this object, which is what makes measurement runs perfectly
reproducible: the paper's testbed relies on sub-millisecond packet
timestamping (§4.3); simulation gives exact timestamps.

Execution order is the classic ``(when, seq)`` discipline — strictly
increasing time, FIFO among callbacks scheduled for the same instant —
but the storage is a *timer wheel*, not a binary heap of tuples:

* entries hash into per-tick buckets (one tick ≈ 122 µs of simulated
  time), so a burst of events landing in the same tick costs one heap
  operation for the whole bucket, not one per event;
* :meth:`ScheduledCall.cancel` physically unlinks the entry from its
  bucket in O(1) — cancelled timers (the dominant Happy Eyeballs
  pattern: every won race abandons its losers' timeouts) never churn
  through the execution path the way heap tombstones did;
* the due bucket is sorted once (near-sorted input, so Timsort is
  ~linear) and drained in-place by ``run``/``run_until``/``step``,
  which all share the same hot loop.

The property tests pin this implementation against a reference heapq
scheduler on randomized schedule/cancel/reschedule workloads.
"""

from __future__ import annotations

import gc
import random
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional

from .clock import SimClock
from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process, ProcessGenerator

#: Wheel resolution: ticks per simulated second.  2**13 ≈ 122 µs per
#: tick — finer than the default segment propagation delay (100 µs), so
#: consecutive packet hops usually land in distinct buckets, while a
#: burst shaped onto one departure instant shares a single bucket.
_TICK_HZ = 8192.0

#: Sentinel slot for entries extracted into the due-bucket run.
_READY = object()

#: ``object.__new__`` bound once: the schedule fast path allocates a
#: bare ScheduledCall and assigns its slots inline, skipping the
#: ``type.__call__`` → ``__init__`` dispatch.
_new_call = object.__new__


class ScheduledCall:
    """Handle to a scheduled callback; supports O(1) cancellation.

    ``_slot`` tracks where the entry currently lives: its wheel bucket
    (a dict keyed by sequence number), the :data:`_READY` sentinel once
    extracted into the due run, or ``None`` after execution or
    cancellation.
    """

    __slots__ = ("when", "seq", "fn", "args", "_slot")

    def __init__(self, when: float, seq: int, fn: Callable[..., None],
                 args: "tuple") -> None:
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self._slot: Any = None

    @property
    def cancelled(self) -> bool:
        """True once cancelled (or executed); kept for introspection."""
        return self._slot is None and self.fn is None

    def cancel(self) -> None:
        """Unlink this entry; a cancelled call never executes.

        Entries still in the wheel are physically removed from their
        bucket (no tombstone ever reaches the execution loop); entries
        already extracted into the currently-draining bucket are
        emptied in place and skipped.
        """
        slot = self._slot
        if slot is None:
            return
        self._slot = None
        self.fn = None
        self.args = ()
        if slot is not _READY:
            del slot[self.seq]

    def __lt__(self, other: "ScheduledCall") -> bool:
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._slot is not None else "done/cancelled"
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

    __slots__ = ("_clock", "_rng", "_seed", "_unhandled", "_seq",
                 "_buckets", "_tick_heap", "_ready", "_ready_pos",
                 "_ready_tick", "_extra")

    def __init__(self, seed: int = 0, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._rng = random.Random(seed)
        self._seed = seed
        self._unhandled: List[BaseException] = []
        self._seq = 0
        # Wheel storage: tick -> {seq: ScheduledCall}; the tick heap
        # holds every tick that currently has (or recently had) a
        # bucket, with stale ticks dropped lazily.
        self._buckets: "dict[int, dict[int, ScheduledCall]]" = {}
        self._tick_heap: List[int] = []
        # Due-bucket run: the sorted entries of the tick currently
        # being drained, plus late arrivals into the same tick.
        self._ready: List[ScheduledCall] = []
        self._ready_pos = 0
        self._ready_tick: Optional[int] = None
        self._extra: List[ScheduledCall] = []

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
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay!r}")
        # Body of :meth:`_insert`, inlined: this is the hottest call
        # site in the simulator and the extra frame shows up in
        # profiles.
        when = self._clock._now + delay
        seq = self._seq = self._seq + 1
        call = _new_call(ScheduledCall)
        call.when = when
        call.seq = seq
        call.fn = fn
        call.args = args
        tick = int(when * _TICK_HZ)
        if tick == self._ready_tick:
            call._slot = _READY
            insort(self._extra, call)
        else:
            bucket = self._buckets.get(tick)
            if bucket is None:
                self._buckets[tick] = bucket = {seq: call}
                heappush(self._tick_heap, tick)
            else:
                bucket[seq] = call
            call._slot = bucket
        return call

    def schedule_at(self, when: float, fn: Callable[..., None],
                    *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self._clock._now:
            raise ValueError(
                f"cannot schedule in the past: {when!r} < {self._clock._now!r}")
        return self._insert(when, fn, args)

    def _insert(self, when: float, fn: Callable[..., None],
                args: "tuple") -> ScheduledCall:
        # ``args`` is already the vararg tuple — no re-packing copy.
        seq = self._seq = self._seq + 1
        call = _new_call(ScheduledCall)
        call.when = when
        call.seq = seq
        call.fn = fn
        call.args = args
        tick = int(when * _TICK_HZ)
        if tick == self._ready_tick:
            # The tick being drained: merge into the run, keeping
            # (when, seq) order against the not-yet-executed entries.
            call._slot = _READY
            insort(self._extra, call)
        else:
            bucket = self._buckets.get(tick)
            if bucket is None:
                self._buckets[tick] = bucket = {seq: call}
                heappush(self._tick_heap, tick)
            else:
                bucket[seq] = call
            call._slot = bucket
        return call

    def report_unhandled(self, exc: BaseException) -> None:
        """Record a failure nobody waited on; re-raised from :meth:`run`."""
        self._unhandled.append(exc)

    # -- queue inspection --------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled, unexecuted) scheduled calls."""
        count = sum(map(len, self._buckets.values()))
        ready = self._ready
        for index in range(self._ready_pos, len(ready)):
            if ready[index]._slot is not None:
                count += 1
        for call in self._extra:
            if call._slot is not None:
                count += 1
        return count

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or None if idle."""
        head = self._next_call()
        return head.when if head is not None else None

    def _next_call(self) -> Optional[ScheduledCall]:
        """The globally earliest live entry, or None.

        Normalizes internal state: skips cancelled entries at the head
        of the due run, drops drained ticks, loads the next due bucket
        when the current run is exhausted, and spills the run back into
        the wheel if an earlier tick has appeared (possible after a
        bounded :meth:`run` stopped mid-bucket and earlier times were
        scheduled).
        """
        buckets = self._buckets
        heap = self._tick_heap
        while True:
            ready = self._ready
            extra = self._extra
            pos = self._ready_pos
            n = len(ready)
            while pos < n and ready[pos]._slot is None:
                pos += 1
            self._ready_pos = pos
            while extra and extra[0]._slot is None:
                del extra[0]
            head: Optional[ScheduledCall] = None
            if pos < n:
                head = ready[pos]
                if extra and extra[0] < head:
                    head = extra[0]
            elif extra:
                head = extra[0]
            else:
                self._ready_tick = None
            # Earliest live tick in the wheel (lazily dropping drained
            # ticks and duplicate heap entries).
            tick = None
            while heap:
                tick = heap[0]
                if buckets.get(tick):
                    break
                heappop(heap)
                buckets.pop(tick, None)
                tick = None
            if head is not None:
                if tick is None or tick > self._ready_tick:
                    return head
                # An earlier tick appeared: push the unfinished run
                # back into the wheel and restart selection.
                self._spill_run()
                continue
            if tick is None:
                return None
            heappop(heap)
            entries = list(buckets.pop(tick).values())
            entries.sort()
            self._ready = entries
            self._ready_pos = 0
            self._ready_tick = tick
            self._extra = []
            return entries[0]

    def _spill_run(self) -> None:
        """Return the unfinished due run to the wheel."""
        buckets = self._buckets
        pending = self._ready[self._ready_pos:] + self._extra
        self._ready = []
        self._ready_pos = 0
        self._ready_tick = None
        self._extra = []
        for call in pending:
            if call._slot is None:
                continue
            tick = int(call.when * _TICK_HZ)
            bucket = buckets.get(tick)
            if bucket is None:
                buckets[tick] = bucket = {call.seq: call}
                heappush(self._tick_heap, tick)
            else:
                bucket[call.seq] = call
            call._slot = bucket

    def _consume(self, call: ScheduledCall) -> None:
        """Detach ``call`` (the current head) prior to execution."""
        ready = self._ready
        pos = self._ready_pos
        if pos < len(ready) and ready[pos] is call:
            self._ready_pos = pos + 1
        else:
            del self._extra[0]
        call._slot = None

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False if idle."""
        call = self._next_call()
        if call is None:
            return False
        self._consume(call)
        self._clock.advance_to(call.when)
        fn, args = call.fn, call.args
        call.fn = None
        call.args = ()
        if args:
            fn(*args)
        else:
            fn()
        self._raise_unhandled()
        return True

    def run(self, until: Optional[float] = None,
            _stop_event: Optional[Event] = None,
            _limit_raises: bool = False) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the simulated time when execution stopped.  If ``until``
        is given and the queue drains early, the clock is advanced to
        ``until`` so successive bounded runs compose predictably.

        This is *the* hot loop — every simulated event in every campaign
        executes here — so the due-bucket drain is fully inlined: the
        per-event cost is a couple of attribute loads and compares, not a
        :meth:`_next_call` + :meth:`_consume` method-call pair.  The
        clock is advanced by direct assignment because the ``(when,
        seq)`` discipline already guarantees monotonicity.

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
        # Normalize once on entry: a previous bounded run may have
        # stopped mid-bucket and later (external) scheduling may have
        # introduced an earlier tick; _next_call spills in that case.
        # During the loop itself no earlier tick can appear, because
        # every insertion satisfies ``when >= now``.
        self._next_call()
        unhandled = self._unhandled
        while True:
            ready = self._ready
            extra = self._extra
            pos = self._ready_pos
            n = len(ready)
            while True:
                # -- select the head of the current due run ------------
                if pos < n:
                    call = ready[pos]
                    if call._slot is None:  # cancelled in place
                        pos += 1
                        continue
                    from_extra = False
                    if extra:
                        ex = extra[0]
                        if ex._slot is None:
                            del extra[0]
                            continue
                        exw = ex.when
                        cw = call.when
                        if exw < cw or (exw == cw and ex.seq < call.seq):
                            call = ex
                            from_extra = True
                elif extra:
                    call = extra[0]
                    if call._slot is None:
                        del extra[0]
                        continue
                    from_extra = True
                else:
                    break  # due run exhausted: fall to the wheel
                when = call.when
                if until is not None and when > until:
                    self._ready_pos = pos
                    if _limit_raises:
                        raise SimulationError(
                            f"{_stop_event!r} still pending at "
                            f"time limit {until!r}")
                    clock.advance_to(until)
                    return clock.now
                # -- consume and execute -------------------------------
                if from_extra:
                    del extra[0]
                else:
                    pos += 1
                self._ready_pos = pos
                call._slot = None
                clock._now = when
                fn = call.fn
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
                if self._ready is not ready:
                    # Reentrant execution (a callback drove the
                    # simulator itself) reloaded the run: resync.
                    break
                pos = self._ready_pos
            if self._ready is not ready:
                continue
            # -- due run exhausted: load the next tick bucket ----------
            self._ready_pos = pos
            heap = self._tick_heap
            buckets = self._buckets
            tick = None
            while heap:
                tick = heap[0]
                if buckets.get(tick):
                    break
                heappop(heap)
                buckets.pop(tick, None)
                tick = None
            if tick is None:
                self._ready = []
                self._ready_pos = 0
                self._ready_tick = None
                self._extra = []
                break  # drained
            heappop(heap)
            entries = list(buckets.pop(tick).values())
            entries.sort()
            self._ready = entries
            self._ready_pos = 0
            self._ready_tick = tick
            self._extra = []
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
        Drives the same hot loop as :meth:`run` (one head selection per
        executed callback) instead of the old ``peek()`` + ``step()``
        pair, which scanned the queue head twice per callback.
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
