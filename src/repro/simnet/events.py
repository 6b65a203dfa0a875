"""One-shot events for the discrete-event simulator.

An :class:`Event` is the synchronization primitive processes yield on.
It can *succeed* with a value or *fail* with an exception, exactly once.
Callbacks attached to an event run as scheduler callbacks at the
simulated instant the event triggers, which keeps execution order
deterministic (heap order is ``(time, sequence)``).

The module also provides the condition events :class:`AnyOf` and
:class:`AllOf` used by the Happy Eyeballs racing engine to wait on
"first connection attempt to finish" and "all queries answered".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

_PENDING = object()


class SimulationError(Exception):
    """Base class for simulator-level errors."""


class EventAlreadyTriggered(SimulationError):
    """Raised when succeed()/fail() is called on a triggered event."""


class Event:
    """A one-shot event that processes can wait on.

    Slot-based: events are the densest allocation in a campaign (every
    timeout, every process, every condition is one), so avoiding the
    per-instance ``__dict__`` is a measurable campaign-wide win.

    Parameters
    ----------
    sim:
        The owning simulator; used to schedule callback execution.
    name:
        Optional label used in ``repr`` for debugging traces.
    """

    __slots__ = ("_sim", "_name", "_value", "_exception", "_callbacks",
                 "defused")

    def __init__(self, sim: "Any", name: str = "") -> None:
        self._sim = sim
        self._name = name
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.defused = False

    # -- state ---------------------------------------------------------

    @property
    def sim(self) -> "Any":
        return self._sim

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the callbacks have been dispatched."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING and self._exception is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._value = value
        self._schedule_dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._value = None
        self._schedule_dispatch()
        return self

    def _schedule_dispatch(self) -> None:
        self._sim.schedule(0.0, self._dispatch)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is None:  # pragma: no cover - double dispatch guard
            return
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self.defused and not callbacks:
            # A failed event nobody waited on is a crashed process: make
            # the failure visible instead of silently swallowing it.
            self._sim.report_unhandled(self._exception)

    # -- waiting -------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs when the event is dispatched.

        If the event was already dispatched the callback is scheduled to
        run immediately (at the current simulated time), so late waiters
        observe the same semantics as early ones.
        """
        if self._callbacks is None:
            self._sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._exception is None else "failed"
        label = self._name or self.__class__.__name__
        return f"<{label} {state} at t={self._sim.now:.6f}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation.

    This is the dominant scheduling pattern (every DNS query deadline,
    retransmission timer, and Happy Eyeballs stagger is one), so the
    fast path matters: expiry dispatches callbacks directly — no second
    scheduler entry — and the debugging label is rendered lazily in
    ``__repr__`` instead of being formatted on every construction.
    """

    __slots__ = ("_delay", "_call")

    def __init__(self, sim: "Any", delay: float, value: Any = None) -> None:
        # ``sim.schedule`` rejects a negative or non-finite delay.
        super().__init__(sim)
        self._delay = delay
        self._call = sim.schedule(delay, self._expire, value)

    @property
    def delay(self) -> float:
        return self._delay

    def _expire(self, value: Any) -> None:
        self._call = None
        if not self.triggered:
            self._value = value
            self._dispatch()

    def cancel(self) -> bool:
        """Cancel the pending expiry so it never runs.

        Superseded deadlines (a Happy Eyeballs race that resolved before
        its stagger gate or overall deadline fired) would otherwise
        expire as no-ops and advance the clock to a dead instant.  The
        scheduler entry is emptied in place and discarded when it
        reaches the head of the queue.  Returns True when a pending
        expiry was cancelled; cancelling an expired timeout is a no-op.
        """
        call, self._call = self._call, None
        if call is None or self.triggered:
            return False
        call.cancel()
        return True

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._exception is None else "failed"
        label = self._name or f"Timeout({self._delay:g})"
        return f"<{label} {state} at t={self._sim.now:.6f}>"


class ConditionValue:
    """Mapping of triggered events to their values for conditions."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def add(self, event: Event) -> None:
        self.events.append(event)

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def first(self) -> Event:
        if not self.events:
            raise SimulationError("condition triggered with no events")
        return self.events[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConditionValue({self.events!r})"


class _Condition(Event):
    """Shared machinery for AnyOf / AllOf."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Any", events: Iterable[Event], name: str) -> None:
        super().__init__(sim, name=name)
        self._events = children = list(events)
        self._done = ConditionValue()
        for event in children:
            if event._sim is not sim:
                raise SimulationError("condition mixes events of two simulators")
        if not children:
            self.succeed(self._done)
            return
        on_child = self._on_child
        for event in children:
            callbacks = event._callbacks
            if callbacks is None:
                sim.schedule(0.0, on_child, event)
            else:
                callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._done.add(event)
        self._check()

    def _check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds when the first of ``events`` succeeds.

    Fails as soon as any child fails.  Value is a :class:`ConditionValue`
    of the events that had triggered by dispatch time.
    """

    __slots__ = ()

    def __init__(self, sim: "Any", events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="AnyOf")

    def _check(self) -> None:
        if len(self._done) >= 1:
            self.succeed(self._done)


class AllOf(_Condition):
    """Succeeds when all ``events`` have succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Any", events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="AllOf")

    def _check(self) -> None:
        if len(self._done) == len(self._events):
            self.succeed(self._done)
