"""Generator-based processes for the discrete-event simulator.

A process is a Python generator that yields :class:`~repro.simnet.events.Event`
objects.  When a yielded event triggers, the process resumes with the
event's value (or the event's exception raised inside the generator).
This is the SimPy execution model, reimplemented here so the repository
has no runtime dependencies.

Processes are themselves events: they trigger with the generator's
return value, so one process can wait for another, and
:class:`~repro.simnet.events.AnyOf` can race processes — which is
exactly what Happy Eyeballs connection racing needs.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import Event, SimulationError

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process when it is interrupted.

    The Happy Eyeballs racing engine interrupts losing connection
    attempts once a winner is established, mirroring how real clients
    abort or discard the other sockets.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and steps it through the event loop."""

    __slots__ = ("_generator", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Any", generator: ProcessGenerator,
                 name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {generator!r}"
            )
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "Process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method reused for every wakeup: _resume is attached
        # as a callback on each yielded event, and rebinding it per
        # yield is measurable across a campaign.
        self._resume_cb = self._resume
        # Start the process at the current instant.
        self._sim.schedule(0.0, self._resume_cb, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- execution -----------------------------------------------------

    def _resume(self, trigger: Optional[Event]) -> None:
        if self.triggered:
            # Interrupted or finished while a stale wakeup was queued.
            return
        self._waiting_on = None
        try:
            if trigger is None:
                target = self._generator.send(None)
            elif trigger.ok:
                target = self._generator.send(trigger.value)
            else:
                trigger.defused = True
                target = self._generator.throw(trigger.exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self._name!r} yielded {target!r}, expected an Event"
            )
            self._generator.close()
            self.fail(error)
            return
        self._waiting_on = target
        callbacks = target._callbacks
        if callbacks is None:
            self._sim.schedule(0.0, self._resume_cb, target)
        else:
            callbacks.append(self._resume_cb)

    # -- interruption ----------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, mirroring the "first
        successful connection wins, losers are discarded" semantics in
        Happy Eyeballs where cancellation can race completion.
        """
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._resume_cb)
            self._waiting_on = None
        self._sim.schedule(0.0, self._deliver_interrupt, Interrupt(cause))

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process did not catch it: treat as a clean cancellation.
            self.defused = True
            self.fail(exc)
            return
        except BaseException as err:  # noqa: BLE001
            self.fail(err)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self._name!r} yielded {target!r} after interrupt"))
            return
        self._waiting_on = target
        callbacks = target._callbacks
        if callbacks is None:
            self._sim.schedule(0.0, self._resume_cb, target)
        else:
            callbacks.append(self._resume_cb)
