"""Tests for the discrete-event kernel: clock, scheduling, events, processes."""

import pytest

from repro.simnet import (AnyOf, Event, EventAlreadyTriggered, Interrupt,
                          SimulationError, Simulator)
from repro.simnet.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(2.5)
        assert clock.now == 2.5

    def test_advance_backwards_rejected(self):
        clock = SimClock(3.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_callback_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("entry", ["schedule", "schedule_at",
                                       "timeout"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_delay_rejected(self, entry, bad):
        """A NaN or infinite delay is a ValueError naming the value,
        and nothing is queued."""
        sim = Simulator()
        enter = {
            "schedule": lambda: sim.schedule(bad, lambda: None),
            "schedule_at": lambda: sim.schedule_at(bad, lambda: None),
            "timeout": lambda: sim.timeout(bad),
        }[entry]
        with pytest.raises(ValueError, match=repr(bad)):
            enter()
        assert sim.pending_count == 0

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        called = []
        handle = sim.schedule(1.0, called.append, "x")
        handle.cancel()
        sim.run()
        assert called == []

    def test_run_until_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        assert seen == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(1.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 2.0]

    def test_derive_rng_is_stable_and_label_dependent(self):
        sim_a = Simulator(seed=7)
        sim_b = Simulator(seed=7)
        assert (sim_a.derive_rng("x").random()
                == sim_b.derive_rng("x").random())
        assert (sim_a.derive_rng("x").random()
                != sim_a.derive_rng("y").random())


class TestEvents:
    def test_succeed_carries_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        timeout = sim.timeout(0.25, value="done")
        sim.run()
        assert sim.now == 0.25
        assert timeout.value == "done"

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Simulator().timeout(-1.0)

    def test_late_callback_on_processed_event_still_runs(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("v")
        sim.run()
        got = []
        event.add_callback(lambda ev: got.append(ev.value))
        sim.run()
        assert got == ["v"]


class TestConditions:
    def test_any_of_first_wins(self):
        sim = Simulator()
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(2.0, value="slow")
        race = AnyOf(sim, [fast, slow])
        result = sim.run_until(race)
        assert fast in result
        assert slow not in result
        assert sim.now == 1.0

    def test_any_of_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()
        race = AnyOf(sim, [bad, sim.timeout(5.0)])
        bad.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(race)

    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        events = [sim.timeout(t) for t in (1.0, 3.0, 2.0)]
        gather = sim.all_of(events)
        result = sim.run_until(gather)
        assert len(result) == 3
        assert sim.now == 3.0

    def test_empty_condition_triggers_immediately(self):
        sim = Simulator()
        gather = sim.all_of([])
        sim.run()
        assert gather.triggered


class TestProcesses:
    def test_process_sequences_timeouts(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(0.5)
            trace.append(sim.now)
            return "finished"

        proc = sim.process(body())
        result = sim.run_until(proc)
        assert result == "finished"
        assert trace == [0.0, 1.0, 1.5]

    def test_process_receives_event_value(self):
        sim = Simulator()
        box = sim.event()

        def body():
            value = yield box
            return value * 2

        proc = sim.process(body())
        sim.schedule(1.0, box.succeed, 21)
        assert sim.run_until(proc) == 42

    def test_event_failure_raises_inside_process(self):
        sim = Simulator()
        box = sim.event()

        def body():
            try:
                yield box
            except ValueError as exc:
                return f"caught {exc}"

        proc = sim.process(body())
        sim.schedule(1.0, box.fail, ValueError("bad"))
        assert sim.run_until(proc) == "caught bad"

    def test_unhandled_process_crash_surfaces_in_run(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("crash")

        sim.process(body())
        with pytest.raises(RuntimeError, match="crash"):
            sim.run()

    def test_concurrent_unhandled_failures_all_chained(self):
        """The regression: only the first unhandled exception was
        raised, the rest silently cleared.  Concurrent failures must
        stay reachable through the __context__ chain."""
        sim = Simulator()
        first = RuntimeError("first crash")
        second = ValueError("second crash")
        third = KeyError("third crash")

        def explode():
            sim.report_unhandled(first)
            sim.report_unhandled(second)
            sim.report_unhandled(third)

        sim.schedule(1.0, explode)
        with pytest.raises(RuntimeError, match="first crash") as excinfo:
            sim.run()
        assert excinfo.value.__context__ is second
        assert excinfo.value.__context__.__context__ is third
        # The queue of unhandled failures was drained, not leaked.
        sim.schedule(1.0, lambda: None)
        assert sim.run() == 2.0

    def test_duplicate_unhandled_failures_not_cycled(self):
        sim = Simulator()
        boom = RuntimeError("boom")

        def explode():
            sim.report_unhandled(boom)
            sim.report_unhandled(boom)

        sim.schedule(1.0, explode)
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            sim.run()
        assert excinfo.value.__context__ is None

    def test_reported_cause_of_reported_wrapper_no_cycle(self):
        """Reporting a wrapper and then its own cause must not splice
        the cause into a self-referential __context__ cycle."""
        sim = Simulator()
        cause = OSError("root cause")
        primary = RuntimeError("wrapper")
        primary.__context__ = cause

        def explode():
            sim.report_unhandled(primary)
            sim.report_unhandled(cause)

        sim.schedule(1.0, explode)
        with pytest.raises(RuntimeError, match="wrapper") as excinfo:
            sim.run()
        assert excinfo.value.__context__ is cause
        assert cause.__context__ is None  # no self-cycle

    def test_chain_appends_after_existing_context(self):
        """A primary exception that already carries a __context__ gets
        concurrent failures appended at the chain's end, not spliced
        over the original cause."""
        sim = Simulator()
        cause = OSError("root cause")
        primary = RuntimeError("wrapper")
        primary.__context__ = cause
        extra = ValueError("concurrent")

        def explode():
            sim.report_unhandled(primary)
            sim.report_unhandled(extra)

        sim.schedule(1.0, explode)
        with pytest.raises(RuntimeError, match="wrapper") as excinfo:
            sim.run()
        assert excinfo.value.__context__ is cause
        assert cause.__context__ is extra

    def test_process_waiting_on_process(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(2.0)
            return "payload"

        def boss():
            result = yield sim.process(worker())
            return f"got {result}"

        proc = sim.process(boss())
        assert sim.run_until(proc) == "got payload"
        assert sim.now == 2.0

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def body():
            yield "not an event"

        proc = sim.process(body())
        proc.defused = True
        sim.run()
        assert not proc.ok
        assert isinstance(proc.exception, SimulationError)

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()

        def body():
            try:
                yield sim.timeout(10.0)
            except Interrupt as exc:
                return f"interrupted by {exc.cause}"

        proc = sim.process(body())
        sim.schedule(1.0, proc.interrupt, "winner")
        assert sim.run_until(proc) == "interrupted by winner"
        assert sim.now == 1.0

    def test_uncaught_interrupt_is_clean_cancellation(self):
        sim = Simulator()

        def body():
            yield sim.timeout(10.0)

        proc = sim.process(body())
        sim.schedule(1.0, proc.interrupt)
        sim.run()
        assert proc.triggered
        assert not proc.ok
        assert isinstance(proc.exception, Interrupt)

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(body())
        sim.run()
        proc.interrupt()
        sim.run()
        assert proc.value == "done"

    def test_run_until_detects_dry_queue(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run_until(never)
