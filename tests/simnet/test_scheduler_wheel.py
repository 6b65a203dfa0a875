"""Differential tests for the simulator's event queue.

The scheduler's observable contract is strict ``(when, seq)``
execution order: increasing time, FIFO among equal times.  These tests
pin that contract against an independent ``heapq`` reference under
randomized schedule/cancel/reschedule workloads, plus regression tests
for the bookkeeping surfaces (``peek``, ``pending_count``), bounded
runs (stopping between two due calls, then receiving an *earlier*
schedule before the next run) and callbacks that drive the simulator
themselves.
"""

import heapq
import random

import pytest

from repro.simnet import Simulator


DELAYS = [0.0, 0.0, 1e-6, 0.001, 0.001, 0.0101, 0.25, 3.0]


def _spawns_child(tag) -> bool:
    """Pure function of the tag: does its callback schedule more work?

    Nested scheduling (timers arming timers) is the dominant real
    pattern; deriving the decision from the tag alone lets the
    simulator and the oracle apply it independently under their own
    clocks.
    """
    return random.Random(f"spawn:{tag}").random() < 0.4


def _child_delay(tag) -> float:
    return random.Random(f"delay:{tag}").choice(DELAYS)


class HeapOracle:
    """The reference semantics: a heap of (when, seq) entries."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.trace = []

    def schedule(self, delay: float, tag) -> int:
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, [self.now + delay, seq, tag, True])
        return seq

    def cancel(self, seq: int) -> None:
        for entry in self._heap:
            if entry[1] == seq:
                entry[3] = False
                return

    def run(self, until=None) -> None:
        while self._heap:
            when, seq, tag, live = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            if not live:
                continue
            self.now = when
            self.trace.append((round(when, 9), tag))
            if _spawns_child(tag):
                self.schedule(_child_delay(tag), ("child", tag))
        if until is not None:
            self.now = max(self.now, until)


def _run_workload(seed: int, ops: int = 400):
    """Apply one random workload to both schedulers, return the traces."""
    rng = random.Random(seed)
    sim = Simulator(seed=0)
    oracle = HeapOracle()
    trace = []
    handles = {}  # top-level tag -> simulator handle
    oracle_seqs = {}  # top-level tag -> oracle sequence number

    def fire(tag):
        trace.append((round(sim.now, 9), tag))
        if _spawns_child(tag):
            sim.schedule(_child_delay(tag), fire, ("child", tag))

    live = []
    for tag in range(ops):
        action = rng.random()
        if action < 0.70 or not live:
            delay = rng.choice(DELAYS)
            handles[tag] = sim.schedule(delay, fire, tag)
            oracle_seqs[tag] = oracle.schedule(delay, tag)
            live.append(tag)
        elif action < 0.90:
            victim = live.pop(rng.randrange(len(live)))
            handles[victim].cancel()
            oracle.cancel(oracle_seqs[victim])
        else:
            # Bounded run to a random horizon: stops between due
            # calls, then resumes after further scheduling.
            horizon = sim.now + rng.choice([0.0, 1e-4, 0.005, 0.5])
            sim.run(until=horizon)
            oracle.run(until=horizon)
            assert sim.now == pytest.approx(oracle.now)
    sim.run()
    oracle.run()
    return trace, oracle.trace


@pytest.mark.parametrize("seed", range(12))
def test_wheel_matches_heap_oracle(seed):
    """Same tags, same order, same timestamps as the heapq reference."""
    wheel_trace, heap_trace = _run_workload(seed)
    assert wheel_trace == heap_trace
    assert len(wheel_trace) > 0


def _reenters(tag) -> bool:
    """Pure function of the tag: does its callback run the simulator?"""
    return random.Random(f"reenter:{tag}").random() < 0.2


@pytest.mark.parametrize("seed", range(6))
def test_reentrant_run_matches_heap_oracle(seed):
    """A callback that calls ``sim.run(until=...)`` executes the calls
    due by then inside its own frame; the global ``(when, seq)`` order
    must still match the heapq reference, which never re-enters."""
    rng = random.Random(seed)
    sim = Simulator(seed=0)
    oracle = HeapOracle()
    trace = []
    horizons = []  # enclosing nested-run bounds, innermost last
    nested = []

    def fire(tag):
        trace.append((round(sim.now, 9), tag))
        if _spawns_child(tag):
            sim.schedule(_child_delay(tag), fire, ("child", tag))
        if _reenters(tag):
            # Bounded by the enclosing nested run, so no inner run moves
            # the clock past an outer one's horizon; nothing is scheduled
            # afterwards, so the nested clock advance shifts no work.
            limit = sim.now + _child_delay(("reenter", tag))
            if horizons:
                limit = min(limit, horizons[-1])
            horizons.append(limit)
            nested.append(tag)
            sim.run(until=limit)
            horizons.pop()

    pairs = []
    for tag in range(300):
        delay = rng.choice(DELAYS)
        pairs.append((sim.schedule(delay, fire, tag),
                      oracle.schedule(delay, tag)))
    for handle, seq in rng.sample(pairs, 30):
        handle.cancel()
        oracle.cancel(seq)
    sim.run()
    oracle.run()
    assert nested
    assert trace == oracle.trace
    assert sim.pending_count == 0


def test_same_timestamp_fifo_across_wheel_boundaries():
    """Equal-time callbacks run in schedule order, including one
    scheduled while that instant's callbacks are already running."""
    sim = Simulator()
    order = []
    sim.schedule(0.5, order.append, "a")
    sim.schedule(0.5, order.append, "b")

    def inject():
        # Scheduled *during* the t=0.5 drain: same timestamp, must run
        # after everything already queued for t=0.5.
        sim.schedule(0.0, order.append, "d")

    sim.schedule(0.5, lambda: (order.append("c"), inject()))
    sim.run()
    assert order == ["a", "b", "c", "d"]


class TestBookkeepingAfterCancel:
    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(0.1 * i, lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count == 5
        sim.run()
        assert sim.pending_count == 0

    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        assert sim.peek() == pytest.approx(0.1)
        first.cancel()
        assert sim.peek() == pytest.approx(0.2)

    def test_peek_empty_after_all_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert sim.peek() is None
        assert sim.pending_count == 0

    def test_cancel_is_idempotent_and_post_run_safe(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.1, fired.append, 1)
        sim.run()
        assert fired == [1]
        handle.cancel()  # executed call: must be a no-op
        handle.cancel()
        assert sim.pending_count == 0

    def test_cancel_during_callback_suppresses_same_time_peer(self):
        sim = Simulator()
        fired = []
        holder = []
        # Scheduled before its peer (lower sequence number), so at
        # t=0.5 the canceller runs first and cancels a peer due at
        # the very instant being executed.
        sim.schedule(0.5, lambda: holder[0].cancel())
        holder.append(sim.schedule(0.5, fired.append, "peer"))
        sim.schedule(0.4, fired.append, "early")
        sim.run()
        assert fired == ["early"]


class TestBoundedRunEdges:
    def test_stop_mid_bucket_then_resume(self):
        """A bounded run that stops between two due calls resumes
        exactly where it left off."""
        sim = Simulator()
        order = []
        sim.schedule(0.10, order.append, "a")
        sim.schedule(0.30, order.append, "b")
        sim.run(until=0.2)
        assert order == ["a"]
        assert sim.now == pytest.approx(0.2)
        sim.run()
        assert order == ["a", "b"]

    def test_earlier_schedule_between_bounded_runs(self):
        """External scheduling between bounded runs may add a call
        *earlier* than every pending one; the next run executes it
        first."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late")
        sim.run(until=0.5)
        sim.schedule(0.1, order.append, "early")  # now+0.1 = 0.6 < 1.0
        sim.run()
        assert order == ["early", "late"]

    def test_drained_bounded_run_advances_clock(self):
        sim = Simulator()
        sim.run(until=2.5)
        assert sim.now == pytest.approx(2.5)
        sim.schedule(0.25, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(2.75)
