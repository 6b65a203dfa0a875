"""Simulator core throughput: the headline runs/second metric.

The simulator core (one-heap scheduler, flyweight packet path,
wire-template DNS caches) is judged by one number: how many
simulated Happy Eyeballs runs per second a cold Figure 2 campaign
sustains.  This bench records that headline plus four micro-benchmarks
that isolate the layers it is built from:

* ``simnet_scheduler_ops``   — raw schedule+dispatch throughput;
* ``simnet_cancel_heavy``    — cancellation under churn;
* ``simnet_packet_hops``     — two-host UDP ping-pong packet path;
* ``simnet_timeout_churn``   — process/timeout allocation pressure;
* ``figure2_runs_per_second``— the headline, measured on the same
  697-run step-10 grid as ``figure2_sweep_serial`` so the trajectory
  in ``bench_timings.json`` is directly comparable across PRs.
"""

import json
import statistics
import time

from repro.analysis import figure2_sweep
from repro.simnet import Network, Simulator
from repro.transport.udp import UDPStack

from _util import TIMINGS_PATH, record_timing

# Keep micro-bench event counts large enough that per-event cost
# dominates interpreter start-up noise, small enough for CI.
SCHEDULER_EVENTS = 200_000
CANCEL_EVENTS = 100_000
PACKET_HOPS = 20_000
TIMEOUT_PROCS = 20_000


def test_scheduler_ops():
    """Pure scheduler throughput: N schedules, N dispatches.

    All N entries are pending at once (a heap 200k deep), far deeper
    than any registered experiment's queue.
    """
    sim = Simulator(seed=1)
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    t0 = time.perf_counter()
    for i in range(SCHEDULER_EVENTS):
        # 97 distinct delays interleave event times the way a real
        # campaign does, instead of queueing every event at one time.
        sim.schedule((i % 97) * 1e-4, tick)
    sim.run()
    elapsed = time.perf_counter() - t0

    assert fired[0] == SCHEDULER_EVENTS
    record_timing("simnet_scheduler_ops", elapsed, {
        "events": SCHEDULER_EVENTS,
        "ops_per_second": round(SCHEDULER_EVENTS / elapsed)})


def test_cancel_heavy():
    """Cancel 90% of pending work; only survivors may fire.

    A cancelled entry stays in the heap, emptied, and is discarded when
    it reaches the head, so this bench pays for every cancelled entry
    again at pop time.  It keeps 100k entries pending at once; the
    registered experiments keep at most a few hundred, with cancels a
    few percent of schedules.
    """
    sim = Simulator(seed=2)
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    t0 = time.perf_counter()
    handles = [sim.schedule((i % 89) * 1e-4 + 1e-6, tick)
               for i in range(CANCEL_EVENTS)]
    for i, handle in enumerate(handles):
        if i % 10 != 0:
            handle.cancel()
    sim.run()
    elapsed = time.perf_counter() - t0

    assert fired[0] == CANCEL_EVENTS // 10
    assert sim.pending_count == 0
    record_timing("simnet_cancel_heavy", elapsed, {
        "events": CANCEL_EVENTS, "cancelled": CANCEL_EVENTS * 9 // 10,
        "ops_per_second": round(CANCEL_EVENTS / elapsed)})


def test_packet_hops():
    """UDP ping-pong across one segment: the per-packet path cost."""
    net = Network(seed=3)
    segment = net.add_segment("lan")
    left = net.add_host("left")
    right = net.add_host("right")
    net.connect(left, segment, ["10.0.0.1"])
    net.connect(right, segment, ["10.0.0.2"])
    sim = net.sim
    lsock = UDPStack(left).socket("10.0.0.1", 1111)
    rsock = UDPStack(right).socket("10.0.0.2", 2222)
    hops = [0]

    def ponger():
        while True:
            datagram = yield rsock.recv()
            hops[0] += 1
            if hops[0] >= PACKET_HOPS:
                return
            rsock.sendto(datagram.payload, datagram.src, datagram.sport)

    def pinger():
        lsock.sendto(b"x" * 64, "10.0.0.2", 2222)
        while hops[0] < PACKET_HOPS:
            yield lsock.recv()
            lsock.sendto(b"x" * 64, "10.0.0.2", 2222)

    sim.process(ponger())
    sim.process(pinger())
    t0 = time.perf_counter()
    sim.run(until=1000.0)
    elapsed = time.perf_counter() - t0

    assert hops[0] >= PACKET_HOPS
    record_timing("simnet_packet_hops", elapsed, {
        "hops": hops[0], "hops_per_second": round(hops[0] / elapsed)})


def test_timeout_churn():
    """Allocation pressure: many short-lived processes and timeouts."""
    sim = Simulator(seed=4)
    done = [0]

    def waiter(delay: float):
        yield sim.timeout(delay)
        done[0] += 1

    t0 = time.perf_counter()
    for i in range(TIMEOUT_PROCS):
        sim.process(waiter((i % 53) * 1e-4))
    sim.run()
    elapsed = time.perf_counter() - t0

    assert done[0] == TIMEOUT_PROCS
    record_timing("simnet_timeout_churn", elapsed, {
        "processes": TIMEOUT_PROCS,
        "ops_per_second": round(TIMEOUT_PROCS / elapsed)})


def _recorded_baseline_seconds() -> float:
    """Median of the recorded figure2_sweep_serial samples (pre-overhaul)."""
    try:
        timings = json.loads(TIMINGS_PATH.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return float("nan")
    samples = [s["seconds"] for s in timings.get("figure2_sweep_serial", [])]
    return statistics.median(samples) if samples else float("nan")


def test_figure2_runs_per_second():
    """Headline: cold Figure 2 grid throughput in simulated runs/second.

    Same 697-run step-10 CAD grid as ``figure2_sweep_serial``; best of
    three cold campaigns (each run rebuilds its testbed — only
    process-wide wire caches persist, exactly as in a real campaign).
    The floor assertion is deliberately modest: the recorded baseline
    samples come from earlier PRs on the *same* machine class, but
    shared-runner speed drifts by tens of percent between sessions, so
    the trajectory in ``bench_timings.json`` is the real scoreboard and
    the assertion only catches wholesale regressions.
    """
    figure2_sweep(step_ms=25)  # warm import/caches off the clock
    best = float("inf")
    runs = 0
    for _ in range(3):
        t0 = time.perf_counter()
        series = figure2_sweep(step_ms=10)
        best = min(best, time.perf_counter() - t0)
        runs = sum(len(s.outcomes) for s in series)
    runs_per_second = runs / best

    baseline_s = _recorded_baseline_seconds()
    speedup = (baseline_s / best) if baseline_s == baseline_s else None
    record_timing("figure2_runs_per_second", best, {
        "runs": runs,
        "runs_per_second": round(runs_per_second, 1),
        "baseline_median_seconds": (round(baseline_s, 3)
                                    if speedup is not None else None),
        "speedup_vs_recorded": (round(speedup, 2)
                                if speedup is not None else None)})
    assert runs == 697
    if speedup is not None:
        assert speedup >= 1.05, (
            f"figure2 grid regressed: {best:.3f}s vs recorded median "
            f"{baseline_s:.3f}s ({speedup:.2f}x)")
