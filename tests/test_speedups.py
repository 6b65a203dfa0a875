"""Relative speed-ups: a warm store replay against its cold run, and
the process pool against the serial path.

Each test times both sides in this process, one after the other, so
the speed of the host cancels out of the ratio; no timing committed
from another machine is involved.  The absolute speed of a change is
judged against its base commit by ``tools/perf_ab.py``.
"""

import time

import pytest

from repro.cli import usable_cpus
from repro.clients import figure2_clients
from repro.experiments import Session, get_experiment, knob_mapping
from repro.population.campaign import IDENTITIES
from repro.testbed import (CampaignStore, SweepSpec, TestCaseConfig,
                           TestCaseKind, TestRunner)

#: A synthesis budget that refines once: 12 grid seeds, five clients.
SYNTHESIS_KNOBS = {
    "synthesis_seeds": 12, "synthesis_rounds": 1,
    "synthesis_top": 3, "synthesis_neighbors": 3, "promote": 6,
    "clients": "curl,wget,Chrome 130.0,Firefox 132.0,hev3-reference",
}
PARALLEL_WORKERS = 4


def cold_then_warm(root, experiment, knobs, seed):
    """``(store, artifact, seconds)`` of a cold run that fills the
    store at ``root`` and of a warm run that reads it back."""
    IDENTITIES.clear()  # so a cold population run samples its users
    runs = []
    for _ in range(2):
        store = CampaignStore(root)
        start = time.perf_counter()
        artifact = experiment.run(Session(seed=seed, store=store,
                                          knobs=knobs))
        runs.append((store, artifact, time.perf_counter() - start))
    return runs


def test_warm_store_rerender_is_5x_cold(tmp_path):
    experiment = get_experiment("figure2")
    knobs = knob_mapping(experiment, {"step": 25})
    (cold_store, cold, cold_s), (warm_store, warm, warm_s) = \
        cold_then_warm(tmp_path, experiment, knobs, seed=2)
    runs = 17 * len(range(0, 401, 25))
    # Cold: every lookup missed and was stored.  Warm: every lookup
    # hit, nothing executed or written.
    assert (cold_store.metrics.misses, cold_store.metrics.stores) == (
        runs, runs)
    assert (warm_store.metrics.hits, warm_store.metrics.misses,
            warm_store.metrics.stores) == (runs, 0, 0)
    # Byte-identical re-render, and identical to a store-less run.
    assert warm.text == cold.text
    assert experiment.run(Session(seed=2, knobs=knobs)).text == cold.text
    assert cold_s / warm_s >= 5.0, (
        f"warm re-render should be >=5x faster: cold {cold_s:.3f}s "
        f"vs warm {warm_s:.3f}s")


@pytest.mark.parametrize("name, knobs", [
    ("population-latency", {"samples": 250}),
    ("synthesize-scenarios", SYNTHESIS_KNOBS),
])
def test_warm_replay_is_2x_cold(tmp_path, name, knobs):
    experiment = get_experiment(name)
    (_, cold, cold_s), (warm_store, warm, warm_s) = cold_then_warm(
        tmp_path, experiment, knob_mapping(experiment, knobs), seed=0)
    assert warm.text == cold.text
    assert warm_store.metrics.misses == 0
    if name == "synthesize-scenarios":
        assert cold.data["evaluated"] >= SYNTHESIS_KNOBS["synthesis_seeds"]
    assert cold_s / warm_s >= 2.0, (
        f"warm replay should be >=2x the cold {name}: cold "
        f"{cold_s:.2f}s vs warm {warm_s:.2f}s")


@pytest.mark.skipif(usable_cpus() < PARALLEL_WORKERS,
                    reason=f"fewer than {PARALLEL_WORKERS} CPUs: a process "
                           "pool cannot show the speed-up here")
def test_parallel_figure2_is_2x_serial():
    case = TestCaseConfig(name="figure2",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.range(0, 400, 10))
    runner = TestRunner(figure2_clients(), [case], seed=2)
    start = time.perf_counter()
    serial = runner.run()
    serial_s = time.perf_counter() - start
    # Best of two parallel runs damps pool start-up and load noise.
    parallel_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        parallel = runner.run(Session(workers=PARALLEL_WORKERS))
        parallel_s = min(parallel_s, time.perf_counter() - start)
    assert len(serial) == 697
    assert serial == parallel
    assert serial_s / parallel_s >= 2.0, (
        f"expected >=2x with {PARALLEL_WORKERS} workers: serial "
        f"{serial_s:.2f}s vs parallel {parallel_s:.2f}s")
