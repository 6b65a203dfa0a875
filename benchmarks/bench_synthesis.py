"""Adversarial synthesis throughput: candidates scored per second.

The synthesis subsystem's cost model is candidate evaluation — each
candidate is one campaign case run against every registered client
plus the ablation variants — so the headline is how many candidates a
cold ``synthesize-scenarios`` search scores per second, plus the warm
figure that justifies running denser budgets against the same store:

* ``synthesis_candidates_per_second`` — a cold search over a 12-seed /
  1-round budget against five clients, stored;
* ``synthesis_warm_replay``          — the same search re-rendered
  from the warm store (zero misses, byte-identical).

``check_perf_regression.py`` imports :func:`measure_synthesis`, so the
CI gate and this bench can never measure different things.
"""

import pathlib
import time

from repro.experiments import Session, get_experiment, knob_mapping
from repro.testbed import CampaignStore

from _util import record_timing

#: A budget dense enough to exercise refinement but cheap enough for
#: a CI gate: 12 grid seeds + one neighbourhood round, five clients.
BENCH_KNOBS = {
    "synthesis_seeds": 12, "synthesis_rounds": 1,
    "synthesis_top": 3, "synthesis_neighbors": 3, "promote": 6,
    "clients": "curl,wget,Chrome 130.0,Firefox 132.0,hev3-reference",
}


def measure_synthesis(root: pathlib.Path):
    """Cold then warm synthesize-scenarios search against ``root``.

    Returns ``(cold_s, warm_s, cold_artifact, warm_artifact,
    warm_misses, evaluated)`` — callers assert the identity invariants
    so a gate failure reads as a perf number, never a hidden
    correctness one.
    """
    experiment = get_experiment("synthesize-scenarios")
    knobs = knob_mapping(experiment, BENCH_KNOBS)

    t0 = time.perf_counter()
    cold = experiment.run(Session(seed=0, store=CampaignStore(root),
                                  knobs=knobs))
    cold_s = time.perf_counter() - t0

    warm_store = CampaignStore(root)
    t0 = time.perf_counter()
    warm = experiment.run(Session(seed=0, store=warm_store,
                                  knobs=knobs))
    warm_s = time.perf_counter() - t0
    evaluated = cold.data["evaluated"]
    return cold_s, warm_s, cold, warm, warm_store.metrics.misses, evaluated


def test_synthesis_throughput(tmp_path):
    cold_s, warm_s, cold, warm, misses, evaluated = measure_synthesis(
        tmp_path)

    assert warm.text == cold.text
    assert misses == 0
    assert evaluated >= BENCH_KNOBS["synthesis_seeds"]
    assert cold_s / warm_s >= 2.0, (
        f"warm replay should be >=2x the cold search: cold "
        f"{cold_s:.2f}s vs warm {warm_s:.2f}s")

    record_timing("synthesis_candidates_per_second", cold_s, {
        "evaluated": evaluated,
        "candidates_per_second": round(evaluated / cold_s, 1)})
    record_timing("synthesis_warm_replay", warm_s, {
        "evaluated": evaluated,
        "speedup_vs_cold": round(cold_s / warm_s, 1)})
