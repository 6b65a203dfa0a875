"""Population campaign throughput: the sampled-user headline.

The population subsystem's cost model is one number — how many sampled
users per second a cold ``population-latency`` campaign sustains
(sampling + simulation + store writes across the whole degradation
sweep) — plus the warm-replay figure that justifies the
content-addressed store at population scale:

* ``population_samples_per_second`` — the cold campaign over the
  default 250-user / 3-level grid (750 runs), stored;
* ``population_warm_replay``       — the same campaign re-rendered
  from the warm store (zero misses, byte-identical).

``check_perf_regression.py`` imports :func:`measure_population`, so
the CI gate and this bench can never measure different things.
"""

import pathlib
import time

from repro.experiments import Session, get_experiment, knob_mapping
from repro.testbed import CampaignStore

from _util import record_timing

#: The default experiment grid: 250 users x 3 degradation levels.
POP_SAMPLES = 250
POP_LEVELS = 3


def measure_population(root: pathlib.Path, samples: int = POP_SAMPLES):
    """Cold then warm population-latency campaign against ``root``.

    Returns ``(cold_s, warm_s, cold_artifact, warm_artifact,
    warm_misses)`` — callers assert the identity invariants so a gate
    failure reads as a perf number, never a hidden correctness one.
    """
    experiment = get_experiment("population-latency")
    knobs = knob_mapping(experiment, {"samples": samples})

    t0 = time.perf_counter()
    cold = experiment.run(Session(seed=0, store=CampaignStore(root),
                                  knobs=knobs))
    cold_s = time.perf_counter() - t0

    warm_store = CampaignStore(root)
    t0 = time.perf_counter()
    warm = experiment.run(Session(seed=0, store=warm_store,
                                  knobs=knobs))
    warm_s = time.perf_counter() - t0
    return cold_s, warm_s, cold, warm, warm_store.metrics.misses


def test_population_campaign_throughput(tmp_path):
    cold_s, warm_s, cold, warm, misses = measure_population(tmp_path)

    assert warm.text == cold.text
    assert misses == 0
    assert cold_s / warm_s >= 2.0, (
        f"warm replay should be >=2x the cold campaign: cold "
        f"{cold_s:.2f}s vs warm {warm_s:.2f}s")

    runs = POP_SAMPLES * POP_LEVELS
    record_timing("population_samples_per_second", cold_s, {
        "samples": POP_SAMPLES, "runs": runs,
        "samples_per_second": round(POP_SAMPLES / cold_s),
        "runs_per_second": round(runs / cold_s)})
    record_timing("population_warm_replay", warm_s, {
        "samples": POP_SAMPLES, "runs": runs,
        "speedup_vs_cold": round(cold_s / warm_s, 1)})
