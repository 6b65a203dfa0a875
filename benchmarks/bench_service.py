"""Campaign service bench: warm submit throughput.

``service_submit_throughput`` in ``results/bench_timings.json`` is warm
submissions per second through the full service path (admission plan,
single-flight claims, tiered store, resilience bundle) for the real
Figure 2 experiment.  Warm, because that is the service's steady
state: a campaign fleet re-requesting artifacts whose runs are already
cached.
"""

import time

from repro.experiments.base import Session, knob_mapping
from repro.experiments.registry import get_experiment
from repro.service import CampaignService

from _util import record_timing

#: Warm submissions timed for the throughput number.
WARM_SUBMISSIONS = 20


def test_service_submit_throughput(benchmark, tmp_path):
    """Warm submissions per second through the whole service stack,
    byte-identical to a direct experiment run."""
    def run_service_rounds():
        service = CampaignService(tmp_path / "cache", seed=0)
        with service:
            cold = service.submit("figure2", {"step": 100})
            start = time.perf_counter()
            warm = [service.submit("figure2", {"step": 100})
                    for _ in range(WARM_SUBMISSIONS)]
            seconds = time.perf_counter() - start
        return cold, warm, seconds

    cold, warm, seconds = benchmark.pedantic(run_service_rounds,
                                             rounds=1, iterations=1)

    # Steady state: every warm submission resolves without executing.
    assert all(r.executed == 0 and r.hits == r.planned for r in warm)
    assert {r.text for r in warm} == {cold.text}
    # And the served artifact is byte-identical to a direct run.
    experiment = get_experiment("figure2")
    direct = experiment.run(Session(
        seed=0, knobs=knob_mapping(experiment, {"step": 100})))
    assert cold.text == direct.text

    per_second = WARM_SUBMISSIONS / seconds
    record_timing("service_submit_throughput", seconds,
                  {"submissions": WARM_SUBMISSIONS,
                   "per_second": round(per_second, 2),
                   "planned_keys": cold.planned})
