"""The incremental campaign store: near-zero warm re-render cost.

Runs a Figure 2 CAD sweep twice against one content-addressed cache
directory and checks the store's two contracts:

* the warm re-render is **byte-identical** to the cold run (the
  rendered figure text matches character for character, and matches a
  store-less run);
* the warm re-render skips every simulation — all lookups hit — and is
  at least 5x faster than the cold run (in practice it is orders of
  magnitude: pack reads versus thousands of simulated connections).

Cold and warm wall-clock go into ``results/bench_timings.json`` as
``figure2_store_cold`` / ``figure2_store_warm`` so the perf trajectory
records the re-render win alongside the serial/parallel timings.
"""

import time

from repro.analysis import figure2_sweep, render_figure2
from repro.experiments import Session
from repro.testbed import CampaignStore

from _util import record_timing

STEP_MS = 25
SEED = 2
RUNS = 17 * len(range(0, 401, STEP_MS))


def sweep(store):
    start = time.perf_counter()
    series = figure2_sweep(step_ms=STEP_MS, stop_ms=400,
                           session=Session(seed=SEED, store=store))
    return series, time.perf_counter() - start


def test_warm_cache_rerender(benchmark, tmp_path):
    def run_cold_and_warm():
        cold_store = CampaignStore(tmp_path / "cache")
        cold, cold_s = sweep(cold_store)
        warm_store = CampaignStore(tmp_path / "cache")
        warm, warm_s = sweep(warm_store)
        return cold_store, cold, cold_s, warm_store, warm, warm_s

    cold_store, cold, cold_s, warm_store, warm, warm_s = \
        benchmark.pedantic(run_cold_and_warm, rounds=1, iterations=1)

    # Cold run: every lookup missed, every record was stored.
    assert cold_store.metrics.misses == RUNS
    assert cold_store.metrics.stores == RUNS
    # Warm run: every lookup hit, nothing executed or written.
    assert warm_store.metrics.hits == RUNS
    assert warm_store.metrics.misses == 0
    assert warm_store.metrics.stores == 0

    # Byte-identical re-render, and identical to a store-less run.
    cold_text = render_figure2(cold)
    assert render_figure2(warm) == cold_text
    assert render_figure2(
        figure2_sweep(step_ms=STEP_MS, stop_ms=400,
                      session=Session(seed=SEED))) == cold_text

    record_timing("figure2_store_cold", cold_s,
                  {"runs": RUNS, "step_ms": STEP_MS})
    record_timing("figure2_store_warm", warm_s,
                  {"runs": RUNS, "step_ms": STEP_MS})
    assert cold_s / warm_s >= 5.0, (
        f"warm re-render should be >=5x faster: cold {cold_s:.3f}s "
        f"vs warm {warm_s:.3f}s")
