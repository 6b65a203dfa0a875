"""CI perf gate for the simulator core, the population campaign, and
the synthesis search.

Re-measures three headline workloads and fails when one is more than
30% slower than the best committed sample in
``results/bench_timings.json``:

* the cold Figure 2 step-10 grid, 697 runs — the same thing
  ``bench_simnet_core.py`` records as ``figure2_runs_per_second``;
* the cold 250-user population-latency campaign — what
  ``bench_population.py`` records as
  ``population_samples_per_second`` (the measurement is imported from
  there, so gate and bench can never drift apart);
* the cold 12-seed synthesize-scenarios search — what
  ``bench_synthesis.py`` records as
  ``synthesis_candidates_per_second`` (measurement imported from
  there too).

The committed samples come from the same machine class as CI, and the
measurement takes the best of three to damp shared-runner noise, so a
30% threshold catches wholesale regressions (an accidentally quadratic
scheduler, a dropped cache) without tripping on load jitter.  Exits 0
with a notice when no baseline has been committed yet.
"""

import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.analysis import figure2_sweep  # noqa: E402

from bench_population import measure_population  # noqa: E402
from bench_synthesis import measure_synthesis  # noqa: E402

TIMINGS_PATH = (pathlib.Path(__file__).resolve().parent
                / "results" / "bench_timings.json")
THRESHOLD = 1.30


def gate_simnet_core(timings) -> int:
    samples = timings.get("figure2_runs_per_second", [])
    if not samples:
        print("[perf-gate] no committed figure2_runs_per_second "
              "baseline; skipping")
        return 0
    baseline = min(sample["seconds"] for sample in samples)

    figure2_sweep(step_ms=25)  # warm imports and wire caches
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        figure2_sweep(step_ms=10)
        best = min(best, time.perf_counter() - t0)

    ratio = best / baseline
    print(f"[perf-gate] simnet: measured {best:.3f}s vs committed best "
          f"{baseline:.3f}s ({ratio:.2f}x, threshold {THRESHOLD:.2f}x)")
    if ratio > THRESHOLD:
        print("[perf-gate] FAIL: simulator core regressed by "
              f"{(ratio - 1) * 100:.0f}% on the figure2 grid")
        return 1
    return 0


def gate_population(timings) -> int:
    """Cold population campaign vs the committed best, best of two
    (each measurement is ~1s of simulation, so two damp runner noise
    without doubling the gate's wall clock the way three would)."""
    samples = timings.get("population_samples_per_second", [])
    if not samples:
        print("[perf-gate] no committed population_samples_per_second "
              "baseline; skipping")
        return 0
    baseline = min(sample["seconds"] for sample in samples)

    best = float("inf")
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            cold_s, _, cold, warm, misses = measure_population(
                pathlib.Path(tmp))
        assert warm.text == cold.text and misses == 0
        best = min(best, cold_s)

    ratio = best / baseline
    print(f"[perf-gate] population: measured {best:.3f}s vs committed "
          f"best {baseline:.3f}s ({ratio:.2f}x, threshold "
          f"{THRESHOLD:.2f}x)")
    if ratio > THRESHOLD:
        print("[perf-gate] FAIL: population campaign regressed by "
              f"{(ratio - 1) * 100:.0f}% on the 250-user grid")
        return 1
    return 0


def gate_synthesis(timings) -> int:
    """Cold synthesis search vs the committed best, best of two (same
    rationale as the population gate: each measurement is real
    simulation time, two runs damp runner noise)."""
    samples = timings.get("synthesis_candidates_per_second", [])
    if not samples:
        print("[perf-gate] no committed synthesis_candidates_per_second "
              "baseline; skipping")
        return 0
    baseline = min(sample["seconds"] for sample in samples)

    best = float("inf")
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            cold_s, _, cold, warm, misses, _ = measure_synthesis(
                pathlib.Path(tmp))
        assert warm.text == cold.text and misses == 0
        best = min(best, cold_s)

    ratio = best / baseline
    print(f"[perf-gate] synthesis: measured {best:.3f}s vs committed "
          f"best {baseline:.3f}s ({ratio:.2f}x, threshold "
          f"{THRESHOLD:.2f}x)")
    if ratio > THRESHOLD:
        print("[perf-gate] FAIL: synthesis search regressed by "
              f"{(ratio - 1) * 100:.0f}% on the 12-seed budget")
        return 1
    return 0


def main() -> int:
    try:
        timings = json.loads(TIMINGS_PATH.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        timings = {}
    failures = (gate_simnet_core(timings) + gate_population(timings)
                + gate_synthesis(timings))
    if failures:
        return 1
    print("[perf-gate] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
