"""Figure 2 — address family of the established connection vs delay.

Runs the paper's local-testbed CAD sweep over all 17 client versions
(0–400 ms; 5 ms steps like the paper's fine-grained runs are supported,
the bench uses 10 ms for speed) and verifies every crossover:

* Chromium family flips IPv6→IPv4 at 300 ms across all versions/years;
* Firefox at 250 ms (median; a few late outliers tolerated);
* curl at 200 ms;
* wget never flips (no fallback);
* Safari is omitted, like in the paper (2 s CAD would flatten the plot).
"""

import pytest

from repro.analysis import figure2_sweep, render_figure2
from repro.clients import figure2_clients
from repro.experiments import Session

from _util import emit, timed

STEP_MS = 10


def build_figure2():
    with timed("figure2_cad_sweep", {"step_ms": STEP_MS, "workers": None}):
        return figure2_sweep(step_ms=STEP_MS, stop_ms=400,
                             session=Session(seed=2))


def test_figure2_cad_sweep(benchmark):
    series = benchmark.pedantic(build_figure2, rounds=1, iterations=1)
    by_client = {entry.client: entry for entry in series}
    assert len(series) == 17

    chromium_family = [name for name in by_client
                       if name.startswith(("Chrome ", "Chromium", "Edge"))]
    assert len(chromium_family) == 11
    for name in chromium_family:
        entry = by_client[name]
        # IPv6 established up to 300 ms, IPv4 beyond.
        assert entry.crossover_ms == 300, name
        assert entry.first_v4_ms == 300 + STEP_MS, name

    for name, entry in by_client.items():
        if name.startswith("Firefox"):
            # 250 ms nominal; occasional outliers may stretch a run.
            assert 250 <= entry.crossover_ms <= 400, name
            assert entry.first_v4_ms >= 250 + STEP_MS, name

    curl = by_client["curl 7.88.1"]
    assert curl.crossover_ms == 200
    wget = by_client["wget 1.21.3"]
    assert wget.first_v4_ms is None  # never falls back
    assert wget.crossover_ms == 400  # IPv6 all the way, just slow

    emit("figure2_cad_sweep", render_figure2(series))
