"""The adaptive probe: refinement windows, cache-awareness, planning."""

import pytest

from repro.clients import get_profile
from repro.conformance import (ConformanceProbe, refinement_window,
                               scenario_battery, scenario_by_name)
from repro.experiments import Session
from repro.simnet.addr import Family
from repro.testbed import CampaignStore


class TestRefinementWindow:
    def test_window_brackets_the_crossover(self):
        series = {0: Family.V6, 50: Family.V6, 100: Family.V4,
                  150: Family.V4}
        assert refinement_window(series, 50, 400) == (50, 100)

    def test_no_fallback_means_no_refinement(self):
        series = {0: Family.V6, 50: Family.V6}
        assert refinement_window(series, 50, 400) is None

    def test_immediate_v4_refines_from_zero(self):
        series = {0: Family.V4, 50: Family.V4}
        assert refinement_window(series, 50, 400) == (0, 50)

    def test_flapping_series_widens_to_the_flap(self):
        # IPv4 at 100 but IPv6 again at 200: refine the whole window.
        series = {0: Family.V6, 100: Family.V4, 200: Family.V6,
                  300: Family.V4}
        assert refinement_window(series, 50, 400) == (50, 250)

    def test_pure_function_of_the_series(self):
        series = {0: Family.V6, 250: Family.V6, 300: Family.V4}
        assert refinement_window(series, 50, 400) == \
            refinement_window(dict(reversed(series.items())), 50, 400)


class TestAdaptiveProbe:
    def test_fine_pass_reuses_cached_coarse_values(self, tmp_path):
        """The cache-aware inner loop: the fine sweep's overlap with
        the coarse grid comes back as hits even on a cold campaign."""
        profile = get_profile("curl", "7.88.1")
        scenario = scenario_by_name("v6-delay-sweep")
        store = CampaignStore(tmp_path)
        probe = ConformanceProbe(profile, seed=2, battery=[scenario])
        outcome = probe.run(Session(store=store))[0]
        assert outcome.refined_window_ms is not None
        lo, hi = outcome.refined_window_ms
        # curl's 200 ms CAD sits inside the refined window.
        assert lo <= 200 <= hi
        assert store.metrics.hits > 0        # coarse overlap replayed
        # The fine pass measured at 5 ms granularity inside the window.
        fine_values = {r.value_ms for r in outcome.records
                       if lo < r.value_ms < hi}
        assert fine_values  # refinement actually added values

    def test_warm_probe_executes_nothing(self, tmp_path):
        profile = get_profile("Chrome", "130.0")
        battery = scenario_battery()
        probe = ConformanceProbe(profile, seed=1, battery=battery)
        cold = probe.run(Session(store=CampaignStore(tmp_path)))
        warm_store = CampaignStore(tmp_path)
        warm = probe.run(Session(store=warm_store))
        assert warm_store.metrics.misses == 0
        assert warm_store.metrics.stores == 0
        for cold_outcome, warm_outcome in zip(cold, warm):
            assert warm_outcome.records == cold_outcome.records
            assert warm_outcome.refined_window_ms == \
                cold_outcome.refined_window_ms

    def test_serial_equals_parallel(self):
        profile = get_profile("curl", "7.88.1")
        battery = [scenario_by_name("v6-delay-sweep"),
                   scenario_by_name("asymmetric-loss")]
        probe = ConformanceProbe(profile, seed=4, battery=battery)
        serial = probe.run()
        parallel = probe.run(Session(workers=2))
        for a, b in zip(serial, parallel):
            assert a.records == b.records


class TestKeyPlanning:
    def test_plan_covers_the_warm_battery(self, tmp_path):
        """After a cold probe, the planned key set contains every key
        the probe touched — the gc contract that a warm battery stays
        fully cached."""
        profile = get_profile("curl", "7.88.1")
        battery = [scenario_by_name("v6-delay-sweep"),
                   scenario_by_name("v6-blackhole")]
        store = CampaignStore(tmp_path)
        probe = ConformanceProbe(profile, seed=7, battery=battery)
        probe.run(Session(store=store))
        on_disk = {key for key, _ in store.entries()}
        planned = set(probe.plan(CampaignStore(tmp_path)).keys())
        assert on_disk <= planned

    def test_cold_planning_skips_unknowable_fine_keys(self, tmp_path):
        profile = get_profile("curl", "7.88.1")
        scenario = scenario_by_name("v6-delay-sweep")
        probe = ConformanceProbe(profile, seed=7, battery=[scenario])
        planned = probe.plan(CampaignStore(tmp_path)).keys()
        # Cold store: only the enumerable coarse keys are planned.
        assert len(planned) == len(scenario.case.sweep)

    def test_storeless_planning_yields_coarse_keys_only(self):
        """Without a store (``repro ls`` on a cold catalogue) the
        plan is exactly the enumerable coarse keys of the battery."""
        profile = get_profile("curl", "7.88.1")
        battery = [scenario_by_name("v6-delay-sweep"),
                   scenario_by_name("v6-blackhole")]
        probe = ConformanceProbe(profile, battery=battery)
        planned = probe.plan().keys()
        expected = sum(len(s.case.sweep) * s.case.repetitions
                       for s in battery)
        assert len(planned) == expected
        assert len(set(planned)) == expected
