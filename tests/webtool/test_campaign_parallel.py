"""Parallel web campaigns: identity with serial, determinism, guards."""

import pytest

from repro.experiments import Session
from repro.webtool import UAEntry, WebCampaign

ENTRIES = (UAEntry("Linux", "", "Chrome", "130.0.0"),
           UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"),
           UAEntry("Linux", "", "Firefox", "132.0"))


class TestParallelWebCampaign:
    def test_serial_and_parallel_sessions_identical(self):
        campaign = WebCampaign(seed=7, repetitions=3)
        serial = campaign.run(entries=ENTRIES)
        parallel = campaign.run(entries=ENTRIES, session=Session(workers=2))
        assert serial.sessions == parallel.sessions

    def test_independent_of_process_history(self):
        """Re-running the same campaign in one process must not drift."""
        campaign = WebCampaign(seed=8, repetitions=2)
        first = campaign.run(entries=ENTRIES)
        second = campaign.run(entries=ENTRIES)
        assert first.sessions == second.sessions

    def test_rejects_bad_worker_count(self):
        campaign = WebCampaign(seed=9, repetitions=1)
        with pytest.raises(ValueError):
            campaign.run(entries=ENTRIES, session=Session(workers=0))


class TestWebCampaignStore:
    def test_warm_rerun_identical_and_all_hits(self, tmp_path):
        from repro.testbed import CampaignStore

        campaign = WebCampaign(seed=11, repetitions=2)
        cold_store = CampaignStore(tmp_path)
        cold = campaign.run(entries=ENTRIES,
                            session=Session(store=cold_store))
        assert cold_store.metrics.hits == 0
        assert cold_store.metrics.stores == len(ENTRIES)

        warm_store = CampaignStore(tmp_path)
        warm = campaign.run(entries=ENTRIES,
                            session=Session(store=warm_store))
        assert warm_store.metrics.hits == len(ENTRIES)
        assert warm_store.metrics.misses == 0
        assert warm.sessions == cold.sessions

    def test_cached_equals_uncached(self, tmp_path):
        from repro.testbed import CampaignStore

        campaign = WebCampaign(seed=12, repetitions=2)
        fresh = campaign.run(entries=ENTRIES)
        campaign.run(entries=ENTRIES,
                     session=Session(store=CampaignStore(tmp_path)))
        cached = campaign.run(
            entries=ENTRIES, session=Session(store=CampaignStore(tmp_path)))
        assert cached.sessions == fresh.sessions

    def test_seed_or_repetition_change_misses(self, tmp_path):
        from repro.testbed import CampaignStore

        WebCampaign(seed=13, repetitions=2).run(
            entries=ENTRIES, session=Session(store=CampaignStore(tmp_path)))
        reseeded_store = CampaignStore(tmp_path)
        WebCampaign(seed=14, repetitions=2).run(
            entries=ENTRIES, session=Session(store=reseeded_store))
        assert reseeded_store.metrics.hits == 0
        more_reps_store = CampaignStore(tmp_path)
        WebCampaign(seed=13, repetitions=3).run(
            entries=ENTRIES, session=Session(store=more_reps_store))
        assert more_reps_store.metrics.hits == 0


class TestWorkersValidation:
    def test_table2_rejects_zero_workers(self):
        from repro.analysis import table2_features

        with pytest.raises(ValueError):
            table2_features(session=Session(workers=0))

    def test_table3_rejects_zero_workers(self):
        from repro.analysis import table3_resolvers

        with pytest.raises(ValueError):
            table3_resolvers(session=Session(workers=-1))
