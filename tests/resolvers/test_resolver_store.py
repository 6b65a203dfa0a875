"""Resolver campaigns through the content-addressed store (Table 3)."""

import dataclasses

import pytest

from repro.resolvers.models import BIND9, UNBOUND
from repro.resolvers.testbed import (decode_observation,
                                     encode_observation,
                                     resolver_campaign_keys,
                                     resolver_run_key,
                                     run_resolver_campaign)
from repro.testbed import CampaignStore

DELAYS = [0, 100]
REPS = 2


class TestObservationRoundTrip:
    def test_encode_decode_identity(self):
        campaign = run_resolver_campaign(BIND9, delays_ms=[0, 900],
                                         repetitions=1, seed=1)
        for observation in campaign.observations:
            assert decode_observation(
                encode_observation(observation)) == observation


class TestCampaignCaching:
    def test_cold_then_warm_identical(self, tmp_path):
        store = CampaignStore(tmp_path)
        cold = run_resolver_campaign(BIND9, delays_ms=DELAYS,
                                     repetitions=REPS, seed=3,
                                     store=store)
        assert store.stats.misses == len(DELAYS) * REPS
        assert store.stats.stores == len(DELAYS) * REPS
        warm_store = CampaignStore(tmp_path)
        warm = run_resolver_campaign(BIND9, delays_ms=DELAYS,
                                     repetitions=REPS, seed=3,
                                     store=warm_store)
        assert warm_store.stats.hits == len(DELAYS) * REPS
        assert warm_store.stats.misses == 0
        assert warm.observations == cold.observations

    def test_cached_equals_uncached(self, tmp_path):
        plain = run_resolver_campaign(UNBOUND, delays_ms=DELAYS,
                                      repetitions=REPS, seed=5)
        cached = run_resolver_campaign(UNBOUND, delays_ms=DELAYS,
                                       repetitions=REPS, seed=5,
                                       store=CampaignStore(tmp_path))
        assert cached.observations == plain.observations

    def test_grid_extension_reuses_overlap(self, tmp_path):
        """Runs are keyed by their own (delay, repetition), not the
        campaign grid — a denser grid replays the overlap."""
        run_resolver_campaign(BIND9, delays_ms=DELAYS, repetitions=REPS,
                              seed=3, store=CampaignStore(tmp_path))
        store = CampaignStore(tmp_path)
        run_resolver_campaign(BIND9, delays_ms=[0, 50, 100],
                              repetitions=REPS, seed=3, store=store)
        assert store.stats.hits == len(DELAYS) * REPS
        assert store.stats.misses == 1 * REPS  # only the 50 ms runs

    def test_behavior_change_misses(self):
        base = resolver_run_key(BIND9, 3, 100, 0)
        slower = dataclasses.replace(BIND9, attempt_timeout=1.2)
        assert resolver_run_key(slower, 3, 100, 0) != base
        assert resolver_run_key(BIND9, 4, 100, 0) != base
        assert resolver_run_key(BIND9, 3, 101, 0) != base
        assert resolver_run_key(BIND9, 3, 100, 1) != base

    def test_campaign_keys_enumerate_every_run(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_resolver_campaign(BIND9, delays_ms=DELAYS, repetitions=REPS,
                              seed=3, store=store)
        keys = resolver_campaign_keys(BIND9, DELAYS, REPS, 3)
        assert {key for key, _ in store.entries()} == set(keys)

    def test_campaign_keys_match_run_keys_in_order(self):
        """The campaign renders the behaviour once; every key must
        still equal the per-run formula."""
        for behavior in (BIND9, UNBOUND):
            assert resolver_campaign_keys(behavior, [0, 50, 100], 3, 7) == [
                resolver_run_key(behavior, 7, delay_ms, repetition)
                for delay_ms in (0, 50, 100) for repetition in range(3)]


class TestTable3Store:
    def test_warm_rerender_all_hits_and_identical_rows(self, tmp_path):
        from repro.analysis import table3_resolvers

        kwargs = dict(seed=2, share_repetitions=4, delay_repetitions=1,
                      delays_ms=[100])
        cold_store = CampaignStore(tmp_path)
        cold = table3_resolvers(store=cold_store, **kwargs)
        assert cold_store.stats.stores > 0
        warm_store = CampaignStore(tmp_path)
        warm = table3_resolvers(store=warm_store, **kwargs)
        assert warm_store.stats.misses == 0
        assert warm_store.stats.hits == cold_store.stats.misses
        for cold_row, warm_row in zip(cold, warm):
            assert warm_row.service == cold_row.service
            assert warm_row.aaaa_query == cold_row.aaaa_query
            assert warm_row.ipv6_share == cold_row.ipv6_share
            assert warm_row.max_ipv6_delay_ms == cold_row.max_ipv6_delay_ms
            assert warm_row.ipv6_packets == cold_row.ipv6_packets

    def test_store_keys_cover_the_warm_table(self, tmp_path):
        from repro.analysis import table3_resolvers, table3_store_keys

        kwargs = dict(seed=2, share_repetitions=4, delay_repetitions=1,
                      delays_ms=[100])
        store = CampaignStore(tmp_path)
        table3_resolvers(store=store, **kwargs)
        planned = set(table3_store_keys(seed=2, share_repetitions=4,
                                        delay_repetitions=1,
                                        delays_ms=[100]))
        on_disk = {key for key, _ in store.entries()}
        assert on_disk <= planned
