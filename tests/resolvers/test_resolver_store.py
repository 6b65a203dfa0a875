"""Resolver campaigns through the content-addressed store (Table 3)."""

import dataclasses

import pytest

from repro.experiments import Session
from repro.resolvers.models import BIND9, UNBOUND
from repro.resolvers.testbed import (decode_observation,
                                     encode_observation,
                                     resolver_campaign_plan,
                                     run_resolver_campaign)
from repro.seeding import stable_run_seed
from repro.testbed import CampaignStore

DELAYS = [0, 100]
REPS = 2


class TestObservationRoundTrip:
    def test_encode_decode_identity(self):
        campaign = run_resolver_campaign(BIND9, delays_ms=[0, 900],
                                         repetitions=1,
                                         session=Session(seed=1))
        for observation in campaign.observations:
            assert decode_observation(
                encode_observation(observation)) == observation


class TestCampaignCaching:
    def test_cold_then_warm_identical(self, tmp_path):
        store = CampaignStore(tmp_path)
        cold = run_resolver_campaign(BIND9, delays_ms=DELAYS,
                                     repetitions=REPS,
                                     session=Session(seed=3, store=store))
        assert store.metrics.misses == len(DELAYS) * REPS
        assert store.metrics.stores == len(DELAYS) * REPS
        warm_store = CampaignStore(tmp_path)
        warm = run_resolver_campaign(
            BIND9, delays_ms=DELAYS, repetitions=REPS,
            session=Session(seed=3, store=warm_store))
        assert warm_store.metrics.hits == len(DELAYS) * REPS
        assert warm_store.metrics.misses == 0
        assert warm.observations == cold.observations

    def test_cached_equals_uncached(self, tmp_path):
        plain = run_resolver_campaign(UNBOUND, delays_ms=DELAYS,
                                      repetitions=REPS,
                                      session=Session(seed=5))
        cached = run_resolver_campaign(
            UNBOUND, delays_ms=DELAYS, repetitions=REPS,
            session=Session(seed=5, store=CampaignStore(tmp_path)))
        assert cached.observations == plain.observations

    def test_grid_extension_reuses_overlap(self, tmp_path):
        """Runs are keyed by their own (delay, repetition), not the
        campaign grid — a denser grid replays the overlap."""
        run_resolver_campaign(
            BIND9, delays_ms=DELAYS, repetitions=REPS,
            session=Session(seed=3, store=CampaignStore(tmp_path)))
        store = CampaignStore(tmp_path)
        run_resolver_campaign(BIND9, delays_ms=[0, 50, 100],
                              repetitions=REPS,
                              session=Session(seed=3, store=store))
        assert store.metrics.hits == len(DELAYS) * REPS
        assert store.metrics.misses == 1 * REPS  # only the 50 ms runs

    def test_behavior_change_misses(self):
        def run_key(behavior, seed, delay_ms, repetition):
            plan = resolver_campaign_plan(behavior, [delay_ms],
                                          repetition + 1, seed)
            return plan[repetition].key

        base = run_key(BIND9, 3, 100, 0)
        slower = dataclasses.replace(BIND9, attempt_timeout=1.2)
        assert run_key(slower, 3, 100, 0) != base
        assert run_key(BIND9, 4, 100, 0) != base
        assert run_key(BIND9, 3, 101, 0) != base
        assert run_key(BIND9, 3, 100, 1) != base

    def test_campaign_keys_enumerate_every_run(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_resolver_campaign(BIND9, delays_ms=DELAYS, repetitions=REPS,
                              session=Session(seed=3, store=store))
        keys = resolver_campaign_plan(BIND9, DELAYS, REPS, 3).keys()
        assert {key for key, _ in store.entries()} == set(keys)

    def test_campaign_keys_match_run_keys_in_order(self):
        """The plan renders the behaviour once; every entry's seed and
        key must still equal the per-run formula, in run order."""
        for behavior in (BIND9, UNBOUND):
            plan = resolver_campaign_plan(behavior, [0, 50, 100], 3, 7)
            coordinates = [(delay_ms, repetition)
                           for delay_ms in (0, 50, 100)
                           for repetition in range(3)]
            assert [(e.delay_ms, e.repetition) for e in plan] == coordinates
            for entry in plan:
                run_seed = stable_run_seed(7, behavior.name, entry.delay_ms,
                                           entry.repetition)
                assert entry.run_seed == run_seed
                assert entry.key == CampaignStore.key(
                    "resolver-run", behavior, run_seed, entry.delay_ms,
                    entry.repetition)


class TestTable3Store:
    def test_warm_rerender_all_hits_and_identical_rows(self, tmp_path):
        from repro.analysis import table3_resolvers

        kwargs = dict(share_repetitions=4, delay_repetitions=1,
                      delays_ms=[100])
        cold_store = CampaignStore(tmp_path)
        cold = table3_resolvers(session=Session(seed=2, store=cold_store),
                                **kwargs)
        assert cold_store.metrics.stores > 0
        warm_store = CampaignStore(tmp_path)
        warm = table3_resolvers(session=Session(seed=2, store=warm_store),
                                **kwargs)
        assert warm_store.metrics.misses == 0
        assert warm_store.metrics.hits == cold_store.metrics.misses
        for cold_row, warm_row in zip(cold, warm):
            assert warm_row.service == cold_row.service
            assert warm_row.aaaa_query == cold_row.aaaa_query
            assert warm_row.ipv6_share == cold_row.ipv6_share
            assert warm_row.max_ipv6_delay_ms == cold_row.max_ipv6_delay_ms
            assert warm_row.ipv6_packets == cold_row.ipv6_packets

    def test_plan_covers_the_warm_table(self, tmp_path):
        from repro.analysis import table3_plan, table3_resolvers

        store = CampaignStore(tmp_path)
        table3_resolvers(share_repetitions=4, delay_repetitions=1,
                         delays_ms=[100],
                         session=Session(seed=2, store=store))
        planned = set(table3_plan(seed=2, share_repetitions=4,
                                  delay_repetitions=1,
                                  delays_ms=[100]).keys())
        on_disk = {key for key, _ in store.entries()}
        assert on_disk <= planned
