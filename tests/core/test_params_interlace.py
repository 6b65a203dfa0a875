"""Tests for the Table 1 presets, stage checks, interlacing, sortlist,
and the outcome cache."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.core import (HEVersion, HistoryStore, InterlaceStrategy,
                        OutcomeCache, RacingStage, SortingStage,
                        apply_interlace, hev3_draft_stack,
                        interlace_first_family_burst, interlace_rfc8305,
                        interlace_sequential, order_addresses,
                        rfc6555_stack, rfc8305_stack)
from repro.simnet import Family, family_of


def v6(i):
    return ipaddress.IPv6Address(f"2001:db8::{i:x}")


def v4(i):
    return ipaddress.IPv4Address(f"192.0.2.{i}")


class TestParams:
    def test_rfc_presets_match_table1(self):
        v1, v2, v3 = rfc6555_stack(), rfc8305_stack(), hev3_draft_stack()
        assert v1.version is HEVersion.V1
        assert v1.resolution.resolution_delay is None
        assert v1.racing.connection_attempt_delay == pytest.approx(0.250)
        assert v2.resolution.resolution_delay == pytest.approx(0.050)
        assert v2.racing.connection_attempt_delay == pytest.approx(0.250)
        assert (v2.racing.minimum_cad, v2.racing.recommended_cad,
                v2.racing.maximum_cad) == (
            pytest.approx(0.010), pytest.approx(0.100), pytest.approx(2.0))
        assert v3.racing.race_quic and v3.resolution.use_svcb
        assert v3.resolution.resolution_delay == pytest.approx(0.050)

    def test_invalid_cad_rejected(self):
        with pytest.raises(ValueError):
            RacingStage(connection_attempt_delay=0.0)

    def test_invalid_dynamic_bounds_rejected(self):
        with pytest.raises(ValueError):
            RacingStage(minimum_cad=0.5, recommended_cad=0.1)

    def test_invalid_fafc_rejected(self):
        with pytest.raises(ValueError):
            SortingStage(first_address_family_count=0)

    def test_clamp_dynamic_cad(self):
        racing = RacingStage()
        assert racing.clamp_dynamic_cad(0.001) == pytest.approx(0.010)
        assert racing.clamp_dynamic_cad(5.0) == pytest.approx(2.0)
        assert racing.clamp_dynamic_cad(0.3) == pytest.approx(0.3)


class TestInterlace:
    def test_rfc8305_fafc1_alternates(self):
        out = interlace_rfc8305([v6(1), v6(2), v4(1), v4(2)], Family.V6, 1)
        families = [family_of(a) for a in out]
        assert families == [Family.V6, Family.V4, Family.V6, Family.V4]

    def test_rfc8305_fafc2_leads_with_two(self):
        out = interlace_rfc8305(
            [v6(1), v6(2), v6(3), v4(1), v4(2)], Family.V6, 2)
        families = [family_of(a) for a in out]
        assert families[:3] == [Family.V6, Family.V6, Family.V4]

    def test_rfc8305_handles_uneven_lists(self):
        out = interlace_rfc8305([v6(1), v4(1), v4(2), v4(3)], Family.V6, 1)
        assert [family_of(a) for a in out] == [
            Family.V6, Family.V4, Family.V4, Family.V4]

    def test_safari_burst_pattern_matches_figure5(self):
        addrs = [v6(i) for i in range(1, 11)] + [v4(i) for i in range(1, 11)]
        out = interlace_first_family_burst(addrs, Family.V6, 2)
        families = [family_of(a) for a in out]
        # v6 x2, v4 x1, v6 x8, v4 x9 — 20 attempts total (App. D).
        expected = ([Family.V6] * 2 + [Family.V4] + [Family.V6] * 8
                    + [Family.V4] * 9)
        assert families == expected

    def test_sequential_no_interlace(self):
        out = interlace_sequential([v4(1), v6(1), v4(2), v6(2)], Family.V6)
        assert [family_of(a) for a in out] == [
            Family.V6, Family.V6, Family.V4, Family.V4]

    def test_apply_dispatches(self):
        addrs = [v6(1), v4(1)]
        assert apply_interlace(addrs, InterlaceStrategy.RFC8305)
        assert apply_interlace(addrs, InterlaceStrategy.FIRST_FAMILY_BURST)
        assert apply_interlace(addrs, InterlaceStrategy.SEQUENTIAL)

    def test_first_count_must_be_positive(self):
        with pytest.raises(ValueError):
            interlace_rfc8305([v6(1)], Family.V6, 0)


_addr_lists = st.tuples(
    st.integers(0, 8), st.integers(0, 8)).map(
        lambda counts: ([v6(i + 1) for i in range(counts[0])]
                        + [v4(i + 1) for i in range(counts[1])]))


class TestInterlaceProperties:
    @given(_addr_lists, st.integers(1, 4),
           st.sampled_from(list(InterlaceStrategy)))
    def test_interlace_preserves_all_addresses(self, addrs, fafc, strategy):
        out = apply_interlace(addrs, strategy, Family.V6, fafc)
        assert sorted(map(str, out)) == sorted(map(str, addrs))

    @given(_addr_lists, st.integers(1, 4))
    def test_rfc8305_prefix_is_preferred_family(self, addrs, fafc):
        out = interlace_rfc8305(addrs, Family.V6, fafc)
        v6_total = sum(1 for a in addrs if family_of(a) is Family.V6)
        prefix = min(fafc, v6_total)
        assert all(family_of(a) is Family.V6 for a in out[:prefix])

    @given(_addr_lists)
    def test_rfc8305_no_starvation(self, addrs):
        """No family waits more than FAFC+1 slots for its first attempt."""
        out = interlace_rfc8305(addrs, Family.V6, 1)
        v4_count = sum(1 for a in addrs if family_of(a) is Family.V4)
        if v4_count and len(out) >= 2:
            first_v4 = next(i for i, a in enumerate(out)
                            if family_of(a) is Family.V4)
            assert first_v4 <= 1

    @given(_addr_lists)
    def test_safari_burst_v4_position(self, addrs):
        out = interlace_first_family_burst(addrs, Family.V6, 2)
        v6_count = sum(1 for a in addrs if family_of(a) is Family.V6)
        v4_count = len(addrs) - v6_count
        if v4_count and v6_count >= 2:
            first_v4 = next(i for i, a in enumerate(out)
                            if family_of(a) is Family.V4)
            assert first_v4 == 2


class TestOrderAddresses:
    def test_preferred_family_first(self):
        out = order_addresses([v4(1), v6(1)], preferred_family=Family.V6)
        assert family_of(out[0]) is Family.V6

    def test_dns_order_is_tiebreaker(self):
        out = order_addresses([v6(3), v6(1), v6(2)])
        assert [str(a) for a in out] == [str(v6(3)), str(v6(1)), str(v6(2))]

    def test_history_promotes_fast_addresses(self):
        history = HistoryStore()
        history.record_success(v6(2), rtt=0.010, now=0.0)
        history.record_success(v6(1), rtt=0.200, now=0.0)
        out = order_addresses([v6(1), v6(2)], history=history, now=1.0)
        assert str(out[0]) == str(v6(2))

    def test_failed_addresses_demoted(self):
        history = HistoryStore()
        history.record_failure(v6(1), now=0.0)
        out = order_addresses([v6(1), v6(2)], history=history, now=1.0)
        assert str(out[0]) == str(v6(2))

    def test_stale_history_ignored(self):
        history = HistoryStore(max_age=10.0)
        history.record_failure(v6(1), now=0.0)
        out = order_addresses([v6(1), v6(2)], history=history, now=100.0)
        assert str(out[0]) == str(v6(1))

    def test_v4_preference_possible(self):
        out = order_addresses([v6(1), v4(1)], preferred_family=Family.V4)
        assert family_of(out[0]) is Family.V4


class TestHistoryStore:
    def test_srtt_smoothing(self):
        history = HistoryStore()
        history.record_success(v6(1), rtt=0.100, now=0.0)
        history.record_success(v6(1), rtt=0.200, now=1.0)
        srtt = history.srtt(v6(1), now=2.0)
        assert 0.100 < srtt < 0.200

    def test_expiry(self):
        history = HistoryStore(max_age=5.0)
        history.record_success(v6(1), rtt=0.1, now=0.0)
        assert history.srtt(v6(1), now=4.0) is not None
        assert history.srtt(v6(1), now=6.0) is None

    def test_clear(self):
        history = HistoryStore()
        history.record_success(v6(1), 0.1, 0.0)
        history.clear()
        assert len(history) == 0


class TestOutcomeCache:
    def test_record_and_lookup(self):
        cache = OutcomeCache(ttl=600.0)
        cache.record("example.com", v6(1), now=0.0)
        outcome = cache.lookup("example.com", now=100.0)
        assert outcome is not None
        assert outcome.family is Family.V6

    def test_expiry_after_ttl(self):
        cache = OutcomeCache(ttl=600.0)
        cache.record("example.com", v6(1), now=0.0)
        assert cache.lookup("example.com", now=601.0) is None

    def test_case_insensitive_hostnames(self):
        cache = OutcomeCache()
        cache.record("Example.COM", v4(1), now=0.0)
        assert cache.lookup("example.com", now=1.0) is not None

    def test_lru_eviction(self):
        cache = OutcomeCache(capacity=2)
        cache.record("a.example", v4(1), now=0.0)
        cache.record("b.example", v4(2), now=0.0)
        cache.record("c.example", v4(3), now=0.0)
        assert "a.example" not in cache
        assert "b.example" in cache

    def test_hit_miss_counters(self):
        cache = OutcomeCache()
        cache.lookup("missing.example", now=0.0)
        cache.record("hit.example", v4(1), now=0.0)
        cache.lookup("hit.example", now=1.0)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_invalidate(self):
        cache = OutcomeCache()
        cache.record("x.example", v4(1), now=0.0)
        cache.invalidate("x.example")
        assert cache.lookup("x.example", now=0.0) is None

    def test_purge_expired(self):
        cache = OutcomeCache(ttl=10.0)
        cache.record("old.example", v4(1), now=0.0)
        cache.record("new.example", v4(2), now=5.0)
        assert cache.purge_expired(now=12.0) == 1
        assert len(cache) == 1

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            OutcomeCache(ttl=0)
