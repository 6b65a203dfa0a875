"""Tests for RFC 6555 §4.1 outcome caching inside the engine."""

import pytest

from repro.core import OutcomeCache, rfc8305_stack
from repro.core.engine import HappyEyeballsEngine
from repro.dns.stub import StubResolver
from repro.simnet import Family
from repro.testbed.topology import LocalTestbed


def make_engine(testbed, cache=None):
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    return HappyEyeballsEngine(testbed.client, stub, rfc8305_stack(),
                               cache=cache)


class TestOutcomeCacheBias:
    def test_cached_v4_win_biases_next_attempt(self):
        """After IPv4 wins once, the next connection leads with IPv4."""
        testbed = LocalTestbed(seed=71)
        testbed.delay_ipv6_tcp(0.600)  # IPv6 slow: IPv4 wins round one
        engine = make_engine(testbed)
        first = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert first.winning_family is Family.V4

        capture = testbed.start_client_capture()
        second = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert second.winning_family is Family.V4
        # The *first* attempt of round two is IPv4 — no 250 ms paid.
        first_attempt = capture.connection_attempts()[0]
        assert first_attempt.packet.family is Family.V4
        assert second.time_to_connect < 0.010

    def test_cache_expiry_restores_v6_preference(self):
        testbed = LocalTestbed(seed=72)
        cache = OutcomeCache(ttl=600.0)
        testbed.delay_ipv6_tcp(0.600)
        engine = make_engine(testbed, cache=cache)
        testbed.sim.run_until(engine.connect("www.he-test.example"))

        # Ten minutes later the cache entry has expired; IPv6 (now
        # healthy again) leads once more.
        testbed.clear_shaping()
        testbed.sim.run(until=testbed.sim.now + 601.0)
        capture = testbed.start_client_capture()
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        assert result.winning_family is Family.V6
        assert capture.connection_attempts()[0].packet.family is Family.V6

    def test_cache_records_trace_event(self):
        testbed = LocalTestbed(seed=73)
        engine = make_engine(testbed)
        testbed.sim.run_until(engine.connect("www.he-test.example"))
        result = testbed.sim.run_until(
            engine.connect("www.he-test.example"))
        from repro.core.events import HEEventKind

        assert result.trace.first_of(HEEventKind.CACHE_HIT) is not None

    def test_distinct_hostnames_not_conflated(self):
        testbed = LocalTestbed(seed=74)
        engine = make_engine(testbed)
        testbed.sim.run_until(engine.connect("a.he-test.example"))
        assert engine.cache.lookup("b.he-test.example",
                                   testbed.sim.now) is None
