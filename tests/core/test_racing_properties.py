"""Property-based tests for Happy Eyeballs racing invariants.

These run full races on generated scenarios (random IPv6 delay, random
CAD) and check the invariants the algorithm must uphold regardless of
parameters — the "shape" guarantees behind Figure 2.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import rfc8305_stack
from repro.core.engine import HappyEyeballsEngine
from repro.core.racing import AttemptOutcome, ConnectionRacer
from repro.core.svcb import candidates_from_addresses
from repro.dns.stub import StubResolver
from repro.simnet import Family, Network
from repro.testbed.topology import LocalTestbed

# Keep hypothesis example counts moderate: each example is a full
# simulated connection establishment.
SCENARIOS = settings(max_examples=25, deadline=None)


def run_connect(v6_delay_ms: int, cad_ms: int, seed: int):
    testbed = LocalTestbed(seed=seed)
    testbed.delay_ipv6_tcp(v6_delay_ms / 1000.0)
    stack = rfc8305_stack().with_racing(
        connection_attempt_delay=cad_ms / 1000.0)
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    engine = HappyEyeballsEngine(testbed.client, stub, stack)
    capture = testbed.start_client_capture()
    result = testbed.sim.run_until(
        engine.connect("www.he-test.example"))
    return result, capture


class TestRaceInvariants:
    @given(st.integers(min_value=0, max_value=600),
           st.integers(min_value=50, max_value=500),
           st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_connection_always_establishes(self, delay_ms, cad_ms, seed):
        result, _ = run_connect(delay_ms, cad_ms, seed)
        assert result.success

    @given(st.integers(min_value=0, max_value=600),
           st.integers(min_value=50, max_value=500),
           st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_winner_family_matches_delay_vs_cad(self, delay_ms, cad_ms,
                                                seed):
        """IPv6 wins iff its handshake beats the CAD (±handshake time)."""
        result, _ = run_connect(delay_ms, cad_ms, seed)
        margin = 2  # ms; propagation + scheduling epsilon
        if delay_ms + margin < cad_ms:
            assert result.winning_family is Family.V6
        elif delay_ms > cad_ms + margin:
            assert result.winning_family is Family.V4

    @given(st.integers(min_value=0, max_value=600),
           st.integers(min_value=50, max_value=500),
           st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_first_attempt_is_always_ipv6(self, delay_ms, cad_ms, seed):
        """The preferred family leads, no matter the outcome."""
        result, capture = run_connect(delay_ms, cad_ms, seed)
        attempts = capture.connection_attempts()
        assert attempts[0].packet.family is Family.V6

    @given(st.integers(min_value=0, max_value=600),
           st.integers(min_value=50, max_value=500),
           st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_ipv4_never_attempted_before_cad(self, delay_ms, cad_ms,
                                             seed):
        """Monotonicity: the fallback never fires early."""
        _, capture = run_connect(delay_ms, cad_ms, seed)
        first_v6 = capture.first_connection_attempt(Family.V6)
        first_v4 = capture.first_connection_attempt(Family.V4)
        if first_v4 is not None:
            observed_cad = first_v4.timestamp - first_v6.timestamp
            assert observed_cad >= cad_ms / 1000.0 - 0.001

    @given(st.integers(min_value=0, max_value=600),
           st.integers(min_value=50, max_value=500),
           st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_time_to_connect_bounded(self, delay_ms, cad_ms, seed):
        """TTC <= min(v6 handshake, CAD + v4 handshake) + epsilon."""
        result, _ = run_connect(delay_ms, cad_ms, seed)
        bound = min(delay_ms, cad_ms + 2) / 1000.0 + 0.005
        assert result.time_to_connect <= bound

    @given(st.integers(min_value=0, max_value=10))
    @SCENARIOS
    def test_exactly_one_winner(self, seed):
        net = Network(seed=seed)
        segment = net.add_segment("lab")
        client = net.add_host("client")
        server = net.add_host("server")
        net.connect(client, segment, ["192.0.2.1", "2001:db8::1"])
        net.connect(server, segment, ["192.0.2.10", "2001:db8::10"])
        server.tcp.listen(80)
        racer = ConnectionRacer(client, rfc8305_stack().racing)
        candidates = candidates_from_addresses(
            ["2001:db8::10", "192.0.2.10"], 80)
        process = client.sim.process(racer.run(candidates))
        result = net.sim.run_until(process)
        winners = [a for a in result.attempts
                   if a.outcome is AttemptOutcome.WON]
        assert len(winners) == 1
