"""Unit tests for the staggered connection racing engine."""

import pytest

from repro.core import (AllAttemptsFailed, AttemptOutcome, ConnectionRacer,
                        HETrace, RaceDeadlineExceeded, rfc8305_stack)
from repro.core.svcb import ServiceCandidate, candidates_from_addresses
from repro.simnet import Family, Network, Protocol


def make_lab(seed=0, server_addresses=("192.0.2.10", "2001:db8::10")):
    net = Network(seed=seed)
    segment = net.add_segment("lab", propagation_delay=0.0001)
    client = net.add_host("client")
    server = net.add_host("server")
    net.connect(client, segment, ["192.0.2.1", "2001:db8::1"])
    net.connect(server, segment, list(server_addresses))
    server.tcp.listen(80)
    return net, client, server


def run_race(client, candidates, deadline=None):
    racer = ConnectionRacer(client, rfc8305_stack().racing,
                            trace=HETrace())
    process = client.sim.process(racer.run(candidates, deadline=deadline))
    return racer, process


LIVE_V6 = "2001:db8::10"
LIVE_V4 = "192.0.2.10"
DEAD_V6 = "2001:db8::dead"
DEAD_V4 = "203.0.113.99"


class TestStaggering:
    def test_single_candidate_wins_immediately(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([LIVE_V6], 80)
        _, process = run_race(client, candidates)
        result = net.sim.run_until(process)
        assert result.success
        assert result.winning_family is Family.V6
        assert len(result.attempts) == 1

    def test_second_attempt_starts_after_cad(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([DEAD_V6, LIVE_V4], 80)
        _, process = run_race(client, candidates)
        result = net.sim.run_until(process)
        assert result.winning_family is Family.V4
        gap = result.attempts[1].started_at - result.attempts[0].started_at
        assert gap == pytest.approx(0.250, abs=0.001)

    def test_fast_winner_prevents_second_attempt(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([LIVE_V6, LIVE_V4], 80)
        _, process = run_race(client, candidates)
        result = net.sim.run_until(process)
        assert len(result.attempts) == 1

    def test_loser_aborted_on_win(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([DEAD_V6, LIVE_V4], 80)
        _, process = run_race(client, candidates)
        result = net.sim.run_until(process)
        outcomes = {a.candidate.address: a.outcome
                    for a in result.attempts}
        assert outcomes[result.attempts[0].candidate.address] is \
            AttemptOutcome.ABORTED
        assert result.winning_attempt.outcome is AttemptOutcome.WON

    def test_refused_attempt_unblocks_next_immediately(self):
        # No listener on port 81: RST comes back in one RTT, and the
        # next attempt must start right away, not after the CAD.
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([LIVE_V6, LIVE_V4], 81)
        _, process = run_race(client, candidates)
        process.defused = True
        net.sim.run()
        result = process.exception.race_result
        gap = result.attempts[1].started_at - result.attempts[0].started_at
        assert gap < 0.010  # far less than the 250 ms CAD

    def test_all_fail_raises_with_partial_result(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([DEAD_V6, DEAD_V4], 80)
        racing = rfc8305_stack().racing
        racer = ConnectionRacer(client, racing, attempt_timeout=1.0)
        process = client.sim.process(racer.run(candidates))
        process.defused = True
        net.sim.run()
        assert isinstance(process.exception, AllAttemptsFailed)
        result = process.exception.race_result
        assert len(result.attempts) == 2
        assert all(a.outcome is AttemptOutcome.FAILED
                   for a in result.attempts)

    def test_deadline_aborts_everything(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([DEAD_V6, DEAD_V4], 80)
        _, process = run_race(client, candidates, deadline=0.700)
        process.defused = True
        net.sim.run(until=30.0)
        assert isinstance(process.exception, RaceDeadlineExceeded)
        result = process.exception.race_result
        assert all(a.outcome in (AttemptOutcome.ABORTED,
                                 AttemptOutcome.FAILED)
                   for a in result.attempts)


class TestLateCandidates:
    def test_added_candidates_join_the_race(self):
        net, client, _ = make_lab()
        candidates = candidates_from_addresses([DEAD_V6], 80)
        racer, process = run_race(client, candidates)
        net.sim.schedule(0.100, racer.add_candidates,
                         candidates_from_addresses([LIVE_V4], 80))
        result = net.sim.run_until(process)
        assert result.winning_family is Family.V4
        # The late candidate started once the CAD from attempt 0 passed.
        assert result.attempts[1].started_at == pytest.approx(0.250,
                                                              abs=0.002)

    def test_late_candidate_after_queue_drained(self):
        net, client, _ = make_lab()
        racing = rfc8305_stack().racing
        racer = ConnectionRacer(client, racing, attempt_timeout=5.0)
        process = client.sim.process(
            racer.run(candidates_from_addresses([DEAD_V6], 80)))
        # Queue empty, one active blackholed attempt; add a live one.
        net.sim.schedule(1.0, racer.add_candidates,
                         candidates_from_addresses([LIVE_V4], 80))
        result = net.sim.run_until(process)
        assert result.winning_family is Family.V4


class TestDynamicCadProvider:
    def test_custom_provider_controls_stagger(self):
        net, client, _ = make_lab()
        racing = rfc8305_stack().racing
        racer = ConnectionRacer(
            client, racing, cad_provider=lambda index, candidate: 0.050)
        process = client.sim.process(
            racer.run(candidates_from_addresses([DEAD_V6, LIVE_V4], 80)))
        result = net.sim.run_until(process)
        gap = result.attempts[1].started_at - result.attempts[0].started_at
        assert gap == pytest.approx(0.050, abs=0.001)

    def test_dynamic_cad_without_history_is_maximum(self):
        net, client, _ = make_lab()
        from repro.core import HistoryStore

        racing = rfc8305_stack().with_racing(dynamic_cad=True,
                                             maximum_cad=1.5).racing
        racer = ConnectionRacer(client, racing, history=HistoryStore())
        process = client.sim.process(
            racer.run(candidates_from_addresses([DEAD_V6, LIVE_V4], 80)))
        result = net.sim.run_until(process)
        gap = result.attempts[1].started_at - result.attempts[0].started_at
        assert gap == pytest.approx(1.5, abs=0.001)


class TestQuicCandidates:
    def test_quic_candidate_uses_quic_stack(self):
        net, client, server = make_lab()
        server.quic.listen(443)
        candidates = [ServiceCandidate(
            address=__import__("ipaddress").ip_address(LIVE_V6),
            protocol=Protocol.QUIC, port=443)]
        _, process = run_race(client, candidates)
        result = net.sim.run_until(process)
        assert result.winning_attempt.protocol is Protocol.QUIC

    def test_history_updated_on_win_and_failure(self):
        net, client, _ = make_lab()
        from repro.core import HistoryStore

        history = HistoryStore()
        racing = rfc8305_stack().racing
        # Attempt timeout below the CAD: the dead IPv6 attempt fails
        # (and is recorded) before the IPv4 attempt wins.
        racer = ConnectionRacer(client, racing, history=history,
                                attempt_timeout=0.2)
        process = client.sim.process(
            racer.run(candidates_from_addresses([DEAD_V6, LIVE_V4], 80)))
        result = net.sim.run_until(process)
        net.sim.run(until=net.sim.now + 1.0)
        import ipaddress

        assert history.srtt(ipaddress.ip_address(LIVE_V4),
                            net.sim.now) is not None
        entry = history.lookup(ipaddress.ip_address(DEAD_V6), net.sim.now)
        assert entry is not None and entry.failures >= 1
