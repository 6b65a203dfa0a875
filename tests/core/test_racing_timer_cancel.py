"""The racing engine cancels superseded stagger/deadline timers.

Without cancellation, a resolved race would leave its deadline
``Timeout`` pending until it expired as a no-op, and draining the
simulator would advance the clock to that dead instant.  These tests
pin the behavior: after a race resolves, no timer stays pending and
draining the simulator never advances the clock to the dead deadline.
"""

from repro.core import ConnectionRacer, HETrace, rfc8305_stack
from repro.core.svcb import candidates_from_addresses
from repro.simnet import Network

LIVE_V6 = "2001:db8::10"
LIVE_V4 = "192.0.2.10"
DEAD_V6 = "2001:db8::dead"

FAR_DEADLINE = 30.0


def make_lab(seed=0):
    net = Network(seed=seed)
    segment = net.add_segment("lab", propagation_delay=0.0001)
    client = net.add_host("client")
    server = net.add_host("server")
    net.connect(client, segment, ["192.0.2.1", "2001:db8::1"])
    net.connect(server, segment, [LIVE_V4, LIVE_V6])
    server.tcp.listen(80)
    return net, client


def race(client, addresses, deadline=FAR_DEADLINE):
    racer = ConnectionRacer(client, rfc8305_stack().racing,
                            trace=HETrace())
    process = client.sim.process(
        racer.run(candidates_from_addresses(addresses, 80),
                  deadline=deadline))
    return client.sim.run_until(process)


class TestDeadlineCancellation:
    def test_resolved_race_frees_its_deadline_timer(self):
        net, client = make_lab()
        result = race(client, [LIVE_V6])
        assert result.success
        resolved_at = net.sim.now
        net.sim.run()  # drain: only connection-teardown residue left
        assert net.sim.now < resolved_at + 1.0
        assert net.sim.now < FAR_DEADLINE
        assert net.sim.pending_count == 0

    def test_staggered_race_frees_gate_and_deadline(self):
        """A race that exercised the stagger gate (first candidate
        dead, fallback wins) must also leave no timer behind."""
        net, client = make_lab()
        result = race(client, [DEAD_V6, LIVE_V4])
        assert result.success
        resolved_at = net.sim.now
        net.sim.run()
        assert net.sim.now < resolved_at + 1.0
        assert net.sim.pending_count == 0

    def test_deadline_still_fires_when_race_is_slow(self):
        """Cancellation must not lose live deadlines: with every
        candidate dead, the race still times out at the deadline."""
        import pytest
        from repro.core import RaceDeadlineExceeded
        net, client = make_lab()
        with pytest.raises(RaceDeadlineExceeded):
            race(client, [DEAD_V6], deadline=2.0)
        assert net.sim.now >= 2.0

    def test_many_races_do_not_accumulate_timers(self):
        """The campaign-scale motivation: serial races on one
        simulator leave zero pending timers between runs."""
        net, client = make_lab()
        for _ in range(10):
            result = race(client, [LIVE_V6, LIVE_V4])
            assert result.success
            net.sim.run()
            assert net.sim.pending_count == 0
