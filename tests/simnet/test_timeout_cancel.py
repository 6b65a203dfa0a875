"""Timeout.cancel: a cancelled expiry never runs or moves the clock."""

from repro.simnet import Simulator


class TestTimeoutCancel:
    def test_cancel_removes_pending_expiry(self):
        sim = Simulator()
        timer = sim.timeout(5.0)
        assert sim.pending_count == 1
        assert timer.cancel() is True
        assert sim.pending_count == 0
        sim.run()
        assert sim.now == 0.0  # nothing left to advance the clock
        assert not timer.triggered

    def test_cancelled_timeout_never_fires_callbacks(self):
        sim = Simulator()
        fired = []
        timer = sim.timeout(1.0)
        timer.add_callback(fired.append)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_expiry_is_a_noop(self):
        sim = Simulator()
        timer = sim.timeout(1.0)
        sim.run()
        assert timer.triggered
        assert timer.cancel() is False

    def test_double_cancel_reports_false(self):
        sim = Simulator()
        timer = sim.timeout(1.0)
        assert timer.cancel() is True
        assert timer.cancel() is False

    def test_cancel_leaves_other_timers_alone(self):
        sim = Simulator()
        keep = sim.timeout(2.0)
        drop = sim.timeout(1.0)
        drop.cancel()
        sim.run()
        assert sim.now == 2.0
        assert keep.triggered
        assert not drop.triggered
