"""Unit tests for the resolution phase (RFC 8305 §3 state machine).

Uses hand-built answer events so each branch of the state machine can
be exercised with exact timing.
"""

import ipaddress

import pytest

from repro.core.events import HEEventKind, HETrace
from repro.core.params import ResolutionPolicy
from repro.core.policy import rfc8305_stack
from repro.core.resolution import resolve_addresses
from repro.dns.name import DNSName
from repro.dns.rdata import RdataType
from repro.dns.stub import StubAnswer
from repro.dns.errors import QueryTimeout
from repro.simnet import Simulator


class FakeDual:
    """A DualLookup stand-in with scriptable answer arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.aaaa = sim.event(name="fake-aaaa")
        self.a = sim.event(name="fake-a")
        self.started_at = sim.now

    def deliver(self, rtype, at, addresses=(), error=None):
        qname = DNSName.from_text("test.example")

        def fire():
            answer = StubAnswer(rtype=rtype, qname=qname,
                                asked_at=self.started_at,
                                answered_at=self.sim.now, error=error)
            if error is None:
                from repro.dns.message import DNSMessage

                answer.message = DNSMessage(id=1, qr=True)
                answer.addresses = [ipaddress.ip_address(a)
                                    for a in addresses]
            event = self.aaaa if rtype is RdataType.AAAA else self.a
            if not event.triggered:
                event.succeed(answer)

        self.sim.schedule(at, fire)


V6 = "2001:db8::1"
V4 = "192.0.2.1"


def run_machine(policy, script, overrides=None):
    """Run the machine against a scripted answer schedule."""
    sim = Simulator()
    dual = FakeDual(sim)
    for rtype, at, addresses, error in script:
        dual.deliver(rtype, at, addresses, error)
    stage = rfc8305_stack().with_resolution(
        mode=policy, **(overrides or {})).resolution
    trace = HETrace()

    def body():
        outcome = yield from resolve_addresses(sim, dual, stage, trace)
        return outcome

    process = sim.process(body())
    outcome = sim.run_until(process)
    return outcome, sim.now, trace


class TestHev2Machine:
    def test_aaaa_first_connects_immediately(self):
        outcome, now, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.AAAA, 0.010, [V6], None),
            (RdataType.A, 0.030, [V4], None),
        ])
        assert outcome.trigger == "aaaa-first"
        assert now == pytest.approx(0.010)
        assert [str(a) for a in outcome.addresses] == [V6]

    def test_simultaneous_answers_prefer_aaaa(self):
        outcome, now, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.AAAA, 0.010, [V6], None),
            (RdataType.A, 0.010, [V4], None),
        ])
        assert outcome.trigger == "aaaa-first"
        assert len(outcome.addresses) == 2
        # AAAA contribution leads the list.
        assert str(outcome.addresses[0]) == V6

    def test_a_first_waits_resolution_delay(self):
        outcome, now, trace = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.A, 0.010, [V4], None),
            (RdataType.AAAA, 0.500, [V6], None),
        ])
        assert outcome.trigger == "rd-expired"
        assert now == pytest.approx(0.060)  # A at 10 ms + RD 50 ms
        assert [str(a) for a in outcome.addresses] == [V4]
        kinds = [event.kind for event in trace]
        assert HEEventKind.RESOLUTION_DELAY_STARTED in kinds
        assert HEEventKind.RESOLUTION_DELAY_EXPIRED in kinds

    def test_aaaa_within_rd_cancels_the_wait(self):
        outcome, now, trace = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.A, 0.010, [V4], None),
            (RdataType.AAAA, 0.040, [V6], None),
        ])
        assert outcome.trigger == "aaaa-within-rd"
        assert now == pytest.approx(0.040)
        assert str(outcome.addresses[0]) == V6
        kinds = [event.kind for event in trace]
        assert HEEventKind.RESOLUTION_DELAY_CANCELLED in kinds

    def test_custom_rd_value(self):
        outcome, now, _ = run_machine(
            ResolutionPolicy.HE_V2,
            [(RdataType.A, 0.010, [V4], None),
             (RdataType.AAAA, 0.900, [V6], None)],
            overrides={"resolution_delay": 0.200})
        assert now == pytest.approx(0.210)

    def test_aaaa_empty_waits_for_a(self):
        outcome, now, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.AAAA, 0.010, [], None),  # NODATA
            (RdataType.A, 0.050, [V4], None),
        ])
        assert outcome.trigger == "aaaa-unusable"
        assert now == pytest.approx(0.050)
        assert [str(a) for a in outcome.addresses] == [V4]

    def test_aaaa_error_falls_back_to_a(self):
        outcome, _, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.AAAA, 0.010, [], QueryTimeout("t")),
            (RdataType.A, 0.020, [V4], None),
        ])
        assert outcome.trigger == "aaaa-unusable"
        assert outcome.has_addresses

    def test_a_unusable_waits_for_aaaa(self):
        outcome, now, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.A, 0.010, [], None),
            (RdataType.AAAA, 0.300, [V6], None),
        ])
        assert outcome.trigger == "a-unusable"
        assert now == pytest.approx(0.300)
        assert [str(a) for a in outcome.addresses] == [V6]

    def test_both_unusable_yields_no_addresses(self):
        outcome, _, _ = run_machine(ResolutionPolicy.HE_V2, [
            (RdataType.A, 0.010, [], None),
            (RdataType.AAAA, 0.020, [], None),
        ])
        assert not outcome.has_addresses


class TestWaitBoth:
    def test_waits_for_the_slower_answer(self):
        outcome, now, _ = run_machine(ResolutionPolicy.WAIT_BOTH, [
            (RdataType.AAAA, 0.010, [V6], None),
            (RdataType.A, 0.750, [V4], None),
        ])
        assert outcome.trigger == "both-answers"
        assert now == pytest.approx(0.750)
        assert len(outcome.addresses) == 2

    def test_slow_aaaa_also_stalls(self):
        outcome, now, _ = run_machine(ResolutionPolicy.WAIT_BOTH, [
            (RdataType.A, 0.010, [V4], None),
            (RdataType.AAAA, 1.200, [V6], None),
        ])
        assert now == pytest.approx(1.200)

    def test_error_counts_as_answered(self):
        outcome, now, _ = run_machine(ResolutionPolicy.WAIT_BOTH, [
            (RdataType.A, 0.010, [V4], None),
            (RdataType.AAAA, 0.400, [], QueryTimeout("t")),
        ])
        assert now == pytest.approx(0.400)
        assert [str(a) for a in outcome.addresses] == [V4]


class TestFirstUsable:
    def test_first_usable_wins_even_if_a(self):
        outcome, now, _ = run_machine(ResolutionPolicy.FIRST_USABLE, [
            (RdataType.A, 0.010, [V4], None),
            (RdataType.AAAA, 0.500, [V6], None),
        ])
        assert outcome.trigger == "first-usable-a"
        assert now == pytest.approx(0.010)

    def test_unusable_first_answer_skipped(self):
        outcome, now, _ = run_machine(ResolutionPolicy.FIRST_USABLE, [
            (RdataType.A, 0.010, [], None),
            (RdataType.AAAA, 0.200, [V6], None),
        ])
        assert outcome.trigger == "first-usable-aaaa"
        assert now == pytest.approx(0.200)

    def test_no_usable_answer_at_all(self):
        outcome, _, _ = run_machine(ResolutionPolicy.FIRST_USABLE, [
            (RdataType.A, 0.010, [], None),
            (RdataType.AAAA, 0.020, [], None),
        ])
        assert outcome.trigger == "no-usable-answer"
        assert not outcome.has_addresses
