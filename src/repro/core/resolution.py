"""The HEv2/HEv3 resolution phase (RFC 8305 §3).

Turns the pair of asynchronously arriving AAAA/A answers into the
moment the client starts connecting, under one of three policies:

* the RFC's Resolution Delay state machine — start immediately when
  AAAA arrives first; if A arrives first, give AAAA a 50 ms grace
  period before going v4-only;
* ``WAIT_BOTH`` — what Chromium/Firefox/curl/wget actually do: no own
  timer at all, wait for both answers (i.e. inherit the resolver's
  timeout), the behaviour behind the §5.2 pathology;
* ``FIRST_USABLE`` — connect on the first answer that has addresses.

The phase is a generator meant to be driven inside an engine process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..simnet.addr import IPAddress
from ..simnet.scheduler import Simulator
from ..dns.rdata import RdataType
from ..dns.stub import DualLookup, StubAnswer
from .events import HEEventKind, HETrace
from .params import HEParams, ResolutionPolicy


@dataclass
class ResolutionOutcome:
    """What the resolution phase hands to the connection phase."""

    go_at: float
    trigger: str
    addresses: List[IPAddress] = field(default_factory=list)
    aaaa: Optional[StubAnswer] = None
    a: Optional[StubAnswer] = None
    dual: Optional[DualLookup] = None

    @property
    def has_addresses(self) -> bool:
        return bool(self.addresses)


def _collect(*answers: Optional[StubAnswer]) -> List[IPAddress]:
    """Addresses of all usable answers, AAAA contributions first."""
    out: List[IPAddress] = []
    for answer in answers:
        if answer is not None and answer.usable:
            out.extend(answer.addresses)
    return out


def resolve_addresses(sim: Simulator, dual: DualLookup, params: HEParams,
                      trace: Optional[HETrace] = None):
    """Generator driving the resolution phase; returns ResolutionOutcome.

    Must be iterated inside a simulator process (``yield from``).
    """
    policy = params.resolution_policy
    if policy is ResolutionPolicy.WAIT_BOTH:
        return (yield from _wait_both(sim, dual, trace))
    if policy is ResolutionPolicy.FIRST_USABLE:
        return (yield from _first_usable(sim, dual, trace))
    return (yield from _hev2_machine(sim, dual, params, trace))


def _record(trace: Optional[HETrace], sim: Simulator, kind: HEEventKind,
            **detail) -> None:
    if trace is not None:
        trace.record(sim.now, kind, **detail)


def _answer_detail(answer: StubAnswer) -> dict:
    return {
        "rtype": answer.rtype.name,
        "addresses": len(answer.addresses),
        "ok": answer.usable,
    }


def _wait_both(sim: Simulator, dual: DualLookup,
               trace: Optional[HETrace]):
    """Wait for both answers (or their inherited timeouts)."""
    first = yield sim.any_of([dual.aaaa, dual.a])
    for event in (dual.aaaa, dual.a):
        if event in first:
            _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                    **_answer_detail(event.value))
    remaining = [event for event in (dual.aaaa, dual.a)
                 if not event.triggered]
    for event in remaining:
        answer = yield event
        _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                **_answer_detail(answer))
    aaaa, a = dual.aaaa.value, dual.a.value
    return ResolutionOutcome(
        go_at=sim.now, trigger="both-answers",
        addresses=_collect(aaaa, a), aaaa=aaaa, a=a, dual=dual)


def _first_usable(sim: Simulator, dual: DualLookup,
                  trace: Optional[HETrace]):
    """Connect on the first answer carrying addresses."""
    pending = [dual.aaaa, dual.a]
    aaaa: Optional[StubAnswer] = None
    a: Optional[StubAnswer] = None
    while pending:
        yield sim.any_of([event for event in pending
                          if not event.triggered] or pending)
        for event in list(pending):
            if event.triggered:
                pending.remove(event)
                answer = event.value
                _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                        **_answer_detail(answer))
                if answer.rtype is RdataType.AAAA:
                    aaaa = answer
                else:
                    a = answer
                if answer.usable:
                    return ResolutionOutcome(
                        go_at=sim.now,
                        trigger=f"first-usable-{answer.rtype.name.lower()}",
                        addresses=list(answer.addresses),
                        aaaa=aaaa, a=a, dual=dual)
    return ResolutionOutcome(go_at=sim.now, trigger="no-usable-answer",
                             aaaa=aaaa, a=a, dual=dual)


def _hev2_machine(sim: Simulator, dual: DualLookup, params: HEParams,
                  trace: Optional[HETrace]):
    """RFC 8305 §3 Resolution Delay state machine."""
    rd = params.resolution_delay if params.resolution_delay is not None \
        else 0.050

    first = yield sim.any_of([dual.aaaa, dual.a])
    aaaa_arrived = dual.aaaa in first or dual.aaaa.triggered
    if aaaa_arrived:
        aaaa = dual.aaaa.value
        _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                **_answer_detail(aaaa))
        a = dual.a.value if dual.a.triggered else None
        if a is not None:
            _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                    **_answer_detail(a))
        if aaaa.usable:
            # AAAA first (or tied): start connecting immediately.
            return ResolutionOutcome(
                go_at=sim.now, trigger="aaaa-first",
                addresses=_collect(aaaa, a), aaaa=aaaa, a=a, dual=dual)
        # AAAA arrived but unusable: fall through to waiting for A.
        if a is None:
            a = yield dual.a
            _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                    **_answer_detail(a))
        return ResolutionOutcome(
            go_at=sim.now, trigger="aaaa-unusable",
            addresses=_collect(a), aaaa=aaaa, a=a, dual=dual)

    # A arrived first.
    a = dual.a.value
    _record(trace, sim, HEEventKind.ANSWER_RECEIVED, **_answer_detail(a))
    if not a.usable:
        # Nothing to fall back on yet; only AAAA can save this lookup.
        aaaa = yield dual.aaaa
        _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                **_answer_detail(aaaa))
        return ResolutionOutcome(
            go_at=sim.now, trigger="a-unusable",
            addresses=_collect(aaaa), aaaa=aaaa, a=a, dual=dual)

    _record(trace, sim, HEEventKind.RESOLUTION_DELAY_STARTED,
            delay_ms=rd * 1000.0)
    grace = sim.timeout(rd)
    raced = yield sim.any_of([dual.aaaa, grace])
    if dual.aaaa in raced or dual.aaaa.triggered:
        aaaa = dual.aaaa.value
        _record(trace, sim, HEEventKind.RESOLUTION_DELAY_CANCELLED)
        _record(trace, sim, HEEventKind.ANSWER_RECEIVED,
                **_answer_detail(aaaa))
        return ResolutionOutcome(
            go_at=sim.now, trigger="aaaa-within-rd",
            addresses=_collect(aaaa, a), aaaa=aaaa, a=a, dual=dual)
    _record(trace, sim, HEEventKind.RESOLUTION_DELAY_EXPIRED)
    return ResolutionOutcome(
        go_at=sim.now, trigger="rd-expired",
        addresses=_collect(a), aaaa=None, a=a, dual=dual)
