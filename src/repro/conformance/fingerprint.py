"""Fingerprint assembly: scenario outcomes → RFC 8305 verdicts.

The verdicts are strictly black-box: every ``measured`` value comes
from wire observables (the :class:`~repro.testbed.runner.RunRecord`
fields the capture inference produced), and the profile's declared
parameters appear only as the ``nominal`` column the measurement is
checked against — exactly the paper's Table 1-vs-measured comparison.
Deviation flags carry the RFC 8305 requirement level: a client that
cannot reach a dual-stack host with IPv6 blackholed violates a MUST;
a 300 ms CAD merely deviates from the SHOULD-level recommendation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from statistics import median
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..clients.profile import ClientProfile
from ..experiments.base import Session
from ..simnet.addr import Family
from ..testbed.runner import RunRecord
from .probe import ConformanceProbe, ScenarioOutcome
from .scenarios import RFC8305Parameter, SYNTH_PREFIX, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed.parallel import PlanCursor

#: RFC 8305 §5: recommended fixed CAD and its hard bounds.
RECOMMENDED_CAD_MS = 250.0
MIN_CAD_MS = 10.0
MAX_CAD_MS = 2000.0
#: RFC 8305 §3: recommended Resolution Delay.
RECOMMENDED_RD_MS = 50.0
#: Tolerance when comparing a measured value against a recommendation
#: (simulated timings are sharp; this absorbs capture granularity).
RECOMMENDATION_TOLERANCE_MS = 10.0
#: An IPv4 attempt starting less than this after the A answer (with
#: the AAAA answer still outstanding for another second) means the
#: client implements the Resolution Delay rather than waiting.
RD_IMPLEMENTED_THRESHOLD_MS = 500.0


class Requirement(enum.Enum):
    """RFC 2119 requirement level of a deviation."""

    MUST = "MUST"
    SHOULD = "SHOULD"


@dataclass(frozen=True)
class Deviation:
    """One RFC 8305 deviation observed on the wire."""

    requirement: Requirement
    clause: str
    description: str


@dataclass
class ParameterVerdict:
    """One scenario's verdict on one RFC 8305 parameter."""

    parameter: RFC8305Parameter
    scenario: str
    implemented: Optional[bool] = None
    measured_ms: Optional[float] = None
    nominal_ms: Optional[float] = None
    detail: str = ""

    @property
    def delta_ms(self) -> Optional[float]:
        if self.measured_ms is None or self.nominal_ms is None:
            return None
        return self.measured_ms - self.nominal_ms


@dataclass
class ClientFingerprint:
    """The assembled conformance report for one client."""

    client: str
    engine_family: str
    scenarios_run: List[str] = field(default_factory=list)
    verdicts: List[ParameterVerdict] = field(default_factory=list)
    deviations: List[Deviation] = field(default_factory=list)

    def verdict_for(self, parameter: RFC8305Parameter,
                    scenario: Optional[str] = None
                    ) -> Optional[ParameterVerdict]:
        for verdict in self.verdicts:
            if verdict.parameter is parameter and (
                    scenario is None or verdict.scenario == scenario):
                return verdict
        return None

    @property
    def must_deviations(self) -> List[Deviation]:
        return [d for d in self.deviations
                if d.requirement is Requirement.MUST]

    @property
    def should_deviations(self) -> List[Deviation]:
        return [d for d in self.deviations
                if d.requirement is Requirement.SHOULD]


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def fingerprint_client(profile: ClientProfile,
                       session: Optional[Session] = None,
                       battery: "Optional[Sequence[Scenario]]" = None,
                       cursor: "Optional[PlanCursor]" = None
                       ) -> ClientFingerprint:
    """Probe one client with the battery under ``session`` (seeded by
    ``session.seed``) and assemble its fingerprint, taking each stage
    from the plan ``cursor`` walks, when given."""
    session = session or Session()
    probe = ConformanceProbe(profile, seed=session.seed, battery=battery)
    return assemble_fingerprint(profile, probe.run(session, cursor))


def outcomes_from_records(battery: "Sequence[Scenario]",
                          records: "Sequence[RunRecord]"
                          ) -> "List[ScenarioOutcome]":
    """Bucket pre-recorded runs into scenario outcomes (replay path).

    Any recorded campaign — a store replay, a results file, another
    session's probe — can be fingerprinted without re-executing, as
    long as its case names match the battery's.
    """
    by_case: Dict[str, List[RunRecord]] = {}
    for record in records:
        by_case.setdefault(record.case, []).append(record)
    outcomes = []
    for scenario in battery:
        bucket = sorted(by_case.get(scenario.case.name, []),
                        key=lambda r: (r.value_ms, r.repetition))
        outcomes.append(ScenarioOutcome(scenario=scenario, records=bucket))
    return outcomes


def assemble_fingerprint(profile: ClientProfile,
                         outcomes: "Sequence[ScenarioOutcome]"
                         ) -> ClientFingerprint:
    """Turn scenario outcomes into verdicts and deviation flags."""
    fingerprint = ClientFingerprint(client=profile.full_name,
                                    engine_family=profile.engine_family)
    for outcome in outcomes:
        fingerprint.scenarios_run.append(outcome.scenario.name)
        # Synthesized scenarios compose arbitrary dimension mixes, so
        # the hand-written judges' scenario-name branches do not apply
        # — a generic reachability judge covers all of them.
        if outcome.scenario.name.startswith(SYNTH_PREFIX):
            _judge_synthesized(fingerprint, profile, outcome)
            continue
        judge = _JUDGES.get(outcome.scenario.discriminates)
        if judge is not None:
            judge(fingerprint, profile, outcome)
    return fingerprint


# --------------------------------------------------------------------------
# per-parameter judges
# --------------------------------------------------------------------------


def _deviate(fingerprint: ClientFingerprint, requirement: Requirement,
             clause: str, description: str) -> None:
    fingerprint.deviations.append(
        Deviation(requirement=requirement, clause=clause,
                  description=description))


def _judge_cad(fingerprint: ClientFingerprint, profile: ClientProfile,
               outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    cads = [r.cad_s for r in outcome.records if r.cad_s is not None]
    fallback_seen = any(r.winning_family is Family.V4
                        for r in outcome.records)
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.CONNECTION_ATTEMPT_DELAY,
        scenario=scenario.name)
    verdict.implemented = bool(cads) and fallback_seen
    nominal = profile.nominal_cad  # None for dynamic/serial/no-HE stacks
    if nominal is not None:
        verdict.nominal_ms = nominal * 1000.0
    if verdict.implemented:
        verdict.measured_ms = median(cads) * 1000.0
        crossover = outcome.crossover_ms
        parts = []
        if crossover is not None:
            parts.append(f"IPv6 up to {crossover} ms")
        if outcome.refined_window_ms is not None:
            lo, hi = outcome.refined_window_ms
            parts.append(f"refined {lo}-{hi} ms")
        if outcome.flap_window_ms is not None:
            parts.append("coarse series flapped")
        verdict.detail = "; ".join(parts)
    else:
        verdict.detail = ("no IPv4 fallback observed across the sweep"
                          if not fallback_seen else "no CAD measurable")
    fingerprint.verdicts.append(verdict)

    # Deviation flags only from the primary (jitter-free) sweep; the
    # jittery variant cross-checks stability in its detail column.
    if scenario.name != "v6-delay-sweep":
        base = fingerprint.verdict_for(
            RFC8305Parameter.CONNECTION_ATTEMPT_DELAY, "v6-delay-sweep")
        if (base is not None and base.measured_ms is not None
                and verdict.measured_ms is not None):
            drift = verdict.measured_ms - base.measured_ms
            stable = abs(drift) <= 30.0
            note = (f"{'stable' if stable else 'UNSTABLE'} under jitter "
                    f"(drift {drift:+.1f} ms)")
            verdict.detail = (verdict.detail + "; " + note
                              if verdict.detail else note)
        return
    if not verdict.implemented:
        sweep_hi = max(scenario.case.sweep)
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"no IPv4 race observed with IPv6 delayed up to "
                 f"{sweep_hi} ms (CAD absent or beyond the sweep)")
        return
    measured = verdict.measured_ms
    if measured < MIN_CAD_MS or measured > MAX_CAD_MS:
        _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                 f"CAD {measured:.0f} ms outside the {MIN_CAD_MS:.0f} ms"
                 f"-{MAX_CAD_MS:.0f} ms bounds")
    elif abs(measured - RECOMMENDED_CAD_MS) > RECOMMENDATION_TOLERANCE_MS:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"CAD {measured:.0f} ms differs from the recommended "
                 f"{RECOMMENDED_CAD_MS:.0f} ms")


def _judge_rd(fingerprint: ClientFingerprint, profile: ClientProfile,
              outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.RESOLUTION_DELAY,
        scenario=scenario.name)
    rds = [r.rd_s for r in outcome.records if r.rd_s is not None]
    nominal = profile.nominal_rd
    if nominal is not None:
        verdict.nominal_ms = nominal * 1000.0
    if not rds:
        verdict.implemented = False
        verdict.detail = "no IPv4 attempt during the held-back AAAA"
    else:
        rd_ms = median(rds) * 1000.0
        verdict.implemented = rd_ms < RD_IMPLEMENTED_THRESHOLD_MS
        if verdict.implemented:
            verdict.measured_ms = rd_ms
            verdict.detail = f"IPv4 started {rd_ms:.0f} ms after the A answer"
        else:
            verdict.detail = (f"waited {rd_ms:.0f} ms after the A answer "
                              "(no Resolution Delay; resolver-paced)")
    fingerprint.verdicts.append(verdict)
    if not verdict.implemented:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 "does not implement the Resolution Delay (waits for "
                 "the AAAA answer instead of starting IPv4 ~50 ms "
                 "after the A answer)")
    elif abs(verdict.measured_ms
             - RECOMMENDED_RD_MS) > RECOMMENDATION_TOLERANCE_MS:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"Resolution Delay {verdict.measured_ms:.0f} ms differs "
                 f"from the recommended {RECOMMENDED_RD_MS:.0f} ms")


def _judge_resolution_policy(fingerprint: ClientFingerprint,
                             profile: ClientProfile,
                             outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.RESOLUTION_POLICY,
        scenario=scenario.name)
    waits = [r.time_to_first_attempt_s for r in outcome.records
             if r.time_to_first_attempt_s is not None]
    if not waits:
        verdict.detail = "no connection attempt observed"
    else:
        wait_ms = median(waits) * 1000.0
        verdict.measured_ms = wait_ms
        verdict.implemented = wait_ms < RD_IMPLEMENTED_THRESHOLD_MS
        verdict.detail = (
            f"first attempt {wait_ms:.0f} ms after the first query"
            + ("" if verdict.implemented
               else " — stalled on the held-back A answer"))
    fingerprint.verdicts.append(verdict)
    if verdict.implemented is False:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 "waits for both DNS answers before connecting: a "
                 "delayed A answer stalls healthy IPv6 (the §5.2 "
                 "pathology)")


def _judge_first_family(fingerprint: ClientFingerprint,
                        profile: ClientProfile,
                        outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.FIRST_ADDRESS_FAMILY,
        scenario=scenario.name)
    aaaa_first = [r.aaaa_first for r in outcome.records
                  if r.aaaa_first is not None]
    winners = [r.winning_family for r in outcome.records
               if r.winning_family is not None]
    v6_prefers = winners.count(Family.V6)
    queries_aaaa_first = bool(aaaa_first) and all(aaaa_first)
    prefers_v6 = bool(winners) and v6_prefers * 2 >= len(winners)
    verdict.implemented = queries_aaaa_first and prefers_v6
    parts = []
    if aaaa_first:
        parts.append("AAAA queried first"
                     if queries_aaaa_first else "A queried first")
    if winners:
        parts.append(f"established {winners[0].label} on pristine "
                     "dual stack under 300 ms DNS latency")
    verdict.detail = "; ".join(parts)
    fingerprint.verdicts.append(verdict)
    if aaaa_first and not queries_aaaa_first:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 "sends the A query before the AAAA query")
    if winners and not prefers_v6:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 "prefers IPv4 although IPv6 is fully healthy")


def _judge_fallback(fingerprint: ClientFingerprint,
                    profile: ClientProfile,
                    outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    verdict = ParameterVerdict(parameter=RFC8305Parameter.FALLBACK,
                               scenario=scenario.name)
    winners = [r.winning_family for r in outcome.records
               if r.winning_family is not None]
    established = len(winners)
    total = len(outcome.records)
    durations = [r.duration_s for r in outcome.records
                 if r.duration_s is not None]
    if durations:
        verdict.measured_ms = median(durations) * 1000.0
    if scenario.name == "v6-blackhole":
        verdict.implemented = bool(winners) and all(
            family is Family.V4 for family in winners)
        if not verdict.implemented:
            verdict.detail = "never reached the host with IPv6 blackholed"
        elif verdict.measured_ms is not None:
            verdict.detail = ("reached the host via IPv4 in "
                              f"{verdict.measured_ms:.0f} ms")
        else:
            verdict.detail = "reached the host via IPv4"
        if not verdict.implemented:
            _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                     "cannot reach a dual-stack host whose IPv6 path "
                     "is blackholed (no IPv4 fallback)")
    elif scenario.name == "v6-reorder":
        spurious = sum(1 for family in winners if family is Family.V4)
        verdict.implemented = established == total and spurious == 0
        verdict.detail = (f"{established}/{total} established, "
                          f"{spurious} spurious IPv4 fallbacks under "
                          "25 % reordering")
        if established == total and spurious:
            _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                     "falls back to IPv4 although reordered IPv6 "
                     "completes well inside its own CAD")
    else:  # rate-limited-v6
        verdict.implemented = established == total and total > 0
        family = winners[0].label if winners else "none"
        verdict.detail = (f"established via {family} with IPv6 "
                          "serialized at 1 kbit/s")
        if not verdict.implemented:
            _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                     "fails to connect when the IPv6 path is "
                     "rate-limited instead of racing IPv4")
    fingerprint.verdicts.append(verdict)


def _judge_retry(fingerprint: ClientFingerprint, profile: ClientProfile,
                 outcome: ScenarioOutcome) -> None:
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.RETRY_ROBUSTNESS,
        scenario=scenario.name)
    established = sum(1 for r in outcome.records
                      if r.winning_family is not None)
    total = len(outcome.records)
    verdict.implemented = total > 0 and established == total
    durations = [r.duration_s for r in outcome.records
                 if r.duration_s is not None]
    if durations:
        verdict.measured_ms = median(durations) * 1000.0
    verdict.detail = (f"{established}/{total} repetitions established "
                      "under 40 % IPv6 loss")
    fingerprint.verdicts.append(verdict)
    if not verdict.implemented:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"connection setup not robust to asymmetric loss "
                 f"({established}/{total} repetitions established)")


def _judge_protocol_racing(fingerprint: ClientFingerprint,
                           profile: ClientProfile,
                           outcome: ScenarioOutcome) -> None:
    """HEv3 racing stage: QUIC raced when advertised, TCP fallback
    when the QUIC path dies."""
    from ..simnet.packet import Protocol

    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.PROTOCOL_RACING,
        scenario=scenario.name)
    raced = any(r.attempts_quic > 0 for r in outcome.records)
    winners = [r.winning_protocol for r in outcome.records
               if r.winning_protocol is not None]
    established = len(winners)
    total = len(outcome.records)
    declares_quic = profile.stack.racing.race_quic
    durations = [r.duration_s for r in outcome.records
                 if r.duration_s is not None]
    if durations:
        verdict.measured_ms = median(durations) * 1000.0
    if scenario.name == "quic-advertised":
        verdict.implemented = bool(raced and winners and all(
            protocol is Protocol.QUIC for protocol in winners))
        if verdict.implemented:
            verdict.detail = "raced QUIC and established over it"
        elif raced:
            verdict.detail = "raced QUIC but established over TCP"
        else:
            verdict.detail = "never attempted QUIC (TCP only)"
    else:  # quic-blackholed
        survived = established == total and total > 0 and all(
            protocol is Protocol.TCP for protocol in winners)
        verdict.implemented = raced and survived
        if verdict.implemented:
            verdict.detail = ("raced QUIC into the blackhole, fell "
                              "back to TCP")
        elif raced:
            verdict.detail = "raced QUIC but never completed over TCP"
        else:
            verdict.detail = "no QUIC attempt (plain TCP connect)"
        if declares_quic and raced and not survived:
            _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                     "cannot reach the host over TCP when the "
                     "advertised QUIC path is blackholed")
        if total and established != total:
            _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                     f"only {established}/{total} repetitions "
                     "established with QUIC blackholed")
    fingerprint.verdicts.append(verdict)
    if declares_quic and not raced:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 "declares QUIC racing but never attempted QUIC "
                 "although the HTTPS record advertised h3")


def _judge_svcb(fingerprint: ClientFingerprint, profile: ClientProfile,
                outcome: ScenarioOutcome) -> None:
    """HEv3 resolution stage: SVCB/HTTPS record consumption."""
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.SVCB_DISCOVERY,
        scenario=scenario.name)
    queried = [r.queried_https for r in outcome.records]
    asked = bool(queried) and all(queried)
    declares_svcb = profile.stack.resolution.use_svcb
    if scenario.name == "https-query":
        verdict.implemented = asked
        verdict.detail = ("sent the HTTPS (type-65) query" if asked
                          else "never asked for HTTPS records")
    else:  # svcb-alt-port
        advertised = scenario.case.service.https_port
        ports = [r.first_attempt_port for r in outcome.records
                 if r.first_attempt_port is not None]
        honored = bool(ports) and all(port == advertised
                                      for port in ports)
        verdict.implemented = asked and honored
        if verdict.implemented:
            verdict.detail = f"connected to the advertised :{advertised}"
        elif asked:
            verdict.detail = (f"queried HTTPS but connected to "
                              f":{ports[0] if ports else '?'}")
            if declares_svcb:
                _deviate(fingerprint, Requirement.SHOULD,
                         scenario.rfc_clause,
                         f"consumes HTTPS records but ignores the "
                         f"advertised port {advertised}")
        else:
            verdict.detail = (f"stayed on :{ports[0]}" if ports
                              else "no attempt observed")
    fingerprint.verdicts.append(verdict)


def _judge_sorting(fingerprint: ClientFingerprint, profile: ClientProfile,
                   outcome: ScenarioOutcome) -> None:
    """Sorting stage: which sortlist ordered the destination set.

    RFC 6724's table puts IPv4 (precedence 35) above every special
    prefix the battery serves, so the conforming first attempt is
    IPv4; a legacy RFC 3484 ordering leads with the special-prefix
    IPv6 destination instead.
    """
    scenario = outcome.scenario
    verdict = ParameterVerdict(
        parameter=RFC8305Parameter.DESTINATION_SORTING,
        scenario=scenario.name)
    first_families = [r.first_attempt_family for r in outcome.records
                      if r.first_attempt_family is not None]
    established = sum(1 for r in outcome.records
                      if r.winning_family is not None)
    total = len(outcome.records)
    if not first_families:
        verdict.detail = "no connection attempt observed"
        fingerprint.verdicts.append(verdict)
        return
    leads_v4 = all(family is Family.V4 for family in first_families)
    verdict.implemented = leads_v4
    prefix = scenario.name.split("-vs-")[0]
    verdict.detail = (
        f"first attempt {first_families[0].label} "
        f"({'RFC 6724 order' if leads_v4 else f'{prefix} above IPv4'}); "
        f"{established}/{total} established")
    fingerprint.verdicts.append(verdict)
    if not leads_v4:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"destination sorting ranks {prefix} space above "
                 "IPv4 (legacy RFC 3484 sortlist, not the RFC 6724 "
                 "default policy table)")


def _judge_synthesized(fingerprint: ClientFingerprint,
                       profile: ClientProfile,
                       outcome: ScenarioOutcome) -> None:
    """Generic judge for search-promoted (``synth-``) scenarios.

    A synthesized scenario is an arbitrary dimension mix without a
    per-scenario expectation table, so the verdict is the black-box
    floor every mix shares: the host is dual-stack and at least one
    path is viable, so a conforming client establishes *something*.
    Never establishing under the mix is the MUST-level deviation the
    search scored as a failure discovery; partial establishment across
    repetitions is SHOULD-level robustness drift.
    """
    scenario = outcome.scenario
    verdict = ParameterVerdict(parameter=scenario.discriminates,
                               scenario=scenario.name)
    winners = [r.winning_family for r in outcome.records
               if r.winning_family is not None]
    established = len(winners)
    total = len(outcome.records)
    verdict.implemented = total > 0 and established == total
    durations = [r.duration_s for r in outcome.records
                 if r.duration_s is not None]
    if durations:
        verdict.measured_ms = median(durations) * 1000.0
    family = winners[0].label if winners else "none"
    verdict.detail = (f"{established}/{total} established "
                      f"(first winner {family}) under synthesized mix")
    fingerprint.verdicts.append(verdict)
    if total and established == 0:
        _deviate(fingerprint, Requirement.MUST, scenario.rfc_clause,
                 f"never reached the dual-stack host under the "
                 f"synthesized impairment mix {scenario.name}")
    elif total and established < total:
        _deviate(fingerprint, Requirement.SHOULD, scenario.rfc_clause,
                 f"only {established}/{total} repetitions established "
                 f"under the synthesized impairment mix {scenario.name}")


_JUDGES = {
    RFC8305Parameter.CONNECTION_ATTEMPT_DELAY: _judge_cad,
    RFC8305Parameter.RESOLUTION_DELAY: _judge_rd,
    RFC8305Parameter.RESOLUTION_POLICY: _judge_resolution_policy,
    RFC8305Parameter.FIRST_ADDRESS_FAMILY: _judge_first_family,
    RFC8305Parameter.FALLBACK: _judge_fallback,
    RFC8305Parameter.RETRY_ROBUSTNESS: _judge_retry,
    RFC8305Parameter.PROTOCOL_RACING: _judge_protocol_racing,
    RFC8305Parameter.SVCB_DISCOVERY: _judge_svcb,
    RFC8305Parameter.DESTINATION_SORTING: _judge_sorting,
}
