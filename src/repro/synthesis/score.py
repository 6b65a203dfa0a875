"""Candidate scoring: behaviour signatures, disagreement, ablations.

A candidate is worth promoting when registered clients *behave
differently* under it.  The scorer builds every candidate round as a
regular :class:`~repro.testbed.runner.TestRunner` campaign (resolved
store-backed and worker-pooled by the one executor) against all
registered clients plus per-stage ablation
variants of a base profile, compresses each run into a categorical
:func:`behaviour signature <signature_of>`, and scores:

* **disagreement** — distinct signatures among registered clients
  (the fingerprint-disagreement count; ≥2 means the candidate
  discriminates);
* **failures** — clients that never establish while at least one
  does (the MUST-level deviation a promoted scenario will flag — the
  new-deviation discovery axis);
* **ablation drift** — how many single-stage edits of the base
  profile (``with_resolution``/``with_sorting``/``with_racing``
  one-liners) change its signature, i.e. how many policy stages the
  candidate is sensitive to.

Everything is a pure function of the run records, so serial, parallel,
and warm-store scoring are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..clients.profile import ClientProfile
from ..testbed.runner import RunRecord, TestRunner
from .space import Candidate, ScenarioSpace

#: The policy stages an ablation pass perturbs, in report order.
ABLATION_STAGES = ("resolution", "sorting", "racing")


def signature_of(record: RunRecord) -> str:
    """One run compressed to its categorical wire behaviour.

    Only stable, discrete observables enter the signature (families,
    protocol, HTTPS query, port, QUIC attempts, establishment) — no
    raw timings, so a signature difference is a *behavioural*
    difference, not measurement noise.
    """
    first = record.first_attempt_family
    est = record.winning_family
    proto = record.winning_protocol
    return (f"first={first.label if first else '-'}"
            f" est={est.label if est else 'none'}"
            f" proto={proto.value if proto else '-'}"
            f" https={'y' if record.queried_https else 'n'}"
            f" port={record.first_attempt_port or '-'}"
            f" quic={'y' if record.attempts_quic else 'n'}")


def ablation_variants(base: ClientProfile
                      ) -> "Tuple[Tuple[str, ClientProfile], ...]":
    """Three single-stage edits of ``base``, one per policy stage.

    Each variant toggles exactly one stage knob (SVCB consumption,
    the RFC 6724-vs-3484 sortlist, QUIC racing) via the stack's
    ``with_*`` one-liners and takes a ``~stage`` version suffix, so
    its runs digest to their own store keys and its records are
    self-describing in the campaign stream.
    """
    stack = base.stack
    sortlist = stack.sorting.sortlist
    edited = (
        ("resolution", stack.with_resolution(
            use_svcb=not stack.resolution.use_svcb)),
        ("sorting", stack.with_sorting(
            sortlist="rfc3484" if sortlist != "rfc3484" else "rfc6724")),
        ("racing", stack.with_racing(
            race_quic=not stack.racing.race_quic)),
    )
    return tuple(
        (stage, replace(base.with_stack(new_stack),
                        version=f"{base.version}~{stage}"))
        for stage, new_stack in edited)


@dataclass(frozen=True)
class CandidateScore:
    """One scored candidate: signatures and the derived score axes."""

    candidate: Candidate
    #: ``(client full_name, signature)`` for registered clients, in
    #: registry order.
    signatures: Tuple[Tuple[str, str], ...]
    #: Stages whose ablated base profile changed signature.
    ablation_drift: Tuple[str, ...]
    disagreement: int
    failures: int

    @property
    def total(self) -> int:
        """Lexicographic-by-construction: disagreement dominates, then
        failure discovery, then per-stage sensitivity."""
        return (self.disagreement * 100 + self.failures * 10
                + len(self.ablation_drift))

    @property
    def discriminating(self) -> bool:
        """≥2 registered clients behave differently."""
        return self.disagreement >= 2

    def as_dict(self) -> Dict[str, object]:
        return {
            "digest": self.candidate.digest,
            "params": self.candidate.as_dict(),
            "disagreement": self.disagreement,
            "failures": self.failures,
            "ablation_drift": list(self.ablation_drift),
            "total": self.total,
            "signatures": {client: signature
                           for client, signature in self.signatures},
        }


def rank(scores: "Sequence[CandidateScore]") -> "List[CandidateScore]":
    """Best first; equal totals tie-break by candidate digest, so the
    ranking is deterministic under any evaluation order."""
    return sorted(scores,
                  key=lambda s: (-s.total, s.candidate.digest))


class Scorer:
    """Runs candidate cases and derives :class:`CandidateScore`s."""

    def __init__(self, space: ScenarioSpace,
                 profiles: "Sequence[ClientProfile]", seed: int = 0,
                 ablation_base: "Optional[ClientProfile]" = None) -> None:
        if not profiles:
            raise ValueError("scorer needs at least one client profile")
        self.space = space
        self.profiles = list(profiles)
        self.seed = seed
        self.ablations = (ablation_variants(ablation_base)
                          if ablation_base is not None else ())
        # The campaign client list: registered clients, the ablation
        # base (when it is not already registered — drift needs its
        # reference signature), then the ablated variants.  Order is
        # load-bearing: records arrive in enumeration order and are
        # attributed by position.
        self.base = ablation_base
        self._runner_clients = list(self.profiles)
        if (ablation_base is not None
                and not any(p.full_name == ablation_base.full_name
                            for p in self.profiles)):
            self._runner_clients.append(ablation_base)
        self._runner_clients.extend(p for _, p in self.ablations)

    # -- campaign plumbing -----------------------------------------------------

    def runner_for(self, candidates: "Sequence[Candidate]") -> TestRunner:
        """One scoring round's campaign: every candidate case against
        the campaign client list."""
        cases = [self.space.case_for(c) for c in candidates]
        return TestRunner(self._runner_clients, cases, seed=self.seed)

    # -- scoring ---------------------------------------------------------------

    def score_records(self, candidates: "Sequence[Candidate]",
                      records: "Sequence[RunRecord]"
                      ) -> "List[CandidateScore]":
        """Pure scoring of a round's records (enumeration order:
        case-major, client-minor — each case's block is one client
        list pass, single sweep value, single repetition)."""
        per_case = len(self._runner_clients)
        if len(records) != len(candidates) * per_case:
            raise ValueError(
                f"expected {len(candidates) * per_case} records "
                f"({len(candidates)} candidates x {per_case} clients), "
                f"got {len(records)}")
        scores = []
        for i, candidate in enumerate(candidates):
            block = records[i * per_case:(i + 1) * per_case]
            scores.append(self._score_block(candidate, block))
        return scores

    def _score_block(self, candidate: Candidate,
                     block: "Sequence[RunRecord]") -> CandidateScore:
        by_client = {profile.full_name: signature_of(record)
                     for profile, record in zip(self._runner_clients,
                                                block)}
        established = {
            profile.full_name: record.winning_family is not None
            for profile, record in zip(self._runner_clients, block)}
        signatures = tuple((p.full_name, by_client[p.full_name])
                           for p in self.profiles)
        distinct = len({signature for _, signature in signatures})
        any_established = any(established[p.full_name]
                              for p in self.profiles)
        failures = sum(1 for p in self.profiles
                       if any_established
                       and not established[p.full_name])
        drift: "List[str]" = []
        if self.base is not None:
            reference = by_client[self.base.full_name]
            for stage, variant in self.ablations:
                if by_client[variant.full_name] != reference:
                    drift.append(stage)
        return CandidateScore(candidate=candidate,
                              signatures=signatures,
                              ablation_drift=tuple(drift),
                              disagreement=distinct,
                              failures=failures)
