"""The generate-probe-score loop: seeding, refinement, promotion.

Mirrors the conformance probe's coarse→fine template at search scale:
a seeded *grid round* scatters candidates over the whole space, then
*refinement rounds* walk one-step neighbourhoods around the current
best scorers.  Every probe of every round is a regular campaign run
with a regular store key, so the whole search replays from cache —
and because seeding streams are per-dimension and per-index
(:meth:`ScenarioSpace.sample`), a denser budget *extends* the
candidate list instead of reshuffling it, replaying every overlapping
key of a smaller run.

The rounds are one stage loop (:meth:`SynthesisSearch.stages`), which
planning drives against the store and execution through the executor:
the seeding round is known statically and always planned; refinement
rounds depend on scores, so they are planned *only* when every record
of the previous round is already cached — a cold plan is the seeding
round, a warm plan is the whole search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..testbed.parallel import (Plan, PlanCursor, StageDriver,
                                execute_stages, plan_stages)
from .promote import Promoter, Promotion
from .score import CandidateScore, Scorer, rank
from .space import Candidate, ScenarioSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.base import Session
    from ..testbed.store import CampaignStore


@dataclass(frozen=True)
class SearchBudget:
    """How much of the space one search traverses."""

    #: Seeded grid candidates in round 0.
    seeds: int = 32
    #: Local-refinement rounds after the grid round.
    rounds: int = 2
    #: High scorers whose neighbourhoods each refinement round walks.
    top: int = 6
    #: Neighbour candidates admitted per high scorer per round.
    neighbors: int = 8

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"budget.seeds must be >= 1: {self.seeds!r}")
        if self.rounds < 0:
            raise ValueError(
                f"budget.rounds must be >= 0: {self.rounds!r}")
        if self.top < 1:
            raise ValueError(f"budget.top must be >= 1: {self.top!r}")
        if self.neighbors < 1:
            raise ValueError(
                f"budget.neighbors must be >= 1: {self.neighbors!r}")


class SearchStrategy:
    """Coarse grid seeding → local refinement, fully seeded."""

    def __init__(self, space: ScenarioSpace, seed: int,
                 budget: SearchBudget) -> None:
        self.space = space
        self.seed = seed
        self.budget = budget

    def seed_round(self) -> "List[Candidate]":
        """Round 0: the first ``budget.seeds`` grid samples, deduped
        preserving order (per-index streams make this prefix-stable
        under any larger seed budget)."""
        out: "List[Candidate]" = []
        seen = set()
        for index in range(self.budget.seeds):
            candidate = self.space.sample(self.seed, index)
            if candidate.digest not in seen:
                seen.add(candidate.digest)
                out.append(candidate)
        return out

    def refine(self, pool: "Dict[str, CandidateScore]"
               ) -> "List[Candidate]":
        """One refinement round: one-step neighbours of the current
        ``budget.top`` best scorers, up to ``budget.neighbors`` fresh
        candidates each, in rank × move order — purely a function of
        the scored pool, so any execution order converges to the same
        proposal list."""
        proposals: "List[Candidate]" = []
        proposed = set(pool)
        for parent in rank(list(pool.values()))[:self.budget.top]:
            admitted = 0
            for neighbor in self.space.neighbors(parent.candidate):
                if admitted >= self.budget.neighbors:
                    break
                if neighbor.digest in proposed:
                    continue
                proposed.add(neighbor.digest)
                proposals.append(neighbor)
                admitted += 1
        return proposals


@dataclass(frozen=True)
class RoundReport:
    """One executed round, for the rendered search log."""

    index: int
    kind: str  # "seed" | "refine"
    evaluated: int
    best_total: int
    best_digest: str


@dataclass(frozen=True)
class SearchResult:
    """Everything a search produced, in deterministic order."""

    seed: int
    budget: SearchBudget
    rounds: Tuple[RoundReport, ...]
    #: All scored candidates, best first (digest tie-break).
    ranked: Tuple[CandidateScore, ...]
    promotions: Tuple[Promotion, ...]

    @property
    def evaluated(self) -> int:
        return len(self.ranked)

    @property
    def discriminating(self) -> int:
        return sum(1 for score in self.ranked if score.discriminating)


class SynthesisSearch:
    """Drives strategy + scorer + promoter through the full loop."""

    def __init__(self, space: ScenarioSpace, strategy: SearchStrategy,
                 scorer: Scorer, promoter: Promoter) -> None:
        self.space = space
        self.strategy = strategy
        self.scorer = scorer
        self.promoter = promoter

    def _rounds(self) -> "Iterator[Tuple[int, str]]":
        yield 0, "seed"
        for round_index in range(1, self.strategy.budget.rounds + 1):
            yield round_index, "refine"

    def stages(self) -> StageDriver:
        """The search's one stage loop: the seeding round, then each
        refinement round proposed from the scores so far."""
        pool: "Dict[str, CandidateScore]" = {}
        reports: "List[RoundReport]" = []
        candidates = self.strategy.seed_round()
        for round_index, kind in self._rounds():
            fresh = [c for c in candidates if c.digest not in pool]
            if not fresh:
                break
            last = round_index >= self.strategy.budget.rounds
            records = yield self.scorer.runner_for(fresh), last
            for score in self.scorer.score_records(fresh, records):
                pool[score.candidate.digest] = score
            best = rank(list(pool.values()))[0]
            reports.append(RoundReport(
                index=round_index, kind=kind, evaluated=len(fresh),
                best_total=best.total,
                best_digest=best.candidate.digest))
            if last:
                break
            candidates = self.strategy.refine(pool)
        ranked = tuple(rank(list(pool.values())))
        promotions = tuple(self.promoter.promote(ranked,
                                                 self.strategy.seed))
        return SearchResult(seed=self.strategy.seed,
                            budget=self.strategy.budget,
                            rounds=tuple(reports), ranked=ranked,
                            promotions=promotions)

    def execute(self, session: "Optional[Session]" = None,
                cursor: "Optional[PlanCursor]" = None) -> SearchResult:
        """Run the search under ``session``, taking each round from the
        plan ``cursor`` walks where planning reached it."""
        return execute_stages(self.stages(), session, cursor)

    def plan(self, store: "Optional[CampaignStore]" = None) -> Plan:
        """Every run the search will touch, without executing: the
        refinement rounds only as far as ``store`` holds their
        predecessors."""
        return plan_stages([self.stages()], store)
