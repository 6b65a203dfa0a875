"""The registered synthesis experiments.

``synthesize-scenarios`` runs the full generate-probe-score loop and
renders the promoted discriminators; ``synthesize-report`` goes one
step further and fingerprints every selected client against the
promoted battery — the "what did the search buy us" view.  Both are
plain :class:`~repro.experiments.base.Experiment`\\ s: pure ``plan()``
(cache gc liveness + service admission), store-backed ``execute()``
(cold==warm byte-identical, serial==parallel), deterministic
``render()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from ..experiments.base import Artifact, Experiment, Knob, Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed.parallel import Plan
    from .search import SearchBudget, SearchResult, SynthesisSearch

#: The default ablation base: the draft reference client consumes
#: SVCB, sorts by RFC 6724, and races QUIC — every single-stage edit
#: is observable against it.
DEFAULT_ABLATION_BASE = "hev3-reference"


def _resolve_clients(selector: str) -> List:
    """Profiles for a (possibly comma-separated) client selector."""
    from ..experiments.catalog import _fingerprint_profiles

    profiles: List = []
    seen = set()
    for part in selector.split(","):
        for profile in _fingerprint_profiles(part.strip()):
            if profile.full_name not in seen:
                seen.add(profile.full_name)
                profiles.append(profile)
    return profiles


class _SynthesisExperiment(Experiment):
    """Shared knobs + component wiring for both synthesis verbs."""

    json_capable = True
    knobs = (
        Knob("synthesis_seeds", type=int, default=32,
             help="seeded grid candidates in round 0 (default 32)"),
        Knob("synthesis_rounds", type=int, default=2,
             help="local-refinement rounds after the grid (default 2)"),
        Knob("synthesis_top", type=int, default=6,
             help="high scorers refined per round (default 6)"),
        Knob("synthesis_neighbors", type=int, default=8,
             help="neighbours admitted per high scorer (default 8)"),
        Knob("promote", type=int, default=6,
             help="max scenarios promoted into the battery (default 6)"),
        Knob("clients", type=str, default="all",
             help="comma-separated client selectors to discriminate "
                  "between (default: every local-testbed client)"),
        Knob("ablate", type=str, default=DEFAULT_ABLATION_BASE,
             help="client whose per-stage ablations score candidate "
                  "sensitivity ('none' disables)"),
    )

    def _budget(self, session: Session) -> SearchBudget:
        from .search import SearchBudget

        try:
            return SearchBudget(
                seeds=self.knob(session, "synthesis_seeds"),
                rounds=self.knob(session, "synthesis_rounds"),
                top=self.knob(session, "synthesis_top"),
                neighbors=self.knob(session, "synthesis_neighbors"))
        except ValueError as exc:
            raise SystemExit(f"synthesis: {exc}")

    def _search(self, session: Session) -> SynthesisSearch:
        from .promote import Promoter
        from .score import Scorer
        from .search import SearchStrategy, SynthesisSearch
        from .space import ScenarioSpace

        space = ScenarioSpace.default()
        budget = self._budget(session)
        limit = self.knob(session, "promote")
        if limit < 1:
            raise SystemExit(
                f"synthesis: promotion limit must be >= 1: {limit!r}")
        profiles = _resolve_clients(self.knob(session, "clients"))
        ablate = self.knob(session, "ablate")
        base = None
        if ablate and ablate.strip().lower() != "none":
            matches = _resolve_clients(ablate)
            if len(matches) != 1:
                raise SystemExit(
                    f"--ablate must match exactly one client, "
                    f"{ablate!r} matched {len(matches)}")
            base = matches[0]
        scorer = Scorer(space, profiles, seed=session.seed,
                        ablation_base=base)
        strategy = SearchStrategy(space, session.seed, budget)
        promoter = Promoter(space, limit=limit)
        return SynthesisSearch(space, strategy, scorer, promoter)

    def plan(self, session: Session) -> "Plan":
        return self._search(session).plan(session.store)

    # -- shared rendering pieces ----------------------------------------------

    @staticmethod
    def _result_data(result: SearchResult) -> Dict[str, Any]:
        return {
            "seed": result.seed,
            "budget": {
                "seeds": result.budget.seeds,
                "rounds": result.budget.rounds,
                "top": result.budget.top,
                "neighbors": result.budget.neighbors,
            },
            "rounds": [{
                "index": report.index,
                "kind": report.kind,
                "evaluated": report.evaluated,
                "best_total": report.best_total,
                "best_digest": report.best_digest,
            } for report in result.rounds],
            "evaluated": result.evaluated,
            "discriminating": result.discriminating,
            "promotions": [p.as_dict() for p in result.promotions],
        }

    def _header_lines(self, result: SearchResult) -> List[str]:
        budget = result.budget
        lines = [
            f"adversarial scenario synthesis (seed {result.seed})",
            "=" * 48,
            "",
            (f"budget: seeds={budget.seeds} rounds={budget.rounds} "
             f"top={budget.top} neighbors={budget.neighbors}"),
            "",
        ]
        for report in result.rounds:
            lines.append(
                f"round {report.index} ({report.kind}): "
                f"evaluated={report.evaluated} "
                f"best={report.best_total} "
                f"[synth-{report.best_digest}]")
        lines.append("")
        return lines

    @staticmethod
    def _promotion_lines(result: SearchResult) -> List[str]:
        if not result.promotions:
            return ["promoted scenarios: (none)"]
        from .space import ScenarioSpace

        lines = ["promoted scenarios:"]
        space = ScenarioSpace.default()
        for rank_index, promotion in enumerate(result.promotions, 1):
            score = promotion.score
            lines.append(
                f"  {rank_index}. {promotion.scenario.name}  "
                f"[{promotion.scenario.discriminates.value}]  "
                f"disagreement={score.disagreement} "
                f"failures={score.failures} "
                f"drift={','.join(score.ablation_drift) or 'none'}")
            lines.append(
                f"     {score.candidate.label(space)}")
        return lines

    @staticmethod
    def _summary_line(result: SearchResult) -> str:
        promoted_discriminating = sum(
            1 for p in result.promotions if p.score.discriminating)
        return (f"synthesis: evaluated={result.evaluated} "
                f"discriminating={result.discriminating} "
                f"promoted={len(result.promotions)} "
                f"promoted_discriminating={promoted_discriminating}")


class SynthesizeScenariosExperiment(_SynthesisExperiment):
    name = "synthesize-scenarios"
    title = "search the impairment space for discriminating scenarios"
    paper = "§4.3 extension; PAPERS.md: Ang 2025, Rath 2018"

    def execute(self, session: Session, plan: "Plan") -> SearchResult:
        from ..testbed.parallel import PlanCursor

        return self._search(session).execute(session, PlanCursor(plan))

    def render(self, result: SearchResult) -> Artifact:
        lines = self._header_lines(result)
        lines.extend(self._promotion_lines(result))
        lines.append("")
        lines.append(self._summary_line(result))
        return Artifact(text="\n".join(lines),
                        data=self._result_data(result))


class SynthesizeReportExperiment(_SynthesisExperiment):
    name = "synthesize-report"
    title = "fingerprint clients against the synthesized battery"
    paper = "§4.3 extension; PAPERS.md: Ang 2025, Rath 2018"

    def execute(self, session: Session, plan: "Plan") -> Dict[str, Any]:
        from ..conformance import fingerprint_client
        from ..testbed.parallel import PlanCursor

        cursor = PlanCursor(plan)
        result = self._search(session).execute(session, cursor)
        battery = [p.scenario for p in result.promotions]
        fingerprints = []
        if battery:
            fingerprints = [
                fingerprint_client(profile, session, battery, cursor)
                for profile in _resolve_clients(
                    self.knob(session, "clients"))]
        return {"result": result, "battery": battery,
                "fingerprints": fingerprints}

    def render(self, result: Dict[str, Any]) -> Artifact:
        from ..conformance import (fingerprint_to_dict,
                                   render_battery_summary)

        search: SearchResult = result["result"]
        lines = self._header_lines(search)
        lines.extend(self._promotion_lines(search))
        lines.append("")
        if result["battery"]:
            lines.append(render_battery_summary(
                "synthesized scenario battery",
                result["fingerprints"], result["battery"]))
            lines.append("")
        lines.append(self._summary_line(search))
        data = self._result_data(search)
        data["fingerprints"] = [fingerprint_to_dict(fp)
                                for fp in result["fingerprints"]]
        return Artifact(text="\n".join(lines), data=data)
