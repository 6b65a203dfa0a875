"""The registered population experiments.

Two experiments share one campaign — same knobs, same sampled users,
same store keys — and differ only in what they aggregate from the
streamed records:

* ``population-latency`` — CDFs and quantiles of time-to-connect per
  IPv6-degradation level;
* ``population-family-share`` — which address family the population
  establishes over, overall and by client-stack family.

Both aggregate *incrementally* while the record stream drains
(:class:`~repro.analysis.stats.StreamingCDF` plus plain counters), so
a million-user campaign renders in memory proportional to its level
count, never its run count.  Heavy modules import inside the phase
methods, like every other catalogue entry, so registry construction
stays light.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..experiments.base import Artifact, Experiment, Knob, Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed.parallel import Plan

#: CDF thresholds rendered per degradation level (ms).
CDF_THRESHOLDS_MS = (50, 100, 250, 500, 1000, 2500)

#: Quantiles rendered per degradation level.
QUANTILES = (0.10, 0.50, 0.90, 0.99)


class PopulationExperiment(Experiment):
    """Base: knobs, campaign construction, and streamed aggregation
    shared by both population experiments."""

    paper = "§7 outlook; Piraux 2023 (population CDFs)"
    json_capable = True
    knobs = (
        Knob("samples", type=int, default=250,
             help="sampled users in the population (default 250)"),
        Knob("spec", type=str, default="default",
             help="population spec: a preset name (default, "
                  "v6-challenged), '@path/to/spec.json', or an inline "
                  "JSON object"),
        Knob("degrade_stop", type=int, default=200,
             help="IPv6 degradation sweep upper bound in ms "
                  "(default 200)"),
        Knob("degrade_step", type=int, default=100,
             help="IPv6 degradation sweep step in ms (default 100)"),
    )

    def _spec(self, session: Session):
        from .distributions import PopulationSpecError, resolve_spec

        try:
            return resolve_spec(self.knob(session, "spec"))
        except PopulationSpecError as exc:
            raise SystemExit(f"repro {self.name}: {exc}")

    def plan(self, session: Session) -> "Plan":
        from ..testbed.config import SweepSpec
        from .campaign import PopulationRunner

        samples = self.knob(session, "samples")
        if samples < 1:
            raise SystemExit(
                f"repro {self.name}: --samples must be >= 1: {samples}")
        sweep = SweepSpec.range(0, self.knob(session, "degrade_stop"),
                                self.knob(session, "degrade_step"))
        return PopulationRunner(self._spec(session), samples,
                                seed=session.seed, degradation=sweep).plan()

    def sample_space(self, session: Session
                     ) -> "Optional[Tuple[int, str]]":
        return (self.knob(session, "samples"),
                self._spec(session).short_digest())

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..testbed.parallel import resolve_specs

        runner = plan[0].campaign
        levels = {value_ms: self._level_aggregate()
                  for value_ms in runner.degradation}
        for record in resolve_specs(plan, session):
            self._aggregate(levels[record.value_ms], record)
        return {
            "experiment": self.name,
            "samples": runner.samples,
            "seed": session.seed,
            "spec_digest": runner.population_spec.digest(),
            "spec_label": self._spec_label(session),
            "levels": [dict(self._level_result(aggregate),
                            value_ms=value_ms)
                       for value_ms, aggregate in levels.items()],
        }

    def _spec_label(self, session: Session) -> str:
        from .distributions import PRESETS

        text = self.knob(session, "spec") or "default"
        return text if text in PRESETS else "custom"

    def _header(self, result: "Dict[str, Any]") -> str:
        return (f"{len(result['levels'])} IPv6 degradation levels · "
                f"{result['samples']} sampled users · spec "
                f"{result['spec_label']} "
                f"(digest {result['spec_digest'][:12]}) · seed "
                f"{result['seed']}")

    # subclass hooks ---------------------------------------------------------

    def _level_aggregate(self) -> Any:
        raise NotImplementedError

    def _aggregate(self, aggregate: Any, record) -> None:
        raise NotImplementedError

    def _level_result(self, aggregate: Any) -> "Dict[str, Any]":
        raise NotImplementedError


def _stack_family(client_name: str) -> str:
    """``"pop-chromium mix"`` → ``"chromium"`` (the sampled stack)."""
    head = client_name.split(" ", 1)[0]
    return head[4:] if head.startswith("pop-") else head


class PopulationLatencyExperiment(PopulationExperiment):
    name = "population-latency"
    title = "population time-to-connect CDFs under IPv6 degradation"

    def _level_aggregate(self) -> Any:
        from ..analysis.stats import StreamingCDF

        # 1 ms bins over latency in ms: quantiles deterministic to the
        # millisecond, memory bounded by the latency spread.
        return {"cdf": StreamingCDF(bin_width=1.0), "failed": 0}

    def _aggregate(self, aggregate: Any, record) -> None:
        if (record.completed and record.error is None
                and record.duration_s is not None):
            aggregate["cdf"].add(record.duration_s * 1000.0)
        else:
            aggregate["failed"] += 1

    def _level_result(self, aggregate: Any) -> "Dict[str, Any]":
        cdf = aggregate["cdf"]
        return {
            "established": cdf.count,
            "failed": aggregate["failed"],
            "mean_ms": cdf.mean(),
            "quantiles_ms": {f"p{int(q * 100)}": cdf.quantile(q)
                             for q in QUANTILES},
            "cdf": {f"le_{t}ms": cdf.cdf_at(float(t))
                    for t in CDF_THRESHOLDS_MS},
        }

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table

        def ms(value: "Optional[float]") -> "Optional[str]":
            return None if value is None else f"{value:.1f} ms"

        def pct(value: "Optional[float]") -> "Optional[str]":
            return None if value is None else f"{value * 100:.1f}%"

        quantile_rows = []
        cdf_rows = []
        for level in result["levels"]:
            label = f"+{level['value_ms']} ms"
            quantiles = level["quantiles_ms"]
            quantile_rows.append(
                [label, str(level["established"]),
                 str(level["failed"]) if level["failed"] else None,
                 ms(quantiles["p10"]), ms(quantiles["p50"]),
                 ms(quantiles["p90"]), ms(quantiles["p99"]),
                 ms(level["mean_ms"])])
            cdf = level["cdf"]
            cdf_rows.append([label] + [pct(cdf[f"le_{t}ms"])
                                       for t in CDF_THRESHOLDS_MS])
        quantile_table = render_table(
            ["v6 degradation", "established", "failed", "p10", "p50",
             "p90", "p99", "mean"], quantile_rows,
            title="Population time-to-connect quantiles")
        cdf_table = render_table(
            ["v6 degradation"] + [f"≤{t}ms"
                                  for t in CDF_THRESHOLDS_MS],
            cdf_rows, title="Time-to-connect CDF (share established "
                            "within threshold)")
        return Artifact(
            text=(f"{quantile_table}\n\n{cdf_table}\n\n"
                  f"{self._header(result)}"),
            data=result)


class PopulationFamilyShareExperiment(PopulationExperiment):
    name = "population-family-share"
    title = "population address-family share under IPv6 degradation"

    def _level_aggregate(self) -> Any:
        return {"v6": 0, "v4": 0, "none": 0,
                "families": {}}  # stack family -> {"v6": n, "total": n}

    def _aggregate(self, aggregate: Any, record) -> None:
        from ..simnet.addr import Family

        family = record.winning_family
        if family is Family.V6:
            aggregate["v6"] += 1
        elif family is Family.V4:
            aggregate["v4"] += 1
        else:
            aggregate["none"] += 1
        stack = _stack_family(record.client)
        per_stack = aggregate["families"].setdefault(
            stack, {"v6": 0, "total": 0})
        per_stack["total"] += 1
        if family is Family.V6:
            per_stack["v6"] += 1

    def _level_result(self, aggregate: Any) -> "Dict[str, Any]":
        total = aggregate["v6"] + aggregate["v4"] + aggregate["none"]
        return {
            "v6": aggregate["v6"],
            "v4": aggregate["v4"],
            "none": aggregate["none"],
            "v6_share": aggregate["v6"] / total if total else None,
            "families": {
                stack: {"v6": counts["v6"], "total": counts["total"],
                        "v6_share": counts["v6"] / counts["total"]}
                for stack, counts in sorted(
                    aggregate["families"].items())},
        }

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table

        def pct(value: "Optional[float]") -> "Optional[str]":
            return None if value is None else f"{value * 100:.1f}%"

        share_rows = []
        for level in result["levels"]:
            share_rows.append(
                [f"+{level['value_ms']} ms", str(level["v6"]),
                 str(level["v4"]),
                 str(level["none"]) if level["none"] else None,
                 pct(level["v6_share"])])
        share_table = render_table(
            ["v6 degradation", "IPv6", "IPv4", "none", "IPv6 share"],
            share_rows, title="Established address family per "
                              "degradation level")

        stacks: "List[str]" = sorted(
            {stack for level in result["levels"]
             for stack in level["families"]})
        stack_rows = []
        for stack in stacks:
            row = [stack]
            for level in result["levels"]:
                counts = level["families"].get(stack)
                row.append(None if counts is None
                           else pct(counts["v6_share"]))
            stack_rows.append(row)
        stack_table = render_table(
            ["stack family"] + [f"+{level['value_ms']} ms"
                                for level in result["levels"]],
            stack_rows,
            title="IPv6 share by client-stack family")
        return Artifact(
            text=(f"{share_table}\n\n{stack_table}\n\n"
                  f"{self._header(result)}"),
            data=result)
