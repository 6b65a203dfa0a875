"""The adaptive scenario driver (coarse→fine, cache-aware).

The probe runs each scenario of the battery against one client through
the regular campaign machinery — :class:`~repro.testbed.runner
.TestRunner`, the process-global worker pool, and the content-addressed
:class:`~repro.testbed.store.CampaignStore`.  Sweep scenarios use the
paper's two-phase strategy (§4.3(i)): a coarse pass over the full
range, then a fine pass bounded to the window around the observed
family crossover.  Because run digests are independent of the sweep
shape, the fine pass replays every coarse value it overlaps from the
store and executes only genuinely new values.  That coarse→fine loop
is written once, as a stage driver (:meth:`ConformanceProbe.stages`):
planning drives it against the store, execution through the executor.

Everything is deterministic: the fine window is a pure function of the
coarse records, which are a pure function of the run coordinates — so
serial, parallel, and warm-cache probes produce byte-identical
fingerprints, which the conformance tests and the CI smoke enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..clients.profile import ClientProfile
from ..simnet.addr import Family
from ..testbed.config import SweepSpec, TestCaseConfig
from ..testbed.parallel import (Plan, PlanCursor, StageDriver,
                                execute_stages, plan_stages)
from ..testbed.runner import RunRecord, TestRunner, series_flap_window
from .scenarios import Scenario, scenario_battery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.base import Session
    from ..testbed.store import CampaignStore


@dataclass
class ScenarioOutcome:
    """Everything one scenario observed for one client."""

    scenario: Scenario
    records: List[RunRecord] = field(default_factory=list)
    #: ``(lo_ms, hi_ms)`` the fine pass covered, for sweep scenarios.
    refined_window_ms: Optional[Tuple[int, int]] = None
    #: Present when the coarse series flapped (IPv4 below an IPv6 win).
    flap_window_ms: Optional[Tuple[int, int]] = None

    @property
    def family_series(self) -> Dict[int, Family]:
        """delay_ms → established family, majority over repetitions."""
        votes: Dict[int, Dict[Family, int]] = {}
        for record in self.records:
            if record.winning_family is None:
                continue
            per_value = votes.setdefault(record.value_ms, {})
            per_value[record.winning_family] = \
                per_value.get(record.winning_family, 0) + 1
        from ..testbed.runner import majority_family

        return {value: majority_family(per_value)
                for value, per_value in sorted(votes.items())}

    @property
    def crossover_ms(self) -> Optional[int]:
        """Largest delay still established via IPv6, or None."""
        v6 = [value for value, family in self.family_series.items()
              if family is Family.V6]
        return max(v6) if v6 else None


def refinement_window(series: "Dict[int, Family]", coarse_step_ms: int,
                      stop_ms: int) -> Optional[Tuple[int, int]]:
    """The delay window a fine pass should cover, or None.

    A pure function of the coarse family series: the window spans from
    the largest IPv6 win to the smallest IPv4 win above it (the
    crossover hides in between).  A flapping series widens the window
    to the whole flap plus one coarse step on each side; a series that
    never reaches IPv4 (no fallback observed) needs no refinement.
    """
    flap = series_flap_window(series)
    if flap is not None:
        lo, hi = flap
        return (max(0, lo - coarse_step_ms),
                min(stop_ms, hi + coarse_step_ms))
    v4 = [value for value, family in series.items()
          if family is Family.V4]
    if not v4:
        return None
    v6 = [value for value, family in series.items()
          if family is Family.V6]
    lo = max(v6) if v6 else 0
    above = [value for value in v4 if value > lo]
    hi = min(above) if above else stop_ms
    if hi <= lo:
        return None
    return (lo, hi)


class ConformanceProbe:
    """Runs the scenario battery against one client profile."""

    def __init__(self, profile: ClientProfile, seed: int = 0,
                 battery: "Optional[Sequence[Scenario]]" = None) -> None:
        self.profile = profile
        self.seed = seed
        self.battery: "Tuple[Scenario, ...]" = tuple(
            battery if battery is not None else scenario_battery())

    # -- the one stage loop ----------------------------------------------------

    def stages(self, scenario: Scenario) -> StageDriver:
        """One scenario's stages: the coarse pass, then — for an
        adaptive scenario whose coarse series has a crossover to
        refine — the fine pass around it."""
        coarse = yield self._runner(scenario.case), not scenario.adaptive
        outcome = ScenarioOutcome(scenario=scenario, records=coarse)
        if not scenario.adaptive:
            return outcome
        series = outcome.family_series
        outcome.flap_window_ms = series_flap_window(series)
        window = refinement_window(
            series, scenario.coarse_step_ms, max(scenario.case.sweep))
        if window is None:
            return outcome
        fine_case = self._fine_case(scenario, window)
        if fine_case is None:
            return outcome
        outcome.refined_window_ms = window
        fine = yield self._runner(fine_case), True
        outcome.records = _merge_records(coarse, fine)
        return outcome

    def plan(self, store: "Optional[CampaignStore]" = None) -> Plan:
        """Every run the battery would reference, executing nothing.

        Coarse runs are planned unconditionally — with no store
        (``repro ls`` planning a cold catalogue), they are all there
        is.  A fine pass is planned only when every coarse record of
        its scenario is in ``store``: the stage loop then reproduces
        the fine window from them.  ``repro cache gc`` uses this to
        keep a warm conformance battery alive.
        """
        return plan_stages((self.stages(scenario)
                            for scenario in self.battery), store)

    def run(self, session: "Optional[Session]" = None,
            cursor: Optional[PlanCursor] = None
            ) -> "List[ScenarioOutcome]":
        """Every scenario's outcome under ``session`` (its store,
        workers and resilience bundle), taking each stage from the plan
        ``cursor`` walks where planning reached it."""
        return [execute_stages(self.stages(scenario), session, cursor)
                for scenario in self.battery]

    def _runner(self, case: TestCaseConfig) -> TestRunner:
        return TestRunner([self.profile], [case], seed=self.seed)

    @staticmethod
    def _fine_case(scenario: Scenario,
                   window: "Tuple[int, int]"
                   ) -> Optional[TestCaseConfig]:
        lo, hi = window
        if hi - lo <= scenario.fine_step_ms:
            return None  # the coarse grid is already that fine
        return replace(scenario.case,
                       sweep=SweepSpec.range(lo, hi, scenario.fine_step_ms))


def _merge_records(coarse: "List[RunRecord]",
                   fine: "List[RunRecord]") -> "List[RunRecord]":
    """Coarse + fine records, deduplicated on coordinates and sorted.

    Overlapping values come back byte-identical from the store either
    way, so keeping the first sighting is arbitrary but deterministic.
    """
    seen = set()
    merged: "List[RunRecord]" = []
    for record in coarse + fine:
        key = (record.value_ms, record.repetition)
        if key in seen:
            continue
        seen.add(key)
        merged.append(record)
    merged.sort(key=lambda r: (r.value_ms, r.repetition))
    return merged
