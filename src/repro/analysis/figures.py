"""Builders for the paper's figures (data series + text rendering).

* Figure 2 — address family of the established connection per
  configured IPv6 delay, one strip per client version;
* Figure 5 — address family at the n-th connection attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clients.profile import ClientProfile
from ..clients.registry import figure2_clients
from ..experiments.base import Session
from ..simnet.addr import Family
from ..testbed.config import (SweepSpec, TestCaseConfig, TestCaseKind,
                              address_selection_case)
from ..testbed.parallel import Plan, resolve_specs
from ..testbed.runner import (StreamingResultSet, TestRunner,
                              series_flap_window)
from .render import render_family_strip

# --------------------------------------------------------------------------
# Figure 2 — established family vs configured IPv6 delay
# --------------------------------------------------------------------------


@dataclass
class Figure2Series:
    """One client's row in Figure 2."""

    client: str
    label: str
    outcomes: List[Tuple[int, Optional[Family]]] = field(
        default_factory=list)

    @property
    def crossover_ms(self) -> Optional[int]:
        """Largest delay still established via IPv6 (see
        :attr:`is_monotonic` before trusting it on flapping series)."""
        v6 = [delay for delay, family in self.outcomes
              if family is Family.V6]
        return max(v6) if v6 else None

    @property
    def first_v4_ms(self) -> Optional[int]:
        v4 = sorted(delay for delay, family in self.outcomes
                    if family is Family.V4)
        return v4[0] if v4 else None

    @property
    def is_monotonic(self) -> bool:
        """False when an IPv4 win sits below an IPv6 win — the series
        flaps and the crossover is not a single delay."""
        return series_flap_window(
            {delay: family for delay, family in self.outcomes
             if family is not None}) is None


def figure2_plan(profiles: Sequence[ClientProfile], step_ms: int = 5,
                 stop_ms: int = 400, seed: int = 0) -> Plan:
    """The Figure 2 campaign: a CAD sweep per client version."""
    case = TestCaseConfig(name="figure2",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.range(0, stop_ms, step_ms))
    return TestRunner(list(profiles), [case], seed=seed).plan()


def figure2_series(plan: Plan, session: Optional[Session] = None
                   ) -> List[Figure2Series]:
    """Figure 2 from its plan (see :func:`figure2_plan`), executed
    under ``session``.

    Records stream through :class:`StreamingResultSet` — the campaign
    aggregates incrementally and never materializes the full record
    list, so run count only costs time, not memory.
    """
    aggregate = StreamingResultSet.consume(
        resolve_specs(plan, session))
    runner = plan[0].campaign
    return [Figure2Series(client=profile.full_name, label=profile.label,
                          outcomes=aggregate.outcomes(profile.full_name,
                                                      runner.cases[0].name))
            for profile in runner.clients]


def figure2_sweep(clients: Optional[Sequence[ClientProfile]] = None,
                  step_ms: int = 5, stop_ms: int = 400,
                  session: Optional[Session] = None
                  ) -> List[Figure2Series]:
    """Run the Figure 2 campaign: delay sweep per client version,
    seeded by ``session.seed`` (None: ``Session()``).

    The paper sweeps 0–400 ms in 5 ms steps; coarser steps give the
    same crossovers faster (pass ``step_ms=25`` for a quick run).
    ``Session(workers=N)`` fans the runs out over N processes with
    identical results — the fine-grained paper sweep is ~1400 isolated
    runs.  A session store makes a re-render with unchanged
    configuration replay from cache byte-identically.
    """
    profiles = list(clients) if clients is not None else figure2_clients()
    session = session or Session()
    return figure2_series(
        figure2_plan(profiles, step_ms, stop_ms, session.seed), session)


def render_figure2(series: List[Figure2Series]) -> str:
    """Figure 2 as text: one strip per client ('#' IPv6, '.' IPv4)."""
    if not series:
        return "(no series)"
    delays = [delay for delay, _ in series[0].outcomes]
    width = max(len(entry.label) for entry in series)
    lines = ["Figure 2: established address family vs configured "
             "IPv6 delay",
             f"{'':{width}}  {delays[0]} ms {'-' * 20}> {delays[-1]} ms"]
    for entry in series:
        strip = render_family_strip(
            [None if family is None else family is Family.V6
             for _, family in entry.outcomes])
        crossover = entry.crossover_ms
        if not entry.is_monotonic:
            # Flapping client: an IPv4 win below an IPv6 win.  Surface
            # it instead of pretending the max IPv6 delay is a crossover.
            suffix = (f"  (non-monotonic: IPv4 at {entry.first_v4_ms} ms "
                      f"but IPv6 again at {crossover} ms)")
        elif entry.first_v4_ms is not None:
            suffix = f"  (IPv6 up to {crossover} ms)"
        else:
            suffix = "  (never IPv4)"
        lines.append(f"{entry.label:{width}}  {strip}{suffix}")
    lines.append("legend: '#' = IPv6 established, '.' = IPv4 established")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 5 — address family at the n-th connection attempt
# --------------------------------------------------------------------------


@dataclass
class Figure5Series:
    """One client's attempt-family sequence."""

    client: str
    families: List[Family] = field(default_factory=list)

    @property
    def pattern(self) -> str:
        return "".join("6" if family is Family.V6 else "4"
                       for family in self.families)


def figure5_plan(clients: Sequence[ClientProfile],
                 addresses_per_family: int = 10, seed: int = 0) -> Plan:
    """The Figure 5 campaign: the address-selection case per client."""
    case = address_selection_case(addresses_per_family)
    return TestRunner(list(clients), [case], seed=seed).plan()


def figure5_series(plan: Plan, session: Optional[Session] = None
                   ) -> List[Figure5Series]:
    """Figure 5 from its plan (see :func:`figure5_plan`), executed
    under ``session``.

    Streams the campaign: only each client's attempt-family list is
    retained, never the records themselves.
    """
    families_by_client: Dict[str, List[Family]] = {}
    for record in resolve_specs(plan, session):
        if record.client not in families_by_client:
            families_by_client[record.client] = [
                family for _, family in record.attempts]
    return [Figure5Series(client=profile.full_name,
                          families=families_by_client[profile.full_name])
            for profile in plan[0].campaign.clients]


def figure5_attempts(clients: Sequence[ClientProfile],
                     addresses_per_family: int = 10,
                     session: Optional[Session] = None
                     ) -> List[Figure5Series]:
    """Run the address-selection case under ``session`` (seeded by
    ``session.seed``) and extract attempt sequences."""
    session = session or Session()
    return figure5_series(
        figure5_plan(clients, addresses_per_family, session.seed), session)


def render_figure5(series: List[Figure5Series],
                   slots: int = 20) -> str:
    width = max((len(entry.client) for entry in series), default=10)
    header = " ".join(f"{n:>2}" for n in range(1, slots + 1))
    lines = ["Figure 5: address family used at the n-th connection "
             "attempt",
             f"{'':{width}}  {header}"]
    for entry in series:
        cells = []
        for index in range(slots):
            if index < len(entry.families):
                cells.append("v6" if entry.families[index] is Family.V6
                             else "v4")
            else:
                cells.append(" .")
        lines.append(f"{entry.client:{width}}  {' '.join(cells)}")
    lines.append("legend: v6/v4 = attempt via that family, . = no attempt")
    return "\n".join(lines)
