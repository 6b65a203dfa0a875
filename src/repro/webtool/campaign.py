"""Web measurement campaigns over the Table 5 browser/OS matrix.

The paper collected 161 web-based results covering nine browsers in 22
versions on seven operating systems (33 combinations).  The campaign
object replays that structure: every matrix entry visits the tool a
configurable number of times; results aggregate per browser into the
validation and consistency columns of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import index
from typing import (TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..clients.profile import ClientProfile
from ..clients.registry import get_profile
from ..seeding import stable_run_seed
from ..simnet.addr import Family
from ..testbed.parallel import Plan, resolve_specs
from ..testbed.store import CampaignStore
from .server import WebToolDeployment
from .session import (NetworkConditions, SessionResult, StepOutcome,
                      WebToolSession)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.base import Session


@dataclass(frozen=True)
class UAEntry:
    """One user-agent combination as extracted from Table 5."""

    os_name: str
    os_version: str
    browser: str
    browser_version: str

    @property
    def label(self) -> str:
        os_part = (f"{self.os_name} {self.os_version}".strip())
        return f"{os_part} / {self.browser} {self.browser_version}"


#: The OS/browser matrix of Table 5 (33 combinations).
TABLE5_MATRIX: Tuple[UAEntry, ...] = (
    UAEntry("Android", "10", "Chrome Mobile", "127.0.0"),
    UAEntry("Android", "10", "Chrome Mobile", "130.0.0"),
    UAEntry("Android", "10", "Firefox Mobile", "131.0"),
    UAEntry("Android", "10", "Samsung Internet", "26.0"),
    UAEntry("Android", "14", "Firefox Mobile", "125.0"),
    UAEntry("Android", "14", "Firefox Mobile", "128.0"),
    UAEntry("Android", "14", "Firefox Mobile", "131.0"),
    UAEntry("Chrome OS", "14541.0.0", "Chrome", "129.0.0"),
    UAEntry("Linux", "", "Chrome", "130.0.0"),
    UAEntry("Linux", "", "Firefox", "128.0"),
    UAEntry("Linux", "", "Firefox", "130.0"),
    UAEntry("Linux", "", "Firefox", "131.0"),
    UAEntry("Linux", "", "Firefox", "132.0"),
    UAEntry("Mac OS X", "10.15", "Firefox", "128.0"),
    UAEntry("Mac OS X", "10.15", "Firefox", "131.0"),
    UAEntry("Mac OS X", "10.15", "Firefox", "132.0"),
    UAEntry("Mac OS X", "10.15.7", "Chrome", "127.0.0"),
    UAEntry("Mac OS X", "10.15.7", "Chrome", "129.0.0"),
    UAEntry("Mac OS X", "10.15.7", "Chrome", "130.0.0"),
    UAEntry("Mac OS X", "10.15.7", "Opera", "114.0.0"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "17.4.1"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "17.5"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "18.0.1"),
    UAEntry("Ubuntu", "", "Firefox", "128.0"),
    UAEntry("Ubuntu", "", "Firefox", "131.0"),
    UAEntry("Windows", "10", "Chrome", "127.0.0"),
    UAEntry("Windows", "10", "Edge", "130.0.0"),
    UAEntry("Windows", "10", "Firefox", "130.0"),
    UAEntry("iOS", "17.5.1", "Mobile Safari", "17.5"),
    UAEntry("iOS", "17.6", "Mobile Safari", "17.6"),
    UAEntry("iOS", "17.6.1", "Mobile Safari", "17.6"),
    UAEntry("iOS", "18.1", "Mobile Safari", "18.1"),
)

#: Browsers not in the local registry map onto their engine family.
_FAMILY_OF_BROWSER = {
    "Chrome": "Chrome", "Chrome Mobile": "Chrome Mobile",
    "Chromium": "Chromium", "Edge": "Edge",
    "Opera": "Chrome", "Samsung Internet": "Chrome Mobile",
    "Firefox": "Firefox", "Firefox Mobile": "Firefox",
    "Safari": "Safari", "Mobile Safari": "Mobile Safari",
}


def profile_for_entry(entry: UAEntry) -> ClientProfile:
    """A client profile for a Table 5 combination.

    Versions outside the local registry inherit their engine family's
    behaviour — the paper finds behaviour constant within each engine
    family across the measured version range.
    """
    base_name = _FAMILY_OF_BROWSER.get(entry.browser)
    if base_name is None:
        raise KeyError(f"unknown browser {entry.browser!r}")
    base = get_profile(base_name)
    return replace(base, name=entry.browser,
                   version=entry.browser_version,
                   os_hint=(f"{entry.os_name} {entry.os_version}".strip()))


@dataclass
class BrowserAggregate:
    """Aggregated web results for one browser (one Table 2 cell group)."""

    browser: str
    sessions: List[SessionResult] = field(default_factory=list)

    @property
    def repetitions(self) -> int:
        return len(self.sessions)

    @property
    def inconsistent_sessions(self) -> int:
        return sum(1 for s in self.sessions if not s.is_monotonic())

    def modal_cad_interval(self) -> "Tuple[Optional[int], Optional[int]]":
        """Most common CAD interval across sessions."""
        votes: Dict[Tuple[Optional[int], Optional[int]], int] = {}
        for session in self.sessions:
            votes[session.cad_interval()] = votes.get(
                session.cad_interval(), 0) + 1
        if not votes:
            return (None, None)
        return max(votes, key=votes.get)

    def cad_interval_spread(self) -> "List[Tuple[Optional[int], Optional[int]]]":
        return sorted({s.cad_interval() for s in self.sessions},
                      key=lambda pair: (pair[0] is None, pair[0] or 0))


@dataclass
class CampaignResult:
    """All sessions of one web campaign."""

    sessions: List[SessionResult] = field(default_factory=list)

    def add(self, session: SessionResult) -> None:
        self.sessions.append(session)

    def by_browser(self) -> Dict[str, BrowserAggregate]:
        out: Dict[str, BrowserAggregate] = {}
        for session in self.sessions:
            name = session.browser.split(" ")[0]
            if session.browser.startswith(("Mobile Safari",
                                           "Chrome Mobile",
                                           "Firefox Mobile",
                                           "Samsung Internet")):
                name = " ".join(session.browser.split(" ")[:2])
            aggregate = out.setdefault(name, BrowserAggregate(browser=name))
            aggregate.sessions.append(session)
        return out

    def combinations(self) -> int:
        return len({(s.browser, s.os_name) for s in self.sessions})

    def __len__(self) -> int:
        return len(self.sessions)


def _encode_sessions(sessions: List[SessionResult]) -> list:
    """The cache payload: one ``[browser, os_name, repetition,
    outcomes]`` row per session, each outcome a ``[delay_ms, family,
    connect_time_s, success]`` row; :func:`_decode_sessions` rebuilds
    ``==``-identical session results."""
    return [[session.browser, session.os_name, session.repetition,
             [[outcome.delay_ms,
               (outcome.used_family.name
                if outcome.used_family is not None else None),
               outcome.connect_time_s, outcome.success]
              for outcome in session.outcomes]]
            for session in sessions]


def _decode_sessions(payload: "Sequence[Any]") -> List[SessionResult]:
    """Rebuild cached sessions from their rows (lists or tuples);
    raises on a wrong length, an unknown family name or a string where
    a number belongs."""
    return [SessionResult(browser, os_name, index(repetition), [
                StepOutcome(index(delay_ms),
                            Family[family] if family is not None else None,
                            None if connect_s is None else connect_s * 1.0,
                            bool(success))
                for delay_ms, family, connect_s, success in outcomes])
            for browser, os_name, repetition, outcomes in payload]


class WebRun(NamedTuple):
    """One UA entry's sessions: the web campaign's plan entry."""

    campaign: "WebCampaign"
    entry: UAEntry
    repetitions: int
    key: str

    decode = staticmethod(_decode_sessions)
    encode = staticmethod(_encode_sessions)

    def execute(self, fault_plan: Any, attempt: int) -> List[SessionResult]:
        """All repetitions of the entry, in this process (no fault
        plan targets web entries).

        Each entry gets its own deployment seeded from the campaign
        seed and the entry label, and explicit session indices —
        results are a pure function of the entry, independent of
        worker scheduling.
        """
        entry = self.entry
        deployment = WebToolDeployment(
            seed=stable_run_seed(self.campaign.seed, "web-entry",
                                 entry.label))
        profile = profile_for_entry(entry)
        return [WebToolSession(
            deployment, profile,
            os_name=f"{entry.os_name} {entry.os_version}".strip(),
            repetition=repetition, conditions=self.campaign.conditions,
            session_index=repetition + 1).run()
            for repetition in range(self.repetitions)]

    def label(self) -> str:
        return f"web/{self.entry.label}"

    def failed(self, failure: Any) -> List[SessionResult]:
        raise RuntimeError(f"{self.label()}: {failure.error} "
                           f"(attempts={failure.attempts})")


class WebCampaign:
    """Runs sessions for a set of UA entries on one deployment."""

    def __init__(self, seed: int = 0, repetitions: int = 10,
                 conditions: Optional[NetworkConditions] = None) -> None:
        self.seed = seed
        self.repetitions = repetitions
        self.conditions = conditions or NetworkConditions.residential()

    def plan(self, entries: "Tuple[UAEntry, ...]" = TABLE5_MATRIX,
             repetitions: Optional[int] = None) -> Plan:
        """One :class:`WebRun` per UA entry, keyed by the full ``(seed,
        entry, repetitions, conditions)`` content digest — nothing
        runs."""
        reps = repetitions if repetitions is not None else self.repetitions
        return Plan(WebRun(self, entry, reps,
                           CampaignStore.key("web-campaign", self.seed,
                                             entry, reps, self.conditions))
                    for entry in entries)

    def run(self, entries: "Tuple[UAEntry, ...]" = TABLE5_MATRIX,
            repetitions: Optional[int] = None,
            session: "Optional[Session]" = None) -> CampaignResult:
        """Visit the tool for every entry × repetition under
        ``session`` (see :func:`run_web_plan`)."""
        return run_web_plan(self.plan(entries, repetitions), session)


def run_web_plan(plan: "Plan", session: "Optional[Session]" = None
                 ) -> CampaignResult:
    """Every session of a web campaign's plan, in entry order,
    executed under the invocation's ``session``.

    Every entry runs on its own deployment seeded from the campaign
    seed and the entry label, with explicit session indices — the
    result is a pure function of ``(seed, entries, repetitions,
    conditions)``, independent of process history.
    ``Session(workers=N)`` fans entries out over N processes and
    returns *identical* results.  That purity makes entries cacheable
    exactly like testbed runs: with a session store, a re-run with
    unchanged configuration replays from cache and only changed
    entries execute.
    """
    result = CampaignResult()
    for sessions in resolve_specs(plan, session):
        for visit in sessions:
            result.add(visit)
    return result
