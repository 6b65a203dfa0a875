"""Web measurement campaigns over the Table 5 browser/OS matrix.

The paper collected 161 web-based results covering nine browsers in 22
versions on seven operating systems (33 combinations).  The campaign
object replays that structure: every matrix entry visits the tool a
configurable number of times; results aggregate per browser into the
validation and consistency columns of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..clients.profile import ClientProfile
from ..clients.registry import get_profile
from ..fanout import shared_map
from ..seeding import stable_run_seed
from ..simnet.addr import Family
from ..testbed.store import CampaignStore
from .server import WebToolDeployment
from .session import (NetworkConditions, SessionResult, StepOutcome,
                      WebToolSession)


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
    """JSON-shaped cache payload; :func:`_decode_sessions` rebuilds
    ``==``-identical session results."""
    return [{
        "browser": session.browser,
        "os_name": session.os_name,
        "repetition": session.repetition,
        "outcomes": [[outcome.delay_ms,
                      (outcome.used_family.name
                       if outcome.used_family is not None else None),
                      outcome.connect_time_s,
                      outcome.success]
                     for outcome in session.outcomes],
    } for session in sessions]


def _decode_sessions(payload: list) -> List[SessionResult]:
    """Rebuild cached sessions; raises on any malformed entry."""
    sessions = []
    for data in payload:
        outcomes = [
            StepOutcome(
                delay_ms=int(delay_ms),
                used_family=(Family[family] if family is not None else None),
                connect_time_s=(float(connect_s)
                                if connect_s is not None else None),
                success=bool(success))
            for delay_ms, family, connect_s, success in data["outcomes"]]
        sessions.append(SessionResult(
            browser=data["browser"], os_name=data["os_name"],
            repetition=int(data["repetition"]), outcomes=outcomes))
    return sessions


def _run_entry_sessions(
        payload: "Tuple[UAEntry, int, int, NetworkConditions]",
        attempt: int) -> List[SessionResult]:
    """Process-pool entry point: all repetitions of one UA entry
    (``attempt`` is unused: no fault plan reaches web entries).

    Each entry gets its own deployment seeded from the campaign seed
    and the entry label, and explicit session indices — results are a
    pure function of the payload, independent of worker scheduling.
    """
    entry, seed, repetitions, conditions = payload
    deployment = WebToolDeployment(
        seed=stable_run_seed(seed, "web-entry", entry.label))
    profile = profile_for_entry(entry)
    sessions: List[SessionResult] = []
    for repetition in range(repetitions):
        session = WebToolSession(
            deployment, profile,
            os_name=f"{entry.os_name} {entry.os_version}".strip(),
            repetition=repetition, conditions=conditions,
            session_index=repetition + 1)
        sessions.append(session.run())
    return sessions


class WebCampaign:
    """Runs sessions for a set of UA entries on one deployment."""

    def __init__(self, seed: int = 0, repetitions: int = 10,
                 conditions: Optional[NetworkConditions] = None) -> None:
        self.seed = seed
        self.repetitions = repetitions
        self.conditions = conditions or NetworkConditions.residential()

    def store_keys(self, entries: "Tuple[UAEntry, ...]" = TABLE5_MATRIX,
                   repetitions: Optional[int] = None) -> "List[str]":
        """The content address of every entry's session list, without
        running anything (``repro cache gc`` marks these as live)."""
        reps = repetitions if repetitions is not None else self.repetitions
        return [CampaignStore.key("web-campaign", self.seed, entry,
                                  reps, self.conditions)
                for entry in entries]

    def run(self, entries: "Tuple[UAEntry, ...]" = TABLE5_MATRIX,
            repetitions: Optional[int] = None,
            workers: Optional[int] = None,
            store: Optional[CampaignStore] = None) -> CampaignResult:
        """Visit the tool for every entry × repetition.

        Every entry runs on its own deployment seeded from the
        campaign seed and the entry label, with explicit session
        indices — the campaign result is a pure function of
        ``(seed, entries, repetitions, conditions)``, independent of
        process history.  ``workers=N`` fans entries out over N
        processes and returns *identical* results in entry order.

        That purity makes entries cacheable exactly like testbed runs:
        with ``store``, each entry's sessions are keyed by the full
        ``(seed, entry, repetitions, conditions)`` content digest, so
        a re-run with unchanged configuration replays from cache and
        only changed entries execute.
        """
        result = CampaignResult()
        reps = repetitions if repetitions is not None else self.repetitions
        entry_sessions: List[Optional[List[SessionResult]]] = \
            [None] * len(entries)
        keys: List[Optional[str]] = [None] * len(entries)
        pending: List[int] = []
        cached_entries: dict = {}
        if store is not None:
            keys = self.store_keys(entries, reps)
            # One batched lookup over the whole matrix.
            cached_entries = store.get_many(keys, _decode_sessions)
        for index, entry in enumerate(entries):
            if store is not None:
                cached = cached_entries.get(keys[index])
                if cached is not None:
                    entry_sessions[index] = cached
                    continue
            pending.append(index)
        payloads = [(entries[index], self.seed, reps, self.conditions)
                    for index in pending]
        fresh = shared_map(_run_entry_sessions, payloads, workers)
        for index, sessions in zip(pending, fresh):
            entry_sessions[index] = sessions
            if store is not None:
                store.put(keys[index], _encode_sessions(sessions))
        for sessions in entry_sessions:
            assert sessions is not None
            for session in sessions:
                result.add(session)
        return result
