"""Fault-tolerant campaign runtime: retries, journal, failure list.

Blackbox measurement pipelines are only trustworthy when the harness
itself tolerates and reports faults: one crashed worker must not
abort a campaign and discard every completed result, a killed CLI
invocation must be resumable, and a hung run must not wedge the
campaign forever.  The pieces here describe and record that defence;
the one dispatcher that enforces it, chunk by chunk over the shared
pool, is :func:`repro.fanout.shared_map`:

* :class:`RetryPolicy` — bounded retries with seeded exponential
  backoff + jitter (:func:`repro.seeding.backoff_jitter`), so retry
  schedules are deterministic and replayable, and the watchdog budget
  (``entry_timeout`` per item of a pool task).
* :class:`CampaignJournal` — an append-only log of completed store
  keys, flushed per append, so a SIGKILLed campaign resumes
  (``--resume``) with zero re-executions of journaled work.
* :class:`Resilience` — the bundle a campaign threads through: policy,
  fault plan, journal, the raise-or-degrade rule
  (:attr:`Resilience.degrades`), and graceful degradation's record: a
  campaign that exhausts an entry's retry budget completes anyway,
  with the failure (label, attempts, last error, elapsed) kept in
  :attr:`Resilience.failures` and surfaced in ``[faults]`` lines next
  to ``[cache]``.  What the runtime counts goes to the session's
  :class:`~repro.metrics.Metrics`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Set, TYPE_CHECKING, Union

from ..seeding import backoff_jitter, stable_run_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clients.profile import ClientProfile
    from ..faults import FaultPlan
    from ..metrics import Metrics
    from .config import TestCaseConfig
    from .runner import RunRecord

#: Error prefix marking a record synthesized by the harness for an
#: entry whose retry budget ran out — such records are *yielded* (the
#: campaign degrades gracefully) but never stored or journaled, so a
#: later run retries the entry instead of caching the failure.
HARNESS_ERROR_PREFIX = "harness:"

_KEY_LINE = re.compile(r"^[0-9a-f]{64}$")


# -- policy & failures --------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runtime fights for each entry."""

    #: Re-executions allowed per entry beyond the first attempt.
    retries: int = 0
    #: Per-entry watchdog in seconds: a pool task of N entries that has
    #: not completed within N times this budget is treated as hung —
    #: the pool is abandoned (hung workers are terminated best-effort),
    #: a lone entry is charged a failed attempt, and a chunk's entries
    #: re-dispatch one by one.  None disables the watchdog.  Serial
    #: execution cannot preempt itself, so the watchdog needs
    #: ``workers >= 2``; serially, injected hangs degrade to slow
    #: transient failures.
    entry_timeout: Optional[float] = None
    #: Backoff window parameters (see :func:`~repro.seeding
    #: .backoff_jitter`): the window doubles from ``backoff_base`` per
    #: attempt, capped at ``backoff_cap`` seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Folded with the entry label into the jitter draw, so two
    #: campaigns with the same seed back off identically.
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.entry_timeout is not None and self.entry_timeout <= 0:
            raise ValueError(
                f"entry_timeout must be > 0: {self.entry_timeout}")

    def backoff_for(self, label: str, attempt: int) -> float:
        """The deterministic sleep before retry ``attempt`` of the
        entry called ``label`` (0-based: first retry sleeps ~base)."""
        return backoff_jitter(stable_run_seed(self.backoff_seed, label),
                              attempt, base=self.backoff_base,
                              cap=self.backoff_cap)


@dataclass
class FailureEntry:
    """One entry that exhausted its retry budget."""

    label: str
    attempts: int
    error: str
    elapsed_s: float


# -- campaign journal ----------------------------------------------------------


class CampaignJournal:
    """Append-only log of completed (durably stored) campaign keys.

    One key per line, flushed per append, so every journaled key
    survives a SIGKILL of the campaign process.  Appends happen only
    *after* the store write succeeds, which gives the resume
    invariant: journaled ⊆ durable, so ``--resume`` re-executes
    nothing it journaled.  A torn final line (the kill landed mid
    write) is simply ignored on load — as is any line that does not
    look like a store key, so a corrupted journal degrades to a
    smaller resume set, never to wrong results.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignJournal({str(self.path)!r})"

    def load(self) -> Set[str]:
        """Every complete, well-formed key line currently on disk."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return set()
        complete, newline, _torn_tail = text.rpartition("\n")
        if not newline:
            return set()
        return {line for line in complete.split("\n")
                if _KEY_LINE.match(line)}

    def record(self, key: str) -> None:
        """Append one completed key; the line is flushed to the OS
        before returning, so a process kill cannot lose it."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(key + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None


# -- the bundle ----------------------------------------------------------------


@dataclass
class Resilience:
    """Everything the fault-tolerant runtime threads through a
    campaign: policy, fault plan, journal, and the entries that ran out
    of retries."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    journal: Optional[CampaignJournal] = None
    #: ``--resume``: count journaled keys served from the store and
    #: flag journaled keys the store lost.
    resume: bool = False
    #: Whether the user asked for resilience (controls the ``[faults]``
    #: line); a store-only session journals silently.
    explicit: bool = True
    #: Entries that exhausted their retry budget, in the order they
    #: gave up (the ``[faults] failed ...`` lines).
    failures: List[FailureEntry] = field(default_factory=list,
                                         init=False, repr=False)
    _resumable: Optional[frozenset] = field(default=None, repr=False)

    @property
    def degrades(self) -> bool:
        """Whether an entry that fails past its budget degrades to a
        harness-failure record (a retry budget, fault plan or watchdog
        is armed) instead of propagating its exception; journaling
        alone keeps the fail-fast rule."""
        return (self.policy.retries > 0
                or self.policy.entry_timeout is not None
                or self.fault_plan is not None)

    def resumable_keys(self) -> frozenset:
        """The journal's key set, loaded once before this campaign's
        own appends so resume accounting reflects prior invocations."""
        if self._resumable is None:
            if self.resume and self.journal is not None:
                self._resumable = frozenset(self.journal.load())
            else:
                self._resumable = frozenset()
        return self._resumable

    # -- store-merge hooks (shared by the serial and parallel loops) -----------

    def note_lookup(self, key: str, hit: bool, metrics: Metrics) -> None:
        """Resume accounting for one planned key."""
        if not self.resume or key not in self.resumable_keys():
            return
        if hit:
            metrics.resumed += 1
        else:
            metrics.journal_stale += 1

    def store_fresh(self, store, key: str, payload: Any) -> None:
        """Persist + journal one freshly executed entry's payload
        (harness-failure records never get here: a later run must
        retry, not replay the failure).  A store write error degrades
        to an uncached record instead of aborting the campaign; both
        are counted in the store's metrics."""
        try:
            store.put(key, payload)
        except OSError:
            store.metrics.store_write_errors += 1
            return
        if self.journal is not None:
            self.journal.record(key)
            store.metrics.journaled += 1

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


# -- failure records -----------------------------------------------------------


def failure_record(case: "TestCaseConfig", profile: "ClientProfile",
                   value_ms: int, repetition: int,
                   failure: FailureEntry) -> "RunRecord":
    """The degraded-mode record for an entry the harness gave up on —
    shaped like any incomplete run so aggregation handles it, marked
    with :data:`HARNESS_ERROR_PREFIX` so it is never cached."""
    from .runner import RunRecord

    return RunRecord(
        case=case.name, kind=case.kind, client=profile.full_name,
        value_ms=value_ms, repetition=repetition, completed=False,
        error=(f"{HARNESS_ERROR_PREFIX} {failure.error} "
               f"(attempts={failure.attempts})"))


def is_harness_failure(record: Any) -> bool:
    """Whether ``record`` is a run record the harness gave up on (any
    other kind of record — web sessions, resolver observations — never
    is)."""
    error = getattr(record, "error", None)
    return isinstance(error, str) and error.startswith(HARNESS_ERROR_PREFIX)
