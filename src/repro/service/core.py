"""CampaignService: the long-lived concurrent campaign runtime.

Admission is the Experiment registry's pure ``plan()``: a submission
names a registered experiment plus knob values, the service resolves
the knobs and plans its runs *without executing anything*, and
oversized, unknown or badly-knobbed requests are rejected before they
cost a single simulated run.  An admitted submission executes the plan
admission built on a thread pool, in its own
:class:`~repro.experiments.Session` wired to

* the shared tiered store (memory LRU over the packed disk store),
* a :class:`~repro.service.singleflight.SingleFlightStore` wrapper, so
  overlapping concurrent submissions execute every key exactly once,
* the fault-tolerant runtime — per-experiment campaign journal and the
  retry policy, exactly as ``repro run --retries`` wires them.

Each submission is planned at most once per process: its digest
(experiment, resolved knobs, seed) keys a memo of complete plans, so a
repeat is admitted without calling ``plan()``.  Three rules keep every
reply what a fresh plan would give:

1. a plan is kept only after an execution that raised nothing and
   looked up no key outside it — a cold staged campaign plans only its
   first stage, so its truncated plan is never kept;
2. a submission whose knob values name a file (``@path``, read at
   plan time) is never kept;
3. the memo is bounded by plan entries: it is cleared before its
   entries would pass :data:`~repro.memo.MEMO_CAP`, and a larger plan
   is never kept.

Identical in-flight submissions (same experiment, same resolved knobs,
same seed) additionally *coalesce*: followers share the leader's
execution and receive the same artifact, reported as ``coalesced``
with zero executions of their own.

The tier and the single-flight registry count into one lifetime
:class:`~repro.metrics.Metrics`, :attr:`CampaignService.stats`.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from .. import memo
from ..experiments.base import Session, knob_mapping
from ..testbed.parallel import Plan
from ..testbed.resilience import CampaignJournal, Resilience, RetryPolicy
from ..testbed.store import CampaignStore, config_digest
from .singleflight import SingleFlight, SingleFlightStore
from .tiering import TieredStore


class AdmissionError(Exception):
    """A submission the service refuses to plan or execute."""


@dataclass
class ServedResult:
    """One submission's artifact plus its serving accounting."""

    experiment: str
    knobs: "Dict[str, Any]"
    digest: str
    text: str
    data: Any
    #: Distinct store keys the experiment planned.
    planned: int
    #: Planned keys that resolved without this submission executing
    #: them (memory tier, disk tier, or another submission's flight).
    hits: int
    #: Runs this submission executed (and stored) itself.
    executed: int
    #: Keys that resolved only after waiting on another submission's
    #: in-flight claim.
    waited: int
    #: True when this submission coalesced onto an identical in-flight
    #: one and shared its execution wholesale.
    coalesced: bool = False


class CampaignService:
    """Accepts experiment plans from many concurrent sessions.

    Parameters mirror the CLI's global flags where they overlap
    (``seed``, ``workers``, ``retries``); the service-specific ones:

    ``lru_capacity``
        Entries held by the in-memory tier.
    ``service_workers``
        Concurrent submissions in flight (admission threads).
    ``coalesce``
        Share one execution between identical in-flight submissions.
    ``admission_limit``
        Reject plans above this many keys (0 disables the limit).
    ``lookup``
        Experiment resolver; defaults to the process-wide registry.
        Injectable so tests can serve throwaway experiments without
        polluting the registry.
    """

    def __init__(self, cache_dir: Union[str, Path], *,
                 seed: int = 0,
                 workers: Optional[int] = None,
                 retries: int = 0,
                 lru_capacity: int = 8192,
                 service_workers: int = 8,
                 coalesce: bool = True,
                 admission_limit: int = 1_000_000,
                 lookup: Optional[Callable[[str], Any]] = None) -> None:
        if lookup is None:
            from ..experiments.registry import get_experiment
            lookup = get_experiment
        self.seed = seed
        self.workers = workers
        self.retries = retries
        self.coalesce = coalesce
        self.admission_limit = admission_limit
        self._lookup = lookup
        self.store = TieredStore(CampaignStore(cache_dir),
                                 capacity=lru_capacity)
        #: Service-lifetime counters: the tier's, which the
        #: single-flight registry counts into too.
        self.stats = self.store.metrics
        self.flight = SingleFlight(self.stats)
        self._threads = ThreadPoolExecutor(
            max_workers=service_workers,
            thread_name_prefix="campaign-service")
        self._inflight: "Dict[str, Future]" = {}
        #: Completely executed plans by submission digest:
        #: ``digest -> (plan, planned)``, and the entries they hold.
        self._plans = memo.BoundedMemo()
        self._plan_entries = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- admission -------------------------------------------------------------

    def _admit(self, experiment_name: str,
               knobs: "Optional[Mapping[str, Any]]"):
        """Resolve and plan a submission; raises AdmissionError.

        Returns ``(experiment, values, digest, plan, planned,
        memoize)``.  A digest the plan memo holds is not planned again;
        ``memoize`` says whether a plan made here may enter the memo
        once it executes (see :meth:`_remember`)."""
        try:
            experiment = self._lookup(experiment_name)
        except KeyError as exc:
            self.stats.rejected += 1
            raise AdmissionError(str(exc).strip("'\"")) from None
        try:
            values = knob_mapping(experiment, dict(knobs or {}))
        except Exception as exc:
            self.stats.rejected += 1
            raise AdmissionError(
                f"bad knobs for {experiment_name}: {exc}") from None
        digest = config_digest(experiment.name, sorted(values.items()),
                               self.seed)
        memoized = self._plans.get(digest)
        if memoized is not None:
            return (experiment, values, digest) + memoized + (False,)
        planning = Session(seed=self.seed, workers=self.workers,
                           store=self.store, knobs=values)
        try:
            plan = Plan(experiment.plan(planning))
        except (Exception, SystemExit) as exc:
            # Experiments reject bad knob values with SystemExit (the
            # CLI's exit message); here that is a refused submission.
            self.stats.rejected += 1
            raise AdmissionError(
                f"cannot plan {experiment_name}: {exc}") from None
        planned = len(set(plan.keys()))
        if self.admission_limit and planned > self.admission_limit:
            self.stats.rejected += 1
            raise AdmissionError(
                f"{experiment_name} plans {planned} keys, over the "
                f"admission limit of {self.admission_limit}")
        return (experiment, values, digest, plan, planned,
                not _names_file(values))

    def _remember(self, digest: str, plan: Plan, planned: int) -> None:
        """Keep a plan whose execution completed for the digest's
        repeats.  The memo is bounded by plan entries, not plans: it
        is cleared before its entries would pass ``MEMO_CAP``, and a
        plan larger than that is never kept."""
        weight = max(len(plan), 1)
        if weight > memo.MEMO_CAP:
            return
        with self._lock:
            if digest in self._plans:
                return
            if self._plan_entries + weight > memo.MEMO_CAP:
                self._plans.clear()
                self._plan_entries = 0
            self._plans.put(digest, (plan, planned))
            self._plan_entries += weight

    # -- submission ------------------------------------------------------------

    def submit_async(self, experiment_name: str,
                     knobs: "Optional[Mapping[str, Any]]" = None
                     ) -> "Future[ServedResult]":
        """Admit a submission and return a future for its result.

        Admission errors raise here, in the caller's thread — a
        rejected plan never occupies an execution slot.  With
        coalescing on, an identical in-flight submission is joined
        instead of re-executed.
        """
        if self._closed:
            raise AdmissionError("service is shut down")
        admitted = self._admit(experiment_name, knobs)
        digest = admitted[2]
        self.stats.submissions += 1
        if not self.coalesce:
            return self._threads.submit(self._execute, *admitted)
        with self._lock:
            leader = self._inflight.get(digest)
            if leader is not None:
                self.stats.coalesced += 1
                return _follower(leader)
            future = self._threads.submit(self._execute, *admitted)
            self._inflight[digest] = future
        # Outside the lock: a future that already finished runs its
        # callback synchronously right here, and _forget retakes the
        # (non-reentrant) lock.
        future.add_done_callback(
            lambda done, digest=digest: self._forget(digest, done))
        return future

    def submit(self, experiment_name: str,
               knobs: "Optional[Mapping[str, Any]]" = None
               ) -> ServedResult:
        """Blocking :meth:`submit_async`."""
        return self.submit_async(experiment_name, knobs).result()

    def _forget(self, digest: str, future: Future) -> None:
        with self._lock:
            if self._inflight.get(digest) is future:
                del self._inflight[digest]

    # -- execution -------------------------------------------------------------

    def _resilience(self, experiment_name: str) -> Resilience:
        """The same bundle ``repro run`` builds: crash-safe journal in
        the store, seeded retry policy, implicit (no ``[faults]`` line
        changes the artifact — byte-identity is the invariant)."""
        journal = CampaignJournal(
            self.store.root / ".journal" / f"{experiment_name}.log")
        policy = RetryPolicy(retries=self.retries,
                             backoff_seed=self.seed)
        return Resilience(policy=policy, fault_plan=None,
                          journal=journal, resume=False,
                          explicit=False)

    def _execute(self, experiment, values: "Dict[str, Any]", digest: str,
                 plan: Plan, planned: int, memoize: bool) -> ServedResult:
        flight_store = SingleFlightStore(self.store, self.flight,
                                         record=memoize)
        resilience = self._resilience(experiment.name)
        session = Session(seed=self.seed, workers=self.workers,
                          store=flight_store, knobs=values,
                          resilience=resilience)
        try:
            artifact = experiment.render(experiment.execute(session, plan))
        except SystemExit as exc:
            self.stats.failed += 1
            raise AdmissionError(
                f"cannot run {experiment.name}: {exc}") from None
        except Exception:
            self.stats.failed += 1
            raise
        finally:
            resilience.close()
            flight_store.release()
        # A plan that looked up a key outside itself stopped short (a
        # cold staged campaign plans only its first stage): never kept.
        if memoize and flight_store.asked.issubset(plan.keys()):
            self._remember(digest, plan, planned)
        # The submission's own counters: its flight store's stores are
        # the runs it executed.
        executed, waited = session.metrics.stores, session.metrics.waited
        result = ServedResult(
            experiment=experiment.name, knobs=dict(values),
            digest=digest, text=artifact.text, data=artifact.data,
            planned=planned, hits=max(0, planned - executed),
            executed=executed, waited=waited)
        self.stats.completed += 1
        self.stats.keys_planned += planned
        self.stats.keys_executed += executed
        self.stats.keys_waited += waited
        return result

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight submissions and shut the pool down."""
        self._closed = True
        self._threads.shutdown(wait=True)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _names_file(values: "Mapping[str, Any]") -> bool:
    """Whether a knob value names a file (``@path``): the plan reads
    it, while the submission digest covers only the path."""
    return any(isinstance(value, str) and value.startswith("@")
               for value in values.values())


def _follower(leader: "Future[ServedResult]") -> "Future[ServedResult]":
    """A future mirroring ``leader`` with follower accounting: the
    shared artifact, zero executions of its own, every planned key a
    hit, ``coalesced`` set."""
    follower: "Future[ServedResult]" = Future()

    def mirror(done: Future) -> None:
        error = done.exception()
        if error is not None:
            follower.set_exception(error)
            return
        result = done.result()
        follower.set_result(dataclasses.replace(
            result, coalesced=True, executed=0, waited=0,
            hits=result.planned))

    leader.add_done_callback(mirror)
    return follower
