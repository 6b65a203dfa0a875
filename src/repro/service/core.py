"""CampaignService: the long-lived concurrent campaign runtime.

Admission is the Experiment registry's pure ``plan()``: a submission
names a registered experiment plus knob values, the service resolves
the knobs and plans the key universe *without executing anything*, and
oversized or unknown requests are rejected before they cost a single
simulated run.  Admitted submissions execute on a thread pool, each in
its own :class:`~repro.experiments.Session` wired to

* the shared tiered store (memory LRU over the packed disk store),
* a :class:`~repro.service.singleflight.SingleFlightStore` wrapper, so
  overlapping concurrent submissions execute every key exactly once,
* the fault-tolerant runtime — per-experiment campaign journal and the
  retry policy, exactly as ``repro run --retries`` wires them.

Identical in-flight submissions (same experiment, same resolved knobs,
same seed) additionally *coalesce*: followers share the leader's
execution and receive the same artifact, reported as ``coalesced``
with zero executions of their own.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..experiments.base import Session, knob_mapping
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

    def summary(self) -> str:
        return (f"planned={self.planned} hits={self.hits} "
                f"executed={self.executed} waited={self.waited} "
                f"coalesced={str(self.coalesced).lower()}")


@dataclass
class ServiceStats:
    """Service-lifetime counters (reported by ``GET /stats``)."""

    submissions: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    coalesced: int = 0
    keys_planned: int = 0
    keys_executed: int = 0
    keys_waited: int = 0
    rebalances: int = 0

    def snapshot(self) -> "Dict[str, int]":
        return dataclasses.asdict(self)


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
                 lookup: Optional[Callable[[str], Any]] = None,
                 rebalance_min_reads: int = 64,
                 rebalance_skew: float = 8.0) -> None:
        if lookup is None:
            from ..experiments.registry import get_experiment
            lookup = get_experiment
        self.seed = seed
        self.workers = workers
        self.retries = retries
        self.coalesce = coalesce
        self.admission_limit = admission_limit
        self.rebalance_min_reads = rebalance_min_reads
        self.rebalance_skew = rebalance_skew
        self._lookup = lookup
        self.store = TieredStore(CampaignStore(cache_dir),
                                 capacity=lru_capacity)
        self.flight = SingleFlight()
        self.stats = ServiceStats()
        self._pool = ThreadPoolExecutor(
            max_workers=service_workers,
            thread_name_prefix="campaign-service")
        self._inflight: "Dict[str, Future]" = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- admission -------------------------------------------------------------

    def _admit(self, experiment_name: str,
               knobs: "Optional[Mapping[str, Any]]"):
        """Resolve and plan a submission; raises AdmissionError."""
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
        planning = Session(seed=self.seed, workers=self.workers,
                           store=self.store, knobs=values)
        try:
            keys = sorted(set(experiment.plan(planning)))
        except Exception as exc:
            self.stats.rejected += 1
            raise AdmissionError(
                f"cannot plan {experiment_name}: {exc}") from None
        if self.admission_limit and len(keys) > self.admission_limit:
            self.stats.rejected += 1
            raise AdmissionError(
                f"{experiment_name} plans {len(keys)} keys, over the "
                f"admission limit of {self.admission_limit}")
        return experiment, values, keys

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
        experiment, values, keys = self._admit(experiment_name, knobs)
        digest = config_digest(experiment.name, sorted(values.items()),
                               self.seed)
        self.stats.submissions += 1
        if not self.coalesce:
            return self._pool.submit(self._execute, experiment, values,
                                     keys, digest)
        with self._lock:
            leader = self._inflight.get(digest)
            if leader is not None:
                self.stats.coalesced += 1
                return _follower(leader)
            future = self._pool.submit(self._execute, experiment,
                                       values, keys, digest)
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

    def _execute(self, experiment, values: "Dict[str, Any]",
                 keys: "List[str]", digest: str) -> ServedResult:
        flight_store = SingleFlightStore(self.store, self.flight)
        resilience = self._resilience(experiment.name)
        session = Session(seed=self.seed, workers=self.workers,
                          store=flight_store, knobs=values,
                          resilience=resilience)
        try:
            artifact = experiment.run(session)
        except Exception:
            self.stats.failed += 1
            raise
        finally:
            resilience.close()
            flight_store.release()
        planned = len(keys)
        executed = flight_store.executed
        result = ServedResult(
            experiment=experiment.name, knobs=dict(values),
            digest=digest, text=artifact.text, data=artifact.data,
            planned=planned, hits=max(0, planned - executed),
            executed=executed, waited=flight_store.waited)
        self.stats.completed += 1
        self.stats.keys_planned += planned
        self.stats.keys_executed += executed
        self.stats.keys_waited += flight_store.waited
        self._maybe_rebalance()
        return result

    def _maybe_rebalance(self) -> None:
        """Kick the hot-shard rebalancer in the background when the
        heat counters say a shard is skewed; never on the submission's
        critical path."""
        if self.store.heat.hot_shards(
                min_reads=self.rebalance_min_reads,
                skew=self.rebalance_skew):
            self._pool.submit(self._rebalance)

    def _rebalance(self) -> "List[Any]":
        events = self.store.rebalance(
            min_reads=self.rebalance_min_reads,
            skew=self.rebalance_skew)
        self.stats.rebalances += len(events)
        return events

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight submissions and shut the pool down."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


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
