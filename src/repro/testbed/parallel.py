"""Parallel campaign execution — fan runs out over worker processes.

The paper's methodology is brute-force scale: thousands of isolated
testbed runs per figure (a 5 ms-step CAD sweep over 17 client versions
alone is ~1400 runs).  Runs are perfectly independent — each gets a
fresh :class:`~repro.testbed.topology.LocalTestbed` seeded by a stable
digest of its coordinates — so the campaign is embarrassingly
parallel.  :class:`CampaignExecutor` enumerates the
``(case, client, value_ms, repetition)`` run specs in the exact order
of the serial loop, fans contiguous chunks of them out over the
process-global pool from :mod:`repro.fanout` (each worker builds its
own testbeds, so runs stay perfectly isolated), and merges the
:class:`RunRecord`s back in deterministic spec order.  The result is
record-for-record identical to ``TestRunner.run()`` serial output.

With a :class:`~repro.testbed.store.CampaignStore` attached to the
runner, the executor resolves cache hits in the *parent* process —
only the misses travel to the pool, and a fully warm campaign never
touches the pool at all.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Sequence, Tuple)

from dataclasses import dataclass

from ..fanout import shared_map
from ..seeding import render_part, run_seeder
from .resilience import failure_record, resilient_map
from .store import CampaignStore, decode_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clients.profile import ClientProfile
    from .config import TestCaseConfig
    from .runner import ResultSet, RunRecord, TestRunner

#: Chunks per worker: small enough to load-balance uneven run costs
#: (address-selection runs take far longer than CAD runs), large
#: enough to amortize per-task pickling of the runner configuration.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RunSpec:
    """Coordinates of one isolated run, by index into the runner config."""

    case_index: int
    client_index: int
    value_ms: int
    repetition: int


def enumerate_specs(runner: "TestRunner") -> List[RunSpec]:
    """All run specs, in the exact order of the serial campaign loop.

    Delegates to :meth:`~repro.testbed.runner.TestRunner
    .enumerate_specs` — the runner owns its campaign shape (cross
    product by default; the population sampler pairs case *i* with
    client *i*), and executor, serial stream, and key planning all
    read the same enumeration.  Duck-typed runners without the method
    get the historical cross product.
    """
    method = getattr(runner, "enumerate_specs", None)
    if method is not None:
        return method()
    specs: List[RunSpec] = []
    for case_index, case in enumerate(runner.cases):
        for client_index in range(len(runner.clients)):
            for value_ms in case.sweep:
                for repetition in range(case.repetitions):
                    specs.append(RunSpec(case_index, client_index,
                                         value_ms, repetition))
    return specs


def run_seeds(runner: "TestRunner", case: "TestCaseConfig",
              profile: "ClientProfile") -> "Callable[[str, str], int]":
    """The stable seed of each run of one (case, client) pair, from
    the :func:`~repro.seeding.render_part` texts of its ``value_ms``
    and ``repetition``; the pair's shared parts are digested once."""
    return run_seeder(runner.seed, case.name, profile.full_name)


def run_keys(runner: "TestRunner", case: "TestCaseConfig",
             profile: "ClientProfile") -> "Callable[[int, int], str]":
    """The store key of each ``(value_ms, repetition)`` run of one
    (case, client) pair — the one formula for a run key,
    ``CampaignStore.key(run_seed, config_digest, value_ms, repetition)``.
    The pair's configuration digest and seed prefix are computed once,
    so each run costs one incremental CRC and one SHA-256."""
    seed_of = run_seeds(runner, case, profile)
    digest = render_part(runner.config_digest_for(case, profile))
    key = CampaignStore.keyer()

    def key_of(value_ms: int, repetition: int) -> str:
        value, rep = render_part(value_ms), render_part(repetition)
        return key(render_part(seed_of(value, rep)), digest, value, rep)

    return key_of


def spec_keys(runner: "TestRunner",
              specs: "Sequence[RunSpec]") -> "List[str]":
    """The store key of each spec, deriving :func:`run_keys` once per
    (case, client) pair — shared by the executor's hit planning and
    by anything that needs a campaign's addresses without running it."""
    pairs: "Dict[Tuple[int, int], Callable[[int, int], str]]" = {}
    keys: "List[str]" = []
    for spec in specs:
        pair = (spec.case_index, spec.client_index)
        key_of = pairs.get(pair)
        if key_of is None:
            key_of = pairs[pair] = run_keys(
                runner, runner.cases[spec.case_index],
                runner.clients[spec.client_index])
        keys.append(key_of(spec.value_ms, spec.repetition))
    return keys


def resolve_specs(runner: "TestRunner", specs: "List[RunSpec]",
                  execute: "Callable[[List[RunSpec]], Iterator[RunRecord]]"
                  ) -> "Iterator[RunRecord]":
    """The records of ``specs`` in order — the serial stream's and the
    executor's shared path through the runner's store.

    Without a store, ``execute(specs)`` runs everything.  With one,
    the campaign's full key universe is planned up front and every hit
    resolved in one batch (per-shard sidecar index reads instead of
    one stat + JSON read per key); only the misses go to ``execute``,
    whose records arrive in order and are written back here — a single
    writer, so worker processes never touch the store.  Hits are
    popped as they are yielded, so memory decays as the stream drains.
    """
    store = runner.store
    if store is None:
        yield from execute(specs)
        return
    res = getattr(runner, "resilience", None)
    keys = spec_keys(runner, specs)
    prefetched = store.get_many(keys, decode_record)
    # A key the campaign repeats (a client listed twice) hits once,
    # since hits are popped; its later occurrences execute.
    unclaimed = set(prefetched)
    pending = []
    for spec, key in zip(specs, keys):
        if key in unclaimed:
            unclaimed.discard(key)
        else:
            pending.append(spec)
    fresh = execute(pending)
    for key in keys:
        record = prefetched.pop(key, None)
        if res is not None:
            res.note_lookup(key, hit=record is not None)
        if record is None:
            record = next(fresh)
            if res is not None:
                res.store_fresh(store, key, record)
            else:
                store.put_record(key, record)
        yield record


def _execute_chunk(payload: "Tuple[TestRunner, Sequence[RunSpec]]"
                   ) -> "List[RunRecord]":
    """Worker entry point: run one chunk of specs in this process.

    The runner arrives pickled (profiles, cases, and knobs are all
    plain frozen dataclasses); every run builds its own testbed, so
    nothing is shared between runs, let alone between workers.  Cache
    lookups happen in the parent — workers always execute for real.
    """
    runner, specs = payload
    records = []
    for spec in specs:
        records.append(runner.run_single(
            runner.cases[spec.case_index],
            runner.clients[spec.client_index],
            spec.value_ms, spec.repetition))
    return records


def _execute_entry(payload: "Tuple[TestRunner, RunSpec]",
                   attempt: int) -> "RunRecord":
    """Worker entry point for resilient dispatch: one spec, one run.

    Per-entry (not per-chunk) so that a crash, hang, or retry stays
    attributable to a single spec.  The attempt number comes from the
    parent's dispatcher and gates the fault plan — a crash spec with
    ``attempts=1`` kills this worker on attempt 0 and runs clean on
    the retry, which is what makes chaos campaigns heal into
    byte-identical results.
    """
    runner, spec = payload
    case = runner.cases[spec.case_index]
    profile = runner.clients[spec.client_index]
    res = getattr(runner, "resilience", None)
    if res is not None and res.fault_plan is not None:
        fault = res.fault_plan.entry_fault(
            (case.name, profile.full_name, spec.value_ms,
             spec.repetition), attempt)
        if fault is not None:
            from ..faults import inject_entry_fault

            inject_entry_fault(fault, in_worker=True)
    return runner.run_single(case, profile, spec.value_ms,
                             spec.repetition)


class CampaignExecutor:
    """Fans a :class:`TestRunner` campaign out over worker processes."""

    def __init__(self, runner: "TestRunner", workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.runner = runner
        self.workers = workers

    def chunks(self) -> "List[List[RunSpec]]":
        """Contiguous spec chunks, preserving enumeration order."""
        return self._chunked(enumerate_specs(self.runner))

    def _chunked(self, specs: "List[RunSpec]") -> "List[List[RunSpec]]":
        target = max(1, self.workers * _CHUNKS_PER_WORKER)
        size = max(1, -(-len(specs) // target))  # ceil division
        return [specs[i:i + size] for i in range(0, len(specs), size)]

    def execute(self) -> "ResultSet":
        from .runner import ResultSet

        results = ResultSet()
        for record in self.stream():
            results.add(record)
        return results

    def stream(self) -> "Iterator[RunRecord]":
        """Records in enumeration order through :func:`resolve_specs`:
        hits resolve parent-side and only the misses are chunked onto
        the pool.  A corrupted or torn entry simply fails the batch
        lookup for its key and re-executes (and re-stores) like any
        other miss."""
        return resolve_specs(self.runner, enumerate_specs(self.runner),
                             self._execute_pending)

    def _execute_pending(self, specs: "List[RunSpec]"
                         ) -> "Iterator[RunRecord]":
        """Execute specs in order — over the shared pool when there is
        enough work to split, serially otherwise (a fully warm
        campaign has no pending specs and never touches the pool).

        A resilient runner routes through :func:`resilient_map`
        instead of the chunked fast path: per-entry futures cost more
        pickling, but are what make crashes attributable, hangs
        preemptible, and retries per-spec.
        """
        res = getattr(self.runner, "resilience", None)
        if res is not None and res.wants_resilient_dispatch and specs:
            yield from self._execute_resilient(specs)
            return
        chunks = self._chunked(specs) if specs else []
        if len(chunks) <= 1 or self.workers == 1:
            for chunk in chunks:
                yield from _execute_chunk((self.runner, chunk))
            return
        payloads = [(self.runner, chunk) for chunk in chunks]
        # shared_map yields chunk results in submission order, which is
        # enumeration order — the merge is deterministic by design.
        for chunk_records in shared_map(_execute_chunk, payloads,
                                        self.workers):
            yield from chunk_records

    def _execute_resilient(self, specs: "List[RunSpec]"
                           ) -> "Iterator[RunRecord]":
        runner = self.runner
        res = runner.resilience
        assert res is not None
        res.manifest.dispatched += len(specs)
        payloads = [(runner, spec) for spec in specs]

        def describe(payload: "Tuple[TestRunner, RunSpec]") -> str:
            _, spec = payload
            case = runner.cases[spec.case_index]
            profile = runner.clients[spec.client_index]
            return (f"{case.name}/{profile.full_name}"
                    f"/v{spec.value_ms}/r{spec.repetition}")

        def fallback(payload, failure):
            _, spec = payload
            return failure_record(runner.cases[spec.case_index],
                                  runner.clients[spec.client_index],
                                  spec.value_ms, spec.repetition, failure)

        yield from resilient_map(_execute_entry, payloads, self.workers,
                                 res, describe, fallback)
