"""Campaign execution: run specs, run keys, and the store seam.

The paper's methodology is brute-force scale: thousands of isolated
testbed runs per figure (a 5 ms-step CAD sweep over 17 client versions
alone is ~1400 runs).  Runs are perfectly independent — each gets a
fresh :class:`~repro.testbed.topology.LocalTestbed` seeded by a stable
digest of its coordinates — so the campaign is embarrassingly
parallel.  A :class:`~repro.testbed.runner.TestRunner` enumerates its
:class:`RunSpec` coordinates, :func:`resolve_specs` serves the store
hits parent-side, and the misses go to the one dispatcher,
:func:`repro.fanout.shared_map`, with :func:`run_spec` as the worker
function and the runner riding in it — in-process serially, or in
contiguous chunks over the shared pool, where each worker builds its
own testbeds.  Records come back in enumeration order, so parallel
output is record-for-record identical to the serial stream, and a
fully warm campaign never touches the pool.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Sequence, Tuple)

from dataclasses import dataclass

from ..seeding import render_part, run_seeder
from .store import CampaignStore, decode_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clients.profile import ClientProfile
    from .config import TestCaseConfig
    from .runner import RunRecord, TestRunner


@dataclass(frozen=True)
class RunSpec:
    """Coordinates of one isolated run, by index into the runner config."""

    case_index: int
    client_index: int
    value_ms: int
    repetition: int


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
    """The records of ``specs`` in order, through the runner's store.

    Without a store, ``execute(specs)`` runs everything.  With one,
    the campaign's full key universe is planned up front and every hit
    resolved in one batched :meth:`~repro.testbed.store.CampaignStore
    .get_many`; only the misses go to ``execute``, whose records
    arrive in order and are written back (then journaled) here — a
    single writer, so worker processes never touch the store.  Hits
    are popped as they are yielded, so memory decays as the stream
    drains.
    """
    store = runner.store
    if store is None:
        yield from execute(specs)
        return
    res = runner.resilience
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


def spec_label(runner: "TestRunner", spec: RunSpec) -> str:
    """``case/client/v<value_ms>/r<repetition>``: the entry label that
    seeds a spec's retry backoff and names it in the failure manifest."""
    case = runner.cases[spec.case_index]
    profile = runner.clients[spec.client_index]
    return (f"{case.name}/{profile.full_name}"
            f"/v{spec.value_ms}/r{spec.repetition}")


def run_spec(runner: "TestRunner", spec: RunSpec,
             attempt: int) -> "RunRecord":
    """The worker function: one run of ``spec``, in this process.

    The runner arrives pickled once per chunk (profiles, cases, and
    knobs are all plain frozen dataclasses); every run builds its own
    testbed, so nothing is shared between runs, let alone between
    workers.  The attempt gates the fault plan — a crash spec with
    ``attempts=1`` fires on attempt 0 and runs clean on the retry,
    which is what makes chaos campaigns heal into byte-identical
    results.
    """
    case = runner.cases[spec.case_index]
    profile = runner.clients[spec.client_index]
    res = runner.resilience
    if res is not None and res.fault_plan is not None:
        fault = res.fault_plan.entry_fault(
            (case.name, profile.full_name, spec.value_ms,
             spec.repetition), attempt)
        if fault is not None:
            from ..faults import inject_entry_fault

            inject_entry_fault(fault)
    return runner.run_single(case, profile, spec.value_ms,
                             spec.repetition)
