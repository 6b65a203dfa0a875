"""Campaign plans and the one executor that resolves them.

The paper's methodology is brute-force scale: thousands of isolated
runs per figure (a 5 ms-step CAD sweep over 17 client versions alone
is ~1400 runs), each a pure function of its coordinates.  So a
campaign is data before it is work: an experiment's ``plan()`` is a
:class:`Plan`, a flat ordered tuple of typed entries — a
:class:`TestbedRun` per testbed run, and the web tool's and the
resolver testbed's entry kinds — each carrying its coordinates, its
run seed and its store key, derived once.

:func:`resolve_specs` is the one executor every entry kind goes
through, under the invocation's
:class:`~repro.experiments.base.Session` — its store, worker count and
resilience bundle travel as one object, so no campaign can drop one of
them: one batched store lookup, the misses dispatched through
:func:`repro.fanout.shared_map` (in-process serially, or in contiguous
chunks over the shared pool, where each worker builds its own
testbeds), and the parent as the single store writer and journal.
Records come back in plan order, so parallel output is
record-for-record identical to the serial stream, and a fully warm
plan never touches the pool.

Adaptive campaigns — a coarse→fine sweep, a search whose next round
depends on the last one's scores — are written once, as a *stage
driver*, and :func:`run_stages` is the one loop that drives them:
against the store while planning (stopping at the first stage with a
miss, so planning never executes) and through the executor, under the
Session, when running.  Execution takes the Session; planning takes
only its coordinates.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable,
                    Iterator, List, NamedTuple, Optional, Sequence, Tuple)

from dataclasses import dataclass

from ..experiments.base import Session
from ..seeding import render_part, run_seeder
from .store import CampaignStore, decode_record, encode_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan
    from .resilience import FailureEntry
    from .runner import RunRecord, TestRunner


@dataclass(frozen=True)
class RunSpec:
    """Coordinates of one isolated run, by index into the runner config."""

    case_index: int
    client_index: int
    value_ms: int
    repetition: int


class Plan(tuple):
    """An experiment's runs as data: a flat, ordered tuple of entries.

    Holds no store handle — the same plan is looked up, executed,
    kept live by ``repro cache gc`` and counted by ``repro ls``.
    ``Plan(iterable)`` rebuilds one from any iterable of entries.
    """

    __slots__ = ()

    def keys(self) -> "List[str]":
        """Every entry's store key, in plan order."""
        return [entry.key for entry in self]


class TestbedRun(NamedTuple):
    """One local-testbed run: coordinates by index into its campaign
    (so a :class:`~repro.population.campaign.PopulationRunner` still
    pickles as its recipe), plus its seed and key."""

    campaign: "TestRunner"
    case_index: int
    client_index: int
    value_ms: int
    repetition: int
    run_seed: int
    key: str

    decode = staticmethod(decode_record)
    encode = staticmethod(encode_record)

    def execute(self, fault_plan: "Optional[FaultPlan]",
                attempt: int) -> "RunRecord":
        """One run, in this process.  The attempt gates the fault
        plan — a crash spec with ``attempts=1`` fires on attempt 0 and
        runs clean on the retry, which is what makes chaos campaigns
        heal into byte-identical results."""
        campaign = self.campaign
        case = campaign.cases[self.case_index]
        profile = campaign.clients[self.client_index]
        if fault_plan is not None:
            fault = fault_plan.entry_fault(
                (case.name, profile.full_name, self.value_ms,
                 self.repetition), attempt)
            if fault is not None:
                from ..faults import inject_entry_fault

                inject_entry_fault(fault)
        return campaign.run_single(case, profile, self.value_ms,
                                   self.repetition, run_seed=self.run_seed)

    def label(self) -> str:
        """``case/client/v<value_ms>/r<repetition>``: seeds the retry
        backoff and names the run in the failure list."""
        campaign = self.campaign
        return (f"{campaign.cases[self.case_index].name}/"
                f"{campaign.clients[self.client_index].full_name}"
                f"/v{self.value_ms}/r{self.repetition}")

    def failed(self, failure: "FailureEntry") -> "RunRecord":
        """The harness-failure record of a run out of retries."""
        from .resilience import failure_record

        return failure_record(self.campaign.cases[self.case_index],
                              self.campaign.clients[self.client_index],
                              self.value_ms, self.repetition, failure)


def spec_keys(runner: "TestRunner",
              specs: "Sequence[RunSpec]") -> "List[TestbedRun]":
    """The plan entries of ``specs``: each run's seed and store key,
    ``CampaignStore.key(run_seed, config_digest, value_ms,
    repetition)``.  The configuration digest and seed prefix of each
    (case, client) pair are computed once, so each run costs one
    incremental CRC and one SHA-256.  Each pair is read through
    :meth:`~repro.testbed.runner.TestRunner.identity`, so a runner
    that memoizes its pairs' identities derives keys without building
    a case or profile."""
    key = CampaignStore.keyer()
    pairs: "Dict[Tuple[int, int], Tuple[Callable[..., int], str]]" = {}
    entries: "List[TestbedRun]" = []
    for spec in specs:
        pair = (spec.case_index, spec.client_index)
        derived = pairs.get(pair)
        if derived is None:
            case_name, client_name, digest = runner.identity(*pair)
            derived = pairs[pair] = (
                run_seeder(runner.seed, case_name, client_name),
                render_part(digest))
        seed_of, digest = derived
        value, rep = render_part(spec.value_ms), render_part(spec.repetition)
        run_seed = seed_of(value, rep)
        entries.append(TestbedRun(
            runner, spec.case_index, spec.client_index, spec.value_ms,
            spec.repetition, run_seed,
            key(render_part(run_seed), digest, value, rep)))
    return entries


# -- the executor ----------------------------------------------------------------


def _execute(fault_plan: "Optional[FaultPlan]", entry: Any,
             attempt: int) -> Any:
    return entry.execute(fault_plan, attempt)


def _label(entry: Any) -> str:
    return entry.label()


def _failed(entry: Any, failure: "FailureEntry") -> Any:
    return entry.failed(failure)


def resolve_specs(plan: "Sequence[Any]",
                  session: Optional[Session] = None
                  ) -> "Iterator[Any]":
    """The records of ``plan``'s entries (all of one kind), in order,
    under ``session``'s store, worker count and resilience bundle
    (None: serial, no store, fail fast).

    Each distinct key is resolved once: a key the plan repeats (a
    client listed twice) is looked up and executed once, and its record
    is yielded for every occurrence.  Without a store every distinct
    entry executes.  With one, every hit resolves in one batched
    ``get_many``; only the misses go to
    :func:`~repro.fanout.shared_map`, whose records arrive in order and
    are written back (then journaled) here — a single writer, so worker
    processes never touch the store.  A record is dropped after its
    key's last occurrence, so memory decays as the stream drains.
    """
    from ..fanout import shared_map
    from .resilience import is_harness_failure

    if not plan:
        return
    session = session or Session()
    store, resilience = session.store, session.resilience
    kind = type(plan[0])
    if any(type(entry) is not kind for entry in plan):
        raise ValueError("one executor call resolves one entry kind")
    distinct: "Dict[str, Any]" = {}
    last: "Dict[str, int]" = {}
    for at, entry in enumerate(plan):
        distinct.setdefault(entry.key, entry)
        last[entry.key] = at
    found: "Dict[str, Any]" = {}
    if store is not None:
        found = store.get_many(list(distinct), kind.decode)
        if resilience is not None:
            for key in distinct:
                resilience.note_lookup(key, key in found, session.metrics)
    fault_plan = resilience.fault_plan if resilience is not None else None
    fresh = shared_map(partial(_execute, fault_plan),
                       [entry for key, entry in distinct.items()
                        if key not in found],
                       session, _label, _failed)
    for at, entry in enumerate(plan):
        key = entry.key
        record = found.pop(key, None) if last[key] == at else found.get(key)
        if record is None:
            record = next(fresh)
            if last[key] != at:
                found[key] = record
            if store is not None and not is_harness_failure(record):
                payload = kind.encode(record)
                if resilience is not None:
                    resilience.store_fresh(store, key, payload)
                else:
                    store.put(key, payload)
        yield record


# -- staged campaigns ------------------------------------------------------------

#: A stage driver: yields ``(campaign, last)`` for each stage — a
#: :class:`~repro.testbed.runner.TestRunner` and whether it is the final
#: stage — is sent that stage's records, and returns its result.
StageDriver = Generator[Tuple["TestRunner", bool], List[Any], Any]


class PlanCursor:
    """Walks a plan stage by stage while it executes: a stage planning
    reached comes from the plan, a stage beyond where planning stopped
    is derived from its campaign."""

    def __init__(self, plan: "Sequence[Any]") -> None:
        self.plan = plan
        self.at = 0

    def take(self, runner: "TestRunner") -> "List[Any]":
        specs = runner.enumerate_specs()
        group = self.plan[self.at:self.at + len(specs)]
        if specs and len(group) == len(specs) and _same_run(group[0],
                                                           runner, specs[0]):
            self.at += len(specs)
            return list(group)
        return spec_keys(runner, specs)


def _same_run(entry: Any, runner: "TestRunner", spec: RunSpec) -> bool:
    if not isinstance(entry, TestbedRun):
        return False
    campaign = entry.campaign
    return (entry.value_ms == spec.value_ms
            and entry.repetition == spec.repetition
            and campaign.seed == runner.seed
            and campaign.cases[entry.case_index]
            == runner.cases[spec.case_index]
            and campaign.clients[entry.client_index]
            == runner.clients[spec.client_index])


def run_stages(driver: StageDriver,
               entries_of: "Callable[[TestRunner], Sequence[Any]]",
               resolve: "Callable[[Sequence[Any], bool], Optional[List[Any]]]"
               ) -> Any:
    """Drive a staged campaign: each stage's ``entries_of(campaign)``
    go to ``resolve(entries, last)``, whose records are sent back into
    ``driver``.  Returns the driver's result, or None when ``resolve``
    returned None (planning stopped)."""
    try:
        runner, last = next(driver)
        while True:
            records = resolve(entries_of(runner), last)
            if records is None:
                driver.close()
                return None
            runner, last = driver.send(records)
    except StopIteration as stop:
        return stop.value


def plan_stages(drivers: "Iterable[StageDriver]", store: Any) -> Plan:
    """The plan of staged campaigns, without executing anything: each
    stage is planned, and the next one too when every record of this
    one is already in ``store`` — the driver then computes the next
    stage from those records exactly as execution would."""
    entries: "List[Any]" = []

    def probe(stage: "Sequence[Any]", last: bool
              ) -> "Optional[List[Any]]":
        entries.extend(stage)
        if last or store is None:
            return None
        found = store.get_many([entry.key for entry in stage],
                               decode_record)
        if len(found) < len(stage):
            return None
        return [found[entry.key] for entry in stage]

    for driver in drivers:
        run_stages(driver, lambda runner: runner.plan(), probe)
    return Plan(entries)


def execute_stages(driver: StageDriver, session: Optional[Session],
                   cursor: "Optional[PlanCursor]" = None) -> Any:
    """Run a staged campaign through the executor under ``session``,
    taking each stage from the plan ``cursor`` walks where planning
    reached it."""
    cursor = cursor if cursor is not None else PlanCursor(())
    return run_stages(driver, cursor.take, lambda entries, last: list(
        resolve_specs(entries, session)))
