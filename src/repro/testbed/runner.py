"""The test runner: cases × configurations × clients (App. Figure 3).

For every (test case, sweep value, client, repetition) the runner
builds a *fresh* testbed and client — the simulation equivalent of the
paper's "drop and create a new container" state reset — executes the
run, and collects black-box observations from the packet capture.

Campaigns can be consumed three ways:

* :meth:`TestRunner.run` — materialize every record in a
  :class:`ResultSet` (the historical interface);
* :meth:`TestRunner.stream` — an iterator of records in deterministic
  enumeration order, so cold million-run campaigns never hold every
  :class:`RunRecord` in memory (warm cache hits resolve in one batch
  and drain as the stream advances);
* either of the above with a :class:`~repro.testbed.store.CampaignStore`
  attached, in which case runs whose coordinates and configuration are
  unchanged come back from the content-addressed cache instead of
  re-executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from statistics import median
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..clients.base import Client
from ..clients.profile import ClientProfile
from ..core.sortlist import HistoryStore
from ..fanout import shared_map
from ..seeding import render_part
from ..simnet.addr import Family
from ..simnet.capture import PacketCapture
from ..simnet.packet import Protocol
from .config import SweepSpec, TestCaseConfig, TestCaseKind
from .inference import CaptureObservation
from .modules import (AddressSelectionModule, CaptureModule, ServiceModule,
                      modules_for)
from .parallel import (RunSpec, resolve_specs, run_keys, run_seeds,
                       run_spec, spec_keys, spec_label)
from .resilience import Resilience, failure_record
from .store import CampaignStore, config_digest
from .topology import LocalTestbed


#: Placeholder sweep substituted into a case before digesting its
#: configuration: the actual sweep values (and repetition count) are
#: campaign shape, not run configuration — see
#: :meth:`TestRunner.config_digest_for`.
_NEUTRAL_SWEEP = SweepSpec.fixed(0)


@dataclass
class RunRecord:
    """Everything observed in one test run."""

    case: str
    kind: TestCaseKind
    client: str
    value_ms: int
    repetition: int
    completed: bool
    error: Optional[str] = None
    winning_family: Optional[Family] = None
    winning_protocol: Optional[Protocol] = None
    cad_s: Optional[float] = None
    rd_s: Optional[float] = None
    time_to_first_attempt_s: Optional[float] = None
    aaaa_first: Optional[bool] = None
    queried_https: bool = False
    attempts: List[Tuple[float, Family]] = field(default_factory=list)
    attempts_v4: int = 0
    attempts_v6: int = 0
    attempts_quic: int = 0
    first_attempt_port: Optional[int] = None
    duration_s: Optional[float] = None

    @property
    def first_attempt_family(self) -> Optional[Family]:
        """Family of the first wire attempt — the sortlist observable."""
        return self.attempts[0][1] if self.attempts else None


# -- aggregation helpers (shared by ResultSet and StreamingResultSet) ----------


class NonMonotonicSeriesError(ValueError):
    """A family-by-delay series has an IPv4 win *below* an IPv6 win.

    The paper calls such runs "inconsistencies": the client flapped,
    and reporting a single crossover delay would mask that.  The
    offending window is exposed via :attr:`flap_window`.
    """

    def __init__(self, client: str, case: str,
                 flap_window: "Tuple[int, int]") -> None:
        self.client = client
        self.case = case
        self.flap_window = flap_window
        super().__init__(
            f"family-by-delay series for client {client!r}, case {case!r} "
            f"is non-monotonic: IPv4 established at {flap_window[0]} ms "
            f"but IPv6 again at {flap_window[1]} ms — the client is "
            "flapping, so a single crossover delay is undefined")


def majority_family(votes: "Mapping[Family, int]") -> Family:
    """The family winning most repetitions; ties break toward IPv4.

    The tie-break is deterministic and conservative: ambiguous
    evidence never credits a client with IPv6 reachability.
    """
    best = max(votes.values())
    for family in (Family.V4, Family.V6):
        if votes.get(family, 0) == best:
            return family
    raise ValueError(f"no votes: {dict(votes)!r}")  # pragma: no cover


def series_flap_window(series: "Mapping[int, Family]"
                       ) -> "Optional[Tuple[int, int]]":
    """``(v4_delay, v6_delay)`` of a non-monotonic pair, or None.

    A series is non-monotonic when some IPv4 outcome sits at a smaller
    delay than some IPv6 outcome — the smallest such IPv4 delay and
    the largest such IPv6 delay bound the flapping window.
    """
    v4 = [delay for delay, family in series.items() if family is Family.V4]
    v6 = [delay for delay, family in series.items() if family is Family.V6]
    if v4 and v6 and min(v4) < max(v6):
        return (min(v4), max(v6))
    return None


def crossover_from_series(series: "Mapping[int, Family]", client: str,
                          case: str) -> Optional[int]:
    """Largest delay still established via IPv6, validated monotone.

    Raises :class:`NonMonotonicSeriesError` when the series flaps —
    silently taking the max would hide an IPv4 win below an IPv6 win.
    """
    flap = series_flap_window(series)
    if flap is not None:
        raise NonMonotonicSeriesError(client, case, flap)
    v6_delays = [delay for delay, family in series.items()
                 if family is Family.V6]
    return max(v6_delays) if v6_delays else None


def _majority_series(votes: "Mapping[int, Mapping[Family, int]]"
                     ) -> Dict[int, Family]:
    return {value_ms: majority_family(per_value)
            for value_ms, per_value in votes.items() if per_value}


@dataclass
class ResultSet:
    """All runs of a campaign, with the aggregations the paper reports."""

    records: List[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def for_client(self, client: str) -> List[RunRecord]:
        return [r for r in self.records if r.client == client]

    def for_case(self, case: str) -> List[RunRecord]:
        return [r for r in self.records if r.case == case]

    def median_cad(self, client: str) -> Optional[float]:
        values = [r.cad_s for r in self.for_client(client)
                  if r.cad_s is not None]
        return median(values) if values else None

    def family_by_delay(self, client: str, case: str
                        ) -> Dict[int, Family]:
        """delay_ms -> established family (the Figure 2 series).

        With ``repetitions > 1`` each delay aggregates by majority
        vote across repetitions (ties break toward IPv4), so the
        series is independent of record order — a last-write-wins
        dict would silently let the final repetition overwrite all
        earlier ones.
        """
        votes: Dict[int, Dict[Family, int]] = {}
        for record in self.records:
            if (record.client == client and record.case == case
                    and record.winning_family is not None):
                per_value = votes.setdefault(record.value_ms, {})
                per_value[record.winning_family] = \
                    per_value.get(record.winning_family, 0) + 1
        return _majority_series(votes)

    def is_monotonic(self, client: str, case: str) -> bool:
        """False when the series has an IPv4 win below an IPv6 win."""
        return series_flap_window(
            self.family_by_delay(client, case)) is None

    def observed_cad_crossover(self, client: str, case: str
                               ) -> Optional[int]:
        """Largest delay (ms) still established via IPv6.

        Raises :class:`NonMonotonicSeriesError` for flapping clients
        instead of silently reporting the max IPv6 delay.
        """
        return crossover_from_series(
            self.family_by_delay(client, case), client, case)

    def __len__(self) -> int:
        return len(self.records)


class StreamingResultSet:
    """Incremental aggregation over a stream of run records.

    Consumes records one at a time and keeps only aggregates — family
    votes per (client, case, delay) and CAD samples per client — so a
    million-run campaign aggregates in memory proportional to its
    *configuration space*, not its run count.  The aggregation API
    (:meth:`median_cad`, :meth:`family_by_delay`,
    :meth:`observed_cad_crossover`) matches :class:`ResultSet` and
    produces identical values, which the tests enforce.
    """

    def __init__(self) -> None:
        self.total = 0
        self.completed = 0
        self.errors = 0
        self._cads: Dict[str, List[float]] = {}
        self._votes: Dict[Tuple[str, str],
                          Dict[int, Dict[Optional[Family], int]]] = {}

    @classmethod
    def consume(cls, records: "Iterable[RunRecord]"
                ) -> "StreamingResultSet":
        """Drain ``records`` into a new aggregate, discarding each
        record as soon as its contribution is tallied."""
        aggregate = cls()
        for record in records:
            aggregate.add(record)
        return aggregate

    def add(self, record: RunRecord) -> None:
        self.total += 1
        if record.completed:
            self.completed += 1
        if record.error is not None:
            self.errors += 1
        if record.cad_s is not None:
            self._cads.setdefault(record.client, []).append(record.cad_s)
        per_case = self._votes.setdefault((record.client, record.case), {})
        per_value = per_case.setdefault(record.value_ms, {})
        per_value[record.winning_family] = \
            per_value.get(record.winning_family, 0) + 1

    def median_cad(self, client: str) -> Optional[float]:
        values = self._cads.get(client)
        return median(values) if values else None

    def family_by_delay(self, client: str, case: str
                        ) -> Dict[int, Family]:
        """Identical to :meth:`ResultSet.family_by_delay` (majority
        vote across repetitions, ties toward IPv4)."""
        votes = self._votes.get((client, case), {})
        real_votes: Dict[int, Dict[Family, int]] = {}
        for value_ms, per_value in votes.items():
            non_null = {family: count for family, count in per_value.items()
                        if family is not None}
            if non_null:
                real_votes[value_ms] = non_null
        return _majority_series(real_votes)

    def outcomes(self, client: str, case: str
                 ) -> "List[Tuple[int, Optional[Family]]]":
        """Sorted ``(delay_ms, majority family or None)`` — the
        Figure 2 row, including delays where no run established."""
        votes = self._votes.get((client, case), {})
        series = self.family_by_delay(client, case)
        return [(value_ms, series.get(value_ms))
                for value_ms in sorted(votes)]

    def is_monotonic(self, client: str, case: str) -> bool:
        return series_flap_window(
            self.family_by_delay(client, case)) is None

    def observed_cad_crossover(self, client: str, case: str
                               ) -> Optional[int]:
        return crossover_from_series(
            self.family_by_delay(client, case), client, case)

    def __len__(self) -> int:
        return self.total


class TestRunner:
    """Drives a measurement campaign over client profiles."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, clients: Sequence[ClientProfile],
                 cases: Sequence[TestCaseConfig], seed: int = 0,
                 resolver_timeout: float = 5.0,
                 hev3_flag: bool = False,
                 store: Optional[CampaignStore] = None,
                 resilience: "Optional[Resilience]" = None) -> None:
        if not clients:
            raise ValueError("runner needs at least one client profile")
        if not cases:
            raise ValueError("runner needs at least one test case")
        self.clients = list(clients)
        self.cases = list(cases)
        self.seed = seed
        self.resolver_timeout = resolver_timeout
        self.hev3_flag = hev3_flag
        self.store = store
        #: Fault-tolerant runtime bundle (retry policy, fault plan,
        #: campaign journal) — None keeps the historical fail-fast
        #: behavior on every path.
        self.resilience = resilience

    # -- campaign --------------------------------------------------------------

    def run(self, workers: Optional[int] = None) -> ResultSet:
        """Execute the campaign; ``workers=N`` fans runs out over N
        processes (default: serial, preserving exact current behavior).

        Run seeds are stable digests of the run coordinates, so the
        parallel path returns records identical to the serial path, in
        the same deterministic enumeration order.  With a ``store``
        attached, unchanged runs come back from the cache —
        byte-identical to fresh execution.
        """
        results = ResultSet()
        for record in self.stream(workers=workers):
            results.add(record)
        return results

    def stream(self, workers: Optional[int] = None
               ) -> "Iterator[RunRecord]":
        """The campaign as an iterator, in enumeration order.

        The streaming interface never materializes the full record
        list on the *execution* path: consumers aggregate
        incrementally (see :class:`StreamingResultSet`), so cold
        campaigns run in bounded memory regardless of size.  With a
        store attached, cache *hits* are resolved in one batched
        lookup up front and popped as the stream drains — warm memory
        is proportional to the resolved hit count.  The misses run
        through :func:`~repro.fanout.shared_map`, in-process or over
        ``workers`` processes, under the attached resilience policy.
        """
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        return resolve_specs(self, self.enumerate_specs(), lambda pending: (
            shared_map(partial(run_spec, self), pending, workers,
                       self.resilience, partial(spec_label, self),
                       self._failure_record)))

    def enumerate_specs(self) -> "List[RunSpec]":
        """Every run's coordinates, in campaign enumeration order.

        The default campaign shape is the full ``cases × clients``
        cross product; subclasses redefine the pairing (the population
        sampler pairs ``cases[i]`` with ``clients[i]``) and every
        consumer — streaming, key planning, resilience — follows
        automatically.
        """
        specs: "List[RunSpec]" = []
        for case_index, case in enumerate(self.cases):
            for client_index in range(len(self.clients)):
                for value_ms in case.sweep:
                    for repetition in range(case.repetitions):
                        specs.append(RunSpec(case_index, client_index,
                                             value_ms, repetition))
        return specs

    def _failure_record(self, spec: RunSpec, failure) -> RunRecord:
        """The harness-failure record of a spec out of retries."""
        return failure_record(self.cases[spec.case_index],
                              self.clients[spec.client_index],
                              spec.value_ms, spec.repetition, failure)

    # -- caching ------------------------------------------------------------------

    def store_keys(self) -> "Iterator[str]":
        """The content address of every run in this campaign, in
        enumeration order, without executing anything.  ``repro cache
        gc`` uses this to mark a campaign's entries as live."""
        yield from spec_keys(self, self.enumerate_specs())

    def run_seed_for(self, case: TestCaseConfig, profile: ClientProfile,
                     value_ms: int, repetition: int) -> int:
        """The stable seed of one run (see :func:`.parallel.run_seeds`)."""
        return run_seeds(self, case, profile)(render_part(value_ms),
                                              render_part(repetition))

    def config_digest_for(self, case: TestCaseConfig,
                          profile: ClientProfile) -> str:
        """Content digest of everything configuration-shaped that can
        influence a run: the case and profile dataclasses plus the
        runner-level knobs.  Any field change misses the cache —
        except the sweep values and the repetition count, which are
        neutralized first: a run's behaviour is a pure function of its
        *own* ``(value_ms, repetition)`` coordinates, never of which
        other values share the campaign.  That is what makes the
        two-phase coarse→fine strategy nearly free on a warm cache —
        the fine pass hits every coarse value it overlaps — and lets a
        higher repetition count reuse all earlier repetitions."""
        case_identity = replace(case, sweep=_NEUTRAL_SWEEP, repetitions=1)
        return config_digest(case_identity, profile,
                             self.resolver_timeout, self.hev3_flag)

    def store_key_for(self, case: TestCaseConfig, profile: ClientProfile,
                      value_ms: int, repetition: int) -> str:
        """The store key of one run (see :func:`.parallel.run_keys`)."""
        return run_keys(self, case, profile)(value_ms, repetition)

    # -- one run ------------------------------------------------------------------

    def run_single(self, case: TestCaseConfig, profile: ClientProfile,
                   value_ms: int, repetition: int = 0) -> RunRecord:
        """One fully isolated test run (fresh testbed + client)."""
        run_seed = self.run_seed_for(case, profile, value_ms, repetition)
        testbed = LocalTestbed(seed=run_seed,
                               resolver_timeout=self.resolver_timeout)
        modules = modules_for(case)
        run_label = f"v{value_ms}r{repetition}"
        for module in modules:
            module.on_case_start(testbed, case)
        for module in modules:
            module.on_run_start(testbed, case, value_ms, run_label)

        hostname = self._hostname_for(case, modules, testbed, value_ms)
        client = Client(
            testbed.client, profile, testbed.resolver_addresses[:1],
            history=HistoryStore(),
            hev3_flag=self.hev3_flag and profile.hev3_flag_available)
        capture = self._find_capture(modules)

        process = client.connect(hostname)
        process.defused = True  # failures are data, not crashes
        testbed.sim.run(until=testbed.sim.now + case.run_timeout)

        record = RunRecord(
            case=case.name, kind=case.kind, client=profile.full_name,
            value_ms=value_ms, repetition=repetition,
            completed=process.triggered)
        if process.triggered:
            if process.ok:
                he_result = process.value
                record.duration_s = he_result.time_to_connect
            else:
                record.error = str(process.exception)
        self._observe(record, capture)
        for module in modules:
            module.on_run_end(testbed, case, value_ms)
        return record

    # -- helpers -----------------------------------------------------------------

    def _hostname_for(self, case: TestCaseConfig, modules, testbed,
                      value_ms: int) -> str:
        if case.kind is TestCaseKind.ADDRESS_SELECTION:
            for module in modules:
                if isinstance(module, AddressSelectionModule):
                    assert module.last_hostname is not None
                    return module.last_hostname
        if case.service is not None:
            for module in modules:
                if isinstance(module, ServiceModule):
                    assert module.last_hostname is not None
                    return module.last_hostname
        # Unique per sweep value, deliberately *shared* across
        # repetitions: every run gets a fresh testbed (no cross-run
        # DNS caching to defeat), and a repetition-independent qname —
        # with the stub's deterministic per-run query ids — makes the
        # DNS payload bytes of repeated runs identical, so
        # CaptureObservation's payload interning decodes them once per
        # campaign instead of once per repetition.
        return testbed.unique_hostname(f"{case.kind.value}-v{value_ms}")

    @staticmethod
    def _find_capture(modules) -> PacketCapture:
        for module in modules:
            if isinstance(module, CaptureModule):
                assert module.capture is not None
                return module.capture
        raise RuntimeError("capture module missing from chain")

    @staticmethod
    def _observe(record: RunRecord, capture: PacketCapture) -> None:
        """Black-box inference: everything comes from the capture.

        One :class:`CaptureObservation` walks the capture once and
        decodes each DNS payload once; every recorded field derives
        from that single pass.
        """
        observation = CaptureObservation(capture)
        record.winning_family = observation.established_family
        record.winning_protocol = observation.established_protocol
        record.cad_s = observation.cad
        record.rd_s = observation.resolution_delay
        record.time_to_first_attempt_s = observation.time_to_first_attempt
        record.aaaa_first = observation.aaaa_first
        record.queried_https = observation.queried_https
        record.attempts = observation.attempt_sequence
        record.attempts_v4 = observation.attempts_per_family[Family.V4]
        record.attempts_v6 = observation.attempts_per_family[Family.V6]
        record.attempts_quic = observation.attempts_quic
        record.first_attempt_port = observation.first_attempt_port
