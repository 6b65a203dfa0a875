"""Declarative campaign specifications (the framework's config file).

The paper's framework is driven by configuration: "They consist of a
config file instructing the framework which executables to run when …
The clients are defined separately from the test cases" (§4.3(i),
App. Figure 3).  This module is that seam: a campaign is a plain dict
(JSON/TOML-shaped — no parser dependency) naming clients by
registry key and test cases by kind with their sweep parameters.
Every malformed stanza raises :class:`SpecError`, including a key no
stanza knows (a typo never passes as a default).

Example::

    spec = {
        "seed": 7,
        "resolver_timeout": 5.0,
        "clients": [
            {"name": "Chrome", "version": "130.0"},
            {"name": "Firefox", "version": "132.0", "hev3_flag": false},
        ],
        "cases": [
            {"kind": "cad", "sweep": {"start": 0, "stop": 400, "step": 25}},
            {"kind": "rd", "sweep": {"values": [500, 1000]}},
            {"kind": "address-selection", "addresses_per_family": 10},
        ],
    }
    results = run_campaign_spec(spec)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..clients.profile import ClientProfile
from ..clients.registry import get_profile
from ..dns.rdata import RdataType
from ..experiments.base import Session
from ..faults import FaultPlan, FaultPlanError
from ..simnet.addr import Family
from ..simnet.packet import Protocol
from .config import ImpairmentSpec, SweepSpec, TestCaseConfig, TestCaseKind
from .resilience import Resilience, RetryPolicy
from .runner import RunRecord, TestRunner
from .store import CampaignStore

_DEFAULT_SWEEPS: Dict[TestCaseKind, SweepSpec] = {
    TestCaseKind.CONNECTION_ATTEMPT_DELAY: SweepSpec.range(0, 400, 25),
    TestCaseKind.RESOLUTION_DELAY: SweepSpec.fixed(200, 500, 1000, 2000),
    TestCaseKind.DELAYED_A: SweepSpec.fixed(200, 500, 1000, 2000),
    TestCaseKind.ADDRESS_SELECTION: SweepSpec.fixed(0),
    TestCaseKind.IMPAIRMENT: SweepSpec.fixed(0),
}

_FAMILIES = {"v4": Family.V4, "ipv4": Family.V4,
             "v6": Family.V6, "ipv6": Family.V6}


class SpecError(ValueError):
    """A campaign specification is malformed."""


def _check_stanza(data: Any, what: str, known: "frozenset[str]") -> None:
    """``data`` must be a mapping whose keys are all in ``known``: a
    misspelt key is an error, never a silently ignored setting."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{what} stanza must be a mapping, got {data!r}")
    unknown = set(data) - known
    if unknown:
        raise SpecError(f"unknown {what} fields: "
                        f"{sorted(map(str, unknown))}")


def _stanzas(data: Mapping[str, Any], key: str) -> List[Any]:
    """The non-empty list under ``key``."""
    items = data.get(key)
    if not isinstance(items, (list, tuple)) or not items:
        raise SpecError(f"campaign needs a non-empty list of {key}, "
                        f"got {items!r}")
    return list(items)


def _number(data: Mapping[str, Any], key: str, default: Any,
            kind: type = int) -> Any:
    """``data[key]`` (or ``default``) converted by ``kind``; an integer
    field takes no bool and no fractional float (``int`` would
    truncate them silently)."""
    raw = data.get(key, default)
    noun = "an integer" if kind is int else "a number"
    if kind is int and (isinstance(raw, bool) or (
            isinstance(raw, float) and not raw.is_integer())):
        raise SpecError(f"{key} must be {noun}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{key} must be {noun}, got {raw!r}") from exc


_CAMPAIGN_FIELDS = frozenset({
    "clients", "cases", "seed", "resolver_timeout", "workers", "cache_dir",
    "retries", "entry_timeout", "faults"})
_CASE_FIELDS = frozenset({
    "kind", "name", "sweep", "repetitions", "addresses_per_family",
    "run_timeout", "impairments"})
_CLIENT_FIELDS = frozenset({"name", "version", "hev3_flag"})
_SWEEP_FIELDS = frozenset({"values", "start", "stop", "step"})
_FAULTS_FIELDS = frozenset({"plan", "seed"})
_IMPAIRMENT_FIELDS = frozenset({
    "family", "protocol", "value_scaled", "delay_s", "jitter_s",
    "jitter_correlation", "loss", "reorder_probability", "reorder_gap_s",
    "rate_bps", "dns_rtype", "name"})


def parse_sweep(data: Optional[Mapping[str, Any]],
                kind: TestCaseKind) -> SweepSpec:
    """Parse a sweep stanza: explicit values, a range, or the default."""
    if data is None:
        return _DEFAULT_SWEEPS[kind]
    _check_stanza(data, "sweep", _SWEEP_FIELDS)
    if "values" in data and ("start" in data or "stop" in data):
        raise SpecError("sweep takes either 'values' or a range, not both")
    if "values" in data:
        values = data["values"]
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(f"sweep values must be a non-empty list, "
                            f"got {values!r}")
        try:
            return SweepSpec.fixed(*values)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad sweep values {values!r}: {exc}") from exc
    if "stop" not in data:
        raise SpecError(f"sweep needs 'values' or a range with 'stop': "
                        f"{dict(data)!r}")
    start, stop, step = (_number(data, "start", 0),
                         _number(data, "stop", None),
                         _number(data, "step", 25))
    try:
        return SweepSpec.range(start, stop, step)
    except ValueError as exc:
        raise SpecError(f"bad sweep range: {exc}") from exc


def parse_impairment(data: Mapping[str, Any]) -> ImpairmentSpec:
    """Parse one impairment stanza (the declarative ``tc`` line)."""
    _check_stanza(data, "impairment", _IMPAIRMENT_FIELDS)
    family = data.get("family")
    if family is not None:
        try:
            family = _FAMILIES[str(family).lower()]
        except KeyError as exc:
            raise SpecError(f"unknown family {family!r} "
                            f"(valid: {sorted(_FAMILIES)})") from exc
    protocol = data.get("protocol")
    if protocol is not None:
        try:
            protocol = Protocol(str(protocol).lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in Protocol)
            raise SpecError(f"unknown protocol {data['protocol']!r} "
                            f"(valid: {valid})") from exc
    dns_rtype = data.get("dns_rtype")
    if dns_rtype is not None:
        try:
            dns_rtype = RdataType[str(dns_rtype).upper()]
        except KeyError as exc:
            raise SpecError(
                f"unknown dns_rtype {data['dns_rtype']!r}") from exc
    try:
        return ImpairmentSpec(
            family=family, protocol=protocol,
            value_scaled=bool(data.get("value_scaled", False)),
            delay_s=float(data.get("delay_s", 0.0)),
            jitter_s=float(data.get("jitter_s", 0.0)),
            jitter_correlation=float(data.get("jitter_correlation", 0.0)),
            loss=float(data.get("loss", 0.0)),
            reorder_probability=float(data.get("reorder_probability", 0.0)),
            reorder_gap_s=float(data.get("reorder_gap_s", 0.001)),
            rate_bps=(float(data["rate_bps"])
                      if data.get("rate_bps") is not None else None),
            dns_rtype=dns_rtype,
            name=str(data.get("name", "")))
    except ValueError as exc:
        raise SpecError(f"bad impairment stanza: {exc}") from exc


def parse_case(data: Mapping[str, Any]) -> TestCaseConfig:
    """Parse one test-case stanza."""
    _check_stanza(data, "test case", _CASE_FIELDS)
    try:
        kind = TestCaseKind(data["kind"])
    except KeyError as exc:
        raise SpecError("test case needs a 'kind'") from exc
    except ValueError as exc:
        valid = ", ".join(k.value for k in TestCaseKind)
        raise SpecError(
            f"unknown case kind {data['kind']!r} (valid: {valid})") from exc
    impairments = data.get("impairments", ())
    if not isinstance(impairments, (list, tuple)):
        raise SpecError(f"impairments must be a list, got {impairments!r}")
    fields = dict(
        name=data.get("name", kind.value),
        kind=kind,
        sweep=parse_sweep(data.get("sweep"), kind),
        repetitions=_number(data, "repetitions", 1),
        addresses_per_family=_number(data, "addresses_per_family", 10),
        run_timeout=_number(data, "run_timeout", 30.0, float),
        impairments=tuple(parse_impairment(i) for i in impairments),
    )
    try:
        return TestCaseConfig(**fields)
    except ValueError as exc:
        raise SpecError(f"bad test case {fields['name']!r}: {exc}") from exc


def parse_client(data: Mapping[str, Any]) -> ClientProfile:
    """Parse one client stanza (registry lookup + optional HEv3 flag)."""
    _check_stanza(data, "client", _CLIENT_FIELDS)
    try:
        profile = get_profile(data["name"], data.get("version"))
    except KeyError as exc:
        raise SpecError(str(exc)) from exc
    if data.get("hev3_flag"):
        profile = profile.with_hev3_flag()
    return profile


@dataclass
class CampaignSpec:
    """A parsed, validated campaign definition."""

    clients: List[ClientProfile]
    cases: List[TestCaseConfig]
    seed: int = 0
    resolver_timeout: float = 5.0
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    #: Fault-tolerance stanzas: per-entry retry budget, per-entry
    #: watchdog in seconds, and a chaos fault plan (the declarative
    #: twin of the CLI's ``--retries/--entry-timeout/--fault-plan``).
    retries: int = 0
    entry_timeout: Optional[float] = None
    faults: Optional[FaultPlan] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        _check_stanza(data, "campaign", _CAMPAIGN_FIELDS)
        clients = _stanzas(data, "clients")
        cases = _stanzas(data, "cases")
        workers = data.get("workers")
        if workers is not None:
            workers = _number(data, "workers", None)
            if workers < 1:
                raise SpecError(f"workers must be >= 1: {workers}")
        cache_dir = data.get("cache_dir")
        seed = _number(data, "seed", 0)
        entry_timeout = data.get("entry_timeout")
        if entry_timeout is not None:
            entry_timeout = _number(data, "entry_timeout", None, float)
        retries = _number(data, "retries", 0)
        if retries < 0:
            raise SpecError(f"retries must be >= 0: {retries}")
        resolver_timeout = _number(data, "resolver_timeout", 5.0, float)
        if not 0.0 < resolver_timeout < math.inf:
            raise SpecError(
                f"resolver_timeout must be a finite positive duration "
                f"in seconds: {resolver_timeout!r}")
        faults = data.get("faults")
        plan = None
        if faults is not None:
            # Either a plan string ("crash:0.3,corrupt:0.5") or a
            # stanza {"plan": "...", "seed": N}; the plan seed
            # defaults to the campaign seed so chaos replays with it.
            if isinstance(faults, str):
                faults = {"plan": faults}
            if not isinstance(faults, Mapping) or "plan" not in faults:
                raise SpecError(
                    f"faults stanza needs a 'plan' string: {faults!r}")
            _check_stanza(faults, "faults", _FAULTS_FIELDS)
            try:
                plan = FaultPlan.parse(str(faults["plan"]),
                                       seed=_number(faults, "seed", seed))
            except FaultPlanError as exc:
                raise SpecError(f"bad fault plan: {exc}") from exc
        return cls(
            clients=[parse_client(c) for c in clients],
            cases=[parse_case(c) for c in cases],
            seed=seed,
            resolver_timeout=resolver_timeout,
            workers=workers,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            retries=retries,
            entry_timeout=entry_timeout,
            faults=plan,
        )

    def build_resilience(self) -> Optional[Resilience]:
        """The resilient-runtime bundle this spec asks for, or None
        when every stanza is at its fail-fast default."""
        if not (self.retries or self.entry_timeout or self.faults):
            return None
        try:
            policy = RetryPolicy(retries=self.retries,
                                 entry_timeout=self.entry_timeout,
                                 backoff_seed=self.seed)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        return Resilience(policy=policy, fault_plan=self.faults)

    def build_runner(self) -> TestRunner:
        return TestRunner(self.clients, self.cases, seed=self.seed,
                          resolver_timeout=self.resolver_timeout)

    def total_runs(self) -> int:
        return len(self.clients) * sum(
            len(case.sweep) * case.repetitions for case in self.cases)


def run_campaign_spec(data: Mapping[str, Any]) -> List[RunRecord]:
    """Parse and execute a campaign specification in one call; the
    records come back in enumeration order.

    The spec's ``workers`` stanza sets the worker count; results are
    identical either way — parallel campaigns replay the serial
    enumeration order exactly.  A ``cache_dir`` stanza attaches the
    incremental campaign store, so unchanged runs come back from cache
    byte-identically instead of re-executing.
    """
    spec = CampaignSpec.from_dict(data)
    store = CampaignStore(spec.cache_dir) if spec.cache_dir else None
    return spec.build_runner().run(Session(
        seed=spec.seed, workers=spec.workers, store=store,
        resilience=spec.build_resilience()))
