"""Declarative campaign specifications (the framework's config file).

The paper's framework is driven by configuration: "They consist of a
config file instructing the framework which executables to run when …
The clients are defined separately from the test cases" (§4.3(i),
App. Figure 3).  This module is that seam: a campaign is a plain dict
(JSON/TOML-shaped — no parser dependency) naming clients by
registry key and test cases by kind with their sweep parameters.

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


def parse_sweep(data: Optional[Mapping[str, Any]],
                kind: TestCaseKind) -> SweepSpec:
    """Parse a sweep stanza: explicit values, a range, or the default."""
    if data is None:
        return _DEFAULT_SWEEPS[kind]
    if "values" in data and ("start" in data or "stop" in data):
        raise SpecError("sweep takes either 'values' or a range, not both")
    if "values" in data:
        values = data["values"]
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError(f"sweep values must be a non-empty list, "
                            f"got {values!r}")
        return SweepSpec.fixed(*values)
    if "start" in data or "stop" in data:
        try:
            return SweepSpec.range(int(data.get("start", 0)),
                                   int(data["stop"]),
                                   int(data.get("step", 25)))
        except KeyError as exc:
            raise SpecError("sweep range needs 'stop'") from exc
    raise SpecError(f"unintelligible sweep stanza: {dict(data)!r}")


def parse_impairment(data: Mapping[str, Any]) -> ImpairmentSpec:
    """Parse one impairment stanza (the declarative ``tc`` line)."""
    known = {"family", "protocol", "value_scaled", "delay_s", "jitter_s",
             "jitter_correlation", "loss", "reorder_probability",
             "reorder_gap_s", "rate_bps", "dns_rtype", "name"}
    unknown = set(data) - known
    if unknown:
        raise SpecError(f"unknown impairment fields: {sorted(unknown)}")
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
    try:
        kind = TestCaseKind(data["kind"])
    except KeyError as exc:
        raise SpecError("test case needs a 'kind'") from exc
    except ValueError as exc:
        valid = ", ".join(k.value for k in TestCaseKind)
        raise SpecError(
            f"unknown case kind {data['kind']!r} (valid: {valid})") from exc
    sweep = parse_sweep(data.get("sweep"), kind)
    return TestCaseConfig(
        name=data.get("name", kind.value),
        kind=kind,
        sweep=sweep,
        repetitions=int(data.get("repetitions", 1)),
        addresses_per_family=int(data.get("addresses_per_family", 10)),
        run_timeout=float(data.get("run_timeout", 30.0)),
        impairments=tuple(parse_impairment(i)
                          for i in data.get("impairments", ())),
    )


def parse_client(data: Mapping[str, Any]) -> ClientProfile:
    """Parse one client stanza (registry lookup + optional HEv3 flag)."""
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
        if "clients" not in data or not data["clients"]:
            raise SpecError("campaign needs at least one client")
        if "cases" not in data or not data["cases"]:
            raise SpecError("campaign needs at least one test case")
        workers = data.get("workers")
        cache_dir = data.get("cache_dir")
        seed = int(data.get("seed", 0))
        entry_timeout = data.get("entry_timeout")
        retries = int(data.get("retries", 0))
        if retries < 0:
            raise SpecError(f"retries must be >= 0: {retries}")
        resolver_timeout = float(data.get("resolver_timeout", 5.0))
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
            try:
                plan = FaultPlan.parse(str(faults["plan"]),
                                       seed=int(faults.get("seed", seed)))
            except FaultPlanError as exc:
                raise SpecError(f"bad fault plan: {exc}") from exc
        return cls(
            clients=[parse_client(c) for c in data["clients"]],
            cases=[parse_case(c) for c in data["cases"]],
            seed=seed,
            resolver_timeout=resolver_timeout,
            workers=int(workers) if workers is not None else None,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            retries=retries,
            entry_timeout=(float(entry_timeout)
                           if entry_timeout is not None else None),
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


def run_campaign_spec(data: Mapping[str, Any],
                      workers: Optional[int] = None,
                      store: Optional[CampaignStore] = None
                      ) -> List[RunRecord]:
    """Parse and execute a campaign specification in one call; the
    records come back in enumeration order.

    ``workers`` overrides the spec's own ``workers`` stanza; results
    are identical either way — parallel campaigns replay the serial
    enumeration order exactly.  ``store`` (or a ``cache_dir`` stanza)
    attaches the incremental campaign store, so unchanged runs come
    back from cache byte-identically instead of re-executing.
    """
    spec = CampaignSpec.from_dict(data)
    if store is None and spec.cache_dir:
        store = CampaignStore(spec.cache_dir)
    return spec.build_runner().run(Session(
        seed=spec.seed,
        workers=workers if workers is not None else spec.workers,
        store=store, resilience=spec.build_resilience()))
