"""Builders for every table in the paper.

Each ``tableN_*`` function *runs the measurement* (on models, through
the real framework) and returns structured rows; the benches render
and validate them.  Nothing here copies expected outputs — values come
out of captures and query logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

from ..clients.profile import ClientProfile
from ..clients.registry import table2_clients
from ..core.params import (HEParams, RFC_PARAMETER_SETS)
from ..experiments.base import Session
from ..simnet.addr import Family
from ..testbed.config import (SweepSpec, TestCaseConfig, TestCaseKind,
                              address_selection_case)
from ..testbed.parallel import Plan, resolve_specs
from ..webtool.report import ConsistencyMark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resolvers.testbed import ResolverCampaignResult
    from ..testbed.runner import RunRecord
    from ..webtool.campaign import CampaignResult

# --------------------------------------------------------------------------
# Table 1 — parameter comparison across HE versions
# --------------------------------------------------------------------------


def table1_parameters() -> "Tuple[List[str], List[List[str]]]":
    """Parameters of HEv1/HEv2/HEv3 (headers, rows), from the presets."""
    v1, v2, v3 = RFC_PARAMETER_SETS
    headers = ["Parameter", "HEv1 (2012)", "HEv2 (2017)",
               "HEv3 (2025-ongoing)"]

    def rd(params: HEParams) -> str:
        if (params.resolution_delay is None
                or params.resolution_policy.name != "HE_V2"):
            return "-"
        return f"{params.resolution_delay * 1000:.0f} ms"

    def protocols(params: HEParams) -> str:
        base = "IPv4, IPv6"
        if params.version.name != "V1":
            base += ", DNS"
        if params.race_quic:
            base += ", QUIC"
        return base

    def records(params: HEParams) -> str:
        if params.version.name == "V1":
            return "-"
        if params.use_svcb:
            return "SVCB, HTTPS, AAAA, A"
        return "AAAA, A"

    def selection(params: HEParams) -> str:
        if params.interlace.name == "SEQUENTIAL":
            return "IPv6 once, then IPv4"
        if params.race_quic:
            return "alternating IP family and L4 protocol"
        return "alternating IP family"

    def fixed_cad(params: HEParams) -> str:
        if params.version.name == "V1":
            return "150-250 ms"
        return f"{params.connection_attempt_delay * 1000:.0f} ms"

    def dynamic_bounds(params: HEParams) -> str:
        if params.version.name == "V1":
            return "-"
        return (f"{params.minimum_cad * 1000:.0f} ms / "
                f"{params.recommended_cad * 1000:.0f} ms / "
                f"{params.maximum_cad:.0f} s")

    rows = []
    for label, fn in [("Considered protocols", protocols),
                      ("DNS Records", records),
                      ("Resolution Delay", rd),
                      ("Address selection", selection),
                      ("Fixed Conn. Attempt Delay", fixed_cad),
                      ("Min/Rec./Max when dynamic", dynamic_bounds)]:
        rows.append([label, fn(v1), fn(v2), fn(v3)])
    return headers, rows


# --------------------------------------------------------------------------
# Table 2 — HE feature evaluation of client applications
# --------------------------------------------------------------------------


@dataclass
class Table2Row:
    """One client's measured feature set."""

    client: str
    prefers_ipv6: Optional[bool] = None
    cad_implemented: Optional[bool] = None
    cad_value_ms: Optional[float] = None
    aaaa_first: Optional[bool] = None
    rd_implemented: Optional[bool] = None
    rd_value_ms: Optional[float] = None
    ipv4_addresses_used: Optional[int] = None
    ipv6_addresses_used: Optional[int] = None
    address_selection: Optional[bool] = None
    consistency: ConsistencyMark = ConsistencyMark.NOT_TESTED


#: Sweep for the Table 2 CAD probe: coarse, but reaching past Safari's 2 s.
_TABLE2_CAD_SWEEP = SweepSpec.fixed(0, 150, 250, 350, 400, 1000, 2500)


def table2_plan(seed: int = 0,
                clients: Optional[Sequence[ClientProfile]] = None) -> Plan:
    """The local campaign behind Table 2: the §4.1 CAD, RD and
    address-selection runs of every local-testbed client, client by
    client."""
    from ..testbed.runner import TestRunner

    cases = [TestCaseConfig(name="t2-cad",
                            kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                            sweep=_TABLE2_CAD_SWEEP),
             TestCaseConfig(name="t2-rd", kind=TestCaseKind.RESOLUTION_DELAY,
                            sweep=SweepSpec.fixed(1500)),
             address_selection_case()]
    entries: list = []
    for profile in (clients if clients is not None else table2_clients()):
        if profile.supports_local_tests:
            entries.extend(TestRunner([profile], cases, seed=seed,
                                      resolver_timeout=3.0).plan())
    return Plan(entries)


def _fold_features(row: Table2Row, records: "Sequence[RunRecord]") -> None:
    """One client's local test cases of §4.1, folded into its row."""
    zero_run: "Optional[RunRecord]" = None
    fallback_seen = False
    cads: List[float] = []
    rd_run: "Optional[RunRecord]" = None
    selection_run: "Optional[RunRecord]" = None
    for record in records:
        if record.case == "t2-cad":
            if record.value_ms == 0 and zero_run is None:
                zero_run = record
            if record.winning_family is Family.V4:
                fallback_seen = True
            if record.cad_s is not None:
                cads.append(record.cad_s)
        elif record.case == "t2-rd" and rd_run is None:
            rd_run = record
        elif record.case == "address-selection" and selection_run is None:
            selection_run = record
    assert zero_run is not None and rd_run is not None
    assert selection_run is not None

    row.prefers_ipv6 = zero_run.winning_family is Family.V6
    row.aaaa_first = zero_run.aaaa_first
    row.cad_implemented = fallback_seen
    if cads and row.cad_implemented:
        from statistics import median

        row.cad_value_ms = median(cads) * 1000.0

    # RD implemented: the IPv4 attempt starts well before the delayed
    # AAAA answer (1.5 s) would arrive.
    if rd_run.rd_s is not None:
        row.rd_implemented = rd_run.rd_s < 0.500
        if row.rd_implemented:
            row.rd_value_ms = rd_run.rd_s * 1000.0
    else:
        row.rd_implemented = False

    row.ipv6_addresses_used = selection_run.attempts_v6
    row.ipv4_addresses_used = selection_run.attempts_v4 or None
    # "Address selection" means more than HEv1's single fallback pair.
    row.address_selection = (selection_run.attempts_v6 > 1
                             or selection_run.attempts_v4 > 1)


def evaluate_client_features(profile: ClientProfile,
                             session: Optional[Session] = None
                             ) -> Table2Row:
    """Run the local test cases of §4.1 against one client under
    ``session`` (seeded by ``session.seed``; its store replays
    unchanged runs from the campaign cache)."""
    row = Table2Row(client=profile.full_name)
    if profile.supports_local_tests:
        session = session or Session()
        _fold_features(row, list(resolve_specs(
            table2_plan(session.seed, [profile]), session)))
    return row


def table2_features(web_campaign: "Optional[CampaignResult]" = None,
                    clients: Optional[Sequence[ClientProfile]] = None,
                    plan: Optional[Plan] = None,
                    session: Optional[Session] = None
                    ) -> List[Table2Row]:
    """The full Table 2: local features + web consistency validation.

    ``plan`` is :func:`table2_plan` for ``session.seed`` and the
    clients (built here when omitted); its runs resolve through the
    one executor under ``session``, so ``Session(workers=N)`` fans
    them out over N processes with rows identical to the serial path,
    in profile order.
    """
    from ..webtool.report import classify_consistency

    profiles = list(clients) if clients is not None else table2_clients()
    session = session or Session()
    if plan is None:
        plan = table2_plan(session.seed, profiles)
    local: "Dict[str, List[RunRecord]]" = {}
    for record in resolve_specs(plan, session):
        local.setdefault(record.client, []).append(record)
    aggregates = (web_campaign.by_browser() if web_campaign is not None
                  else {})
    rows: List[Table2Row] = []
    for profile in profiles:
        row = Table2Row(client=profile.full_name)
        if profile.supports_local_tests:
            _fold_features(row, local[profile.full_name])
        else:
            # Mobile rows: engine-level knowledge only (footnote 1).
            row.prefers_ipv6 = True
            row.cad_implemented = profile.implements_happy_eyeballs
            row.aaaa_first = profile.query_first.name == "AAAA"
            row.rd_implemented = profile.implements_resolution_delay
        aggregate = aggregates.get(_browser_key(profile))
        # Consistency compares web against local results, so it needs
        # both methods (mobile browsers get "-", like the paper).
        if (aggregate is not None and profile.supports_web_tests
                and profile.supports_local_tests):
            local_cad = (row.cad_value_ms if row.cad_value_ms is not None
                         else (2000.0 if profile.params.dynamic_cad
                               else None))
            row.consistency = classify_consistency(aggregate, local_cad)
        rows.append(row)
    return rows


def _browser_key(profile: ClientProfile) -> str:
    if profile.name in ("Mobile Safari", "Chrome Mobile",
                        "Firefox Mobile", "Samsung Internet"):
        return profile.name
    return profile.name.split(" ")[0]


def render_table2(rows: List[Table2Row]) -> str:
    from .render import render_mark, render_table

    headers = ["Client", "Prefers IPv6", "CAD Impl.", "AAAA first",
               "RD Impl.", "IPv4 Addrs.", "IPv6 Addrs.", "Addr. Sel.",
               "Consistency"]
    body = []
    for row in rows:
        body.append([
            row.client,
            render_mark(row.prefers_ipv6),
            render_mark(row.cad_implemented),
            render_mark(row.aaaa_first),
            render_mark(row.rd_implemented),
            row.ipv4_addresses_used,
            row.ipv6_addresses_used,
            render_mark(row.address_selection),
            row.consistency.symbol,
        ])
    return render_table(headers, body,
                        title="Table 2: HE feature evaluation")


# --------------------------------------------------------------------------
# Table 3 — resolver IPv6 usage at the authoritative name server
# --------------------------------------------------------------------------


@dataclass
class Table3Row:
    """One resolver service's behaviour as measured at our auth NS."""

    service: str
    aaaa_query: str
    ipv6_share: Optional[float]
    max_ipv6_delay_ms: Optional[int]
    ipv6_packets: Optional[int]
    campaign: "Optional[ResolverCampaignResult]" = None


#: Delay grid for the resolver sweep: hits every service's timeout.
RESOLVER_DELAY_GRID = [0, 25, 50, 100, 200, 250, 300, 376, 400, 500,
                       600, 800, 1000, 1250, 1500]


def _aaaa_mark_from_campaign(campaign: "ResolverCampaignResult",
                             glue_plan_name: str) -> str:
    before_probe = [o.aaaa_before_probe for o in campaign.observations
                    if o.aaaa_before_probe is not None]
    before_a = [o.aaaa_before_a for o in campaign.observations
                if o.aaaa_before_a is not None]
    if glue_plan_name == "SINGLE":
        return "either A or AAAA, never both"
    if not before_probe:
        return "no AAAA query observed"
    if before_a and all(before_a):
        return "AAAA before A"
    if before_probe and all(before_probe):
        return "AAAA after A"
    return "AAAA after IPv4 use"


def _table3_grid(delays_ms: Optional[List[int]]) -> List[int]:
    return [d for d in (delays_ms if delays_ms is not None
                        else RESOLVER_DELAY_GRID) if d > 0]


def _table3_subjects() -> "List[Tuple[str, Any]]":
    """Every local daemon and evaluated open service, as (name,
    behaviour), in table order."""
    from ..resolvers.models import LOCAL_RESOLVERS
    from ..resolvers.open_resolvers import evaluated_services

    subjects: "List[Tuple[str, Any]]" = [
        (behavior.name, behavior) for behavior in LOCAL_RESOLVERS]
    subjects += [(service.service, service.behavior)
                 for service in evaluated_services()]
    return subjects


def table3_plan(seed: int = 0, share_repetitions: int = 32,
                delay_repetitions: int = 3,
                delays_ms: Optional[List[int]] = None) -> Plan:
    """Every run a Table 3 render may reference, subject by subject:
    the share campaign, then the delay campaign with the IPv6 address
    forced first.

    Conservative: the delay campaign only runs for subjects whose
    share campaign shows IPv6 use, but the plan (and so ``repro cache
    gc``) keeps both unconditionally — keeping an unreferenced key is
    harmless, dropping a referenced one forces a re-execution.
    """
    from dataclasses import replace as dc_replace

    from ..resolvers.testbed import resolver_campaign_plan

    grid = _table3_grid(delays_ms)
    entries: list = []
    for _name, behavior in _table3_subjects():
        entries.extend(resolver_campaign_plan(
            behavior, [0], share_repetitions, seed))
        entries.extend(resolver_campaign_plan(
            dc_replace(behavior, v6_preference=1.0), grid,
            delay_repetitions, seed + 1))
    return Plan(entries)


def table3_resolvers(share_repetitions: int = 32,
                     delay_repetitions: int = 3,
                     delays_ms: Optional[List[int]] = None,
                     plan: Optional[Plan] = None,
                     session: Optional[Session] = None
                     ) -> List[Table3Row]:
    """Measure every local daemon and evaluated open service.

    Two campaigns per subject, mirroring the paper's methodology:

    * a *share* campaign (no shaping) measuring the AAAA-query pattern
      and how often IPv6 is chosen at the authoritative server;
    * a *delay* campaign over the shaped-delay grid with the IPv6
      address forced as first choice, measuring the reliable fallback
      point and the packet counts — run only for subjects whose share
      campaign used IPv6.

    ``plan`` is :func:`table3_plan` for ``session.seed`` and the same
    arguments (built here when omitted).  Each stage — every subject's
    share runs, then the delay runs it calls for — resolves in one
    executor call under ``session``, so ``Session(workers=N)`` fans
    runs out over N processes with rows identical to the serial path,
    and a session store replays unchanged runs.
    """
    from ..resolvers.testbed import ResolverCampaignResult

    session = session or Session()
    if plan is None:
        plan = table3_plan(session.seed, share_repetitions,
                           delay_repetitions, delays_ms)
    subjects = _table3_subjects()
    delay_runs = len(_table3_grid(delays_ms)) * delay_repetitions
    stride = share_repetitions + delay_runs
    starts = [index * stride for index in range(len(subjects))]

    def campaigns(stage_starts: "List[int]", offset: int,
                  length: int) -> "List[ResolverCampaignResult]":
        stage = [entry for start in stage_starts
                 for entry in plan[start + offset:start + offset + length]]
        observations = iter(resolve_specs(stage, session))
        return [ResolverCampaignResult(
            plan[start + offset].behavior.name if length else "",
            [next(observations) for _ in range(length)])
            for start in stage_starts]

    shares = campaigns(starts, 0, share_repetitions)
    probed = [start for start, share in zip(starts, shares)
              if share.ipv6_share]
    delayed = dict(zip(probed, campaigns(probed, share_repetitions,
                                         delay_runs)))
    rows: List[Table3Row] = []
    for start, (name, behavior), share_campaign in zip(starts, subjects,
                                                      shares):
        packets = share_campaign.max_v6_packets
        max_delay: Optional[int] = None
        delay_campaign = delayed.get(start)
        if delay_campaign is not None:
            packets = max(packets, delay_campaign.max_v6_packets)
            if not behavior.parallel_families:
                # Parallel-family services (DNS0.EU) make the fallback
                # delay unmeasurable — the paper's footnote 1.
                max_delay = delay_campaign.reliable_max_ipv6_delay_ms()
        rows.append(Table3Row(
            service=name,
            aaaa_query=_aaaa_mark_from_campaign(
                share_campaign, behavior.glue_plan.name),
            ipv6_share=share_campaign.ipv6_share,
            max_ipv6_delay_ms=max_delay,
            ipv6_packets=packets if packets else None,
            campaign=share_campaign))
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    from .render import format_percent, render_table

    headers = ["Service", "AAAA Query", "IPv6 Share", "Max. IPv6 Delay",
               "# IPv6 Packets"]
    body = []
    for row in rows:
        body.append([
            row.service, row.aaaa_query,
            format_percent(row.ipv6_share),
            (f"{row.max_ipv6_delay_ms} ms"
             if row.max_ipv6_delay_ms is not None else None),
            row.ipv6_packets,
        ])
    return render_table(headers, body,
                        title="Table 3: resolver IPv6 usage")


# --------------------------------------------------------------------------
# Table 4 — open resolver inventory + capability probe
# --------------------------------------------------------------------------


@dataclass
class Table4Row:
    service: str
    v4_addresses: int
    v6_addresses: int
    ipv6_only_capable: bool


def table4_inventory(seed: int = 0, probe: bool = True) -> List[Table4Row]:
    """The tested services, with the IPv6-only delegation probe run.

    Services the paper flags as incapable are modeled with an
    IPv4-only resolution backend, which the probe then discovers.
    """
    from ..resolvers.open_resolvers import OPEN_RESOLVERS
    from ..resolvers.testbed import probe_ipv6_only_capability

    rows: List[Table4Row] = []
    for service in OPEN_RESOLVERS:
        if probe:
            capable = probe_ipv6_only_capability(
                service.behavior,
                dual_stack_resolver=service.supports_ipv6_only_resolution,
                seed=seed)
        else:
            capable = service.supports_ipv6_only_resolution
        rows.append(Table4Row(service=service.service,
                              v4_addresses=service.v4_addresses,
                              v6_addresses=service.v6_addresses,
                              ipv6_only_capable=capable))
    return rows


def render_table4(rows: List[Table4Row]) -> str:
    from .render import render_table

    headers = ["Service", "# IPv4 Addrs.", "# IPv6 Addrs.",
               "IPv6-only capable"]
    body = [[row.service, row.v4_addresses, row.v6_addresses,
             "yes" if row.ipv6_only_capable else "no"]
            for row in rows]
    return render_table(headers, body,
                        title="Table 4: tested recursive resolvers")


# --------------------------------------------------------------------------
# Table 5 — browser/OS web measurement matrix
# --------------------------------------------------------------------------


def table5_matrix(campaign: "CampaignResult"
                  ) -> "Tuple[List[str], List[List[str]]]":
    """OS/browser combinations covered by a web campaign."""
    combos: Dict[Tuple[str, str], int] = {}
    for session in campaign.sessions:
        key = (session.os_name, session.browser)
        combos[key] = combos.get(key, 0) + 1
    headers = ["OS", "Browser", "Sessions"]
    rows = [[os_name, browser, str(count)]
            for (os_name, browser), count in sorted(combos.items())]
    return headers, rows
