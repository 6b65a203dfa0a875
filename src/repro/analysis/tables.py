"""Builders for every table in the paper.

Each ``tableN_*`` function *runs the measurement* (on models, through
the real framework) and returns structured rows; the benches render
and validate them.  Nothing here copies expected outputs — values come
out of captures and query logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clients.profile import ClientProfile
from ..clients.registry import table2_clients
from ..core.params import (HEParams, RFC_PARAMETER_SETS)
from ..fanout import shared_map
from ..resolvers.models import LOCAL_RESOLVERS
from ..resolvers.open_resolvers import (OPEN_RESOLVERS, OpenResolverService,
                                        evaluated_services)
from ..resolvers.testbed import (ResolverCampaignResult,
                                 probe_ipv6_only_capability,
                                 run_resolver_campaign)
from ..simnet.addr import Family
from ..testbed.config import (SweepSpec, TestCaseConfig, TestCaseKind,
                              address_selection_case)
from ..testbed.runner import ResultSet, RunRecord, TestRunner
from ..testbed.store import CacheStats, CampaignStore
from ..webtool.campaign import CampaignResult
from ..webtool.report import ConsistencyMark, classify_consistency

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


def table2_local_runner(profile: ClientProfile, seed: int = 0,
                        store: Optional[CampaignStore] = None
                        ) -> TestRunner:
    """The per-client local campaign behind Table 2 (shared by the
    feature evaluation and ``repro cache gc``'s key planning)."""
    cad_case_config = TestCaseConfig(
        name="t2-cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
        sweep=_TABLE2_CAD_SWEEP)
    rd_case_config = TestCaseConfig(
        name="t2-rd", kind=TestCaseKind.RESOLUTION_DELAY,
        sweep=SweepSpec.fixed(1500))
    selection_case = address_selection_case()
    return TestRunner([profile],
                      [cad_case_config, rd_case_config, selection_case],
                      seed=seed, resolver_timeout=3.0, store=store)


def evaluate_client_features(profile: ClientProfile, seed: int = 0,
                             store: Optional[CampaignStore] = None
                             ) -> Table2Row:
    """Run the local test cases of §4.1 against one client.

    Consumes the runner's streaming interface: records are folded into
    the row as they arrive (only the single RD and address-selection
    records are kept), so the campaign never materializes a record
    list.  ``store`` replays unchanged runs from the campaign cache.
    """
    row = Table2Row(client=profile.full_name)
    if not profile.supports_local_tests:
        return row

    runner = table2_local_runner(profile, seed=seed, store=store)

    zero_run: Optional[RunRecord] = None
    fallback_seen = False
    cads: List[float] = []
    rd_run: Optional[RunRecord] = None
    selection_run: Optional[RunRecord] = None
    for record in runner.stream():
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
    return row


def _evaluate_features_task(
        payload: "Tuple[ClientProfile, int, Optional[CampaignStore]]",
        attempt: int) -> "Tuple[Table2Row, Optional[CacheStats]]":
    """Process-pool entry point: evaluate one client's feature row
    (``attempt`` is unused: no fault plan reaches table tasks).

    Returns the row plus the task-local cache counters, so the parent
    can fold worker stats into the campaign total.
    """
    profile, seed, store = payload
    row = evaluate_client_features(profile, seed=seed, store=store)
    return row, (store.stats if store is not None else None)


def table2_features(seed: int = 0,
                    web_campaign: Optional[CampaignResult] = None,
                    clients: Optional[Sequence[ClientProfile]] = None,
                    workers: Optional[int] = None,
                    store: Optional[CampaignStore] = None
                    ) -> List[Table2Row]:
    """The full Table 2: local features + web consistency validation.

    ``workers=N`` evaluates the client profiles over N processes; rows
    are identical to the serial path (each profile's campaign is fully
    seeded by its own coordinates) and stay in profile order.
    """
    rows: List[Table2Row] = []
    profiles = list(clients) if clients is not None else table2_clients()
    aggregates = (web_campaign.by_browser() if web_campaign is not None
                  else {})
    # Each task gets a fresh store handle on the same directory: its
    # counters start at zero, so the parent can merge them whether the
    # task ran in-process or in a pool worker.
    payloads = [(profile, seed,
                 CampaignStore(store.root) if store is not None else None)
                for profile in profiles]
    base_rows = []
    for row, stats in shared_map(_evaluate_features_task, payloads,
                                 workers):
        base_rows.append(row)
        if store is not None and stats is not None:
            store.stats.merge(stats)
    for profile, row in zip(profiles, base_rows):
        if not profile.supports_local_tests:
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
    campaign: Optional[ResolverCampaignResult] = None


#: Delay grid for the resolver sweep: hits every service's timeout.
RESOLVER_DELAY_GRID = [0, 25, 50, 100, 200, 250, 300, 376, 400, 500,
                       600, 800, 1000, 1250, 1500]


def _aaaa_mark_from_campaign(campaign: ResolverCampaignResult,
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


def _measure_resolver_subject(
        payload: "Tuple[str, object, int, int, int, List[int], "
                 "Optional[CampaignStore]]",
        attempt: int) -> "Tuple[Table3Row, Optional[CacheStats]]":
    """Share + shaped-delay campaigns for one resolver subject
    (``attempt`` is unused: no fault plan reaches table tasks).

    Top-level so process pools can pickle it; each call builds its own
    testbeds, so subjects parallelize with no shared state.  Returns
    the row plus the task-local cache counters (like the Table 2
    tasks), so the parent can fold worker stats into the total.
    """
    from dataclasses import replace as dc_replace

    (name, behavior, seed, share_repetitions, delay_repetitions, grid,
     store) = payload
    share_campaign = run_resolver_campaign(
        behavior, delays_ms=[0], repetitions=share_repetitions,
        seed=seed, store=store)
    share = share_campaign.ipv6_share
    packets = share_campaign.max_v6_packets
    max_delay: Optional[int] = None
    if share and share > 0:
        forced = dc_replace(behavior, v6_preference=1.0)
        delay_campaign = run_resolver_campaign(
            forced, delays_ms=grid, repetitions=delay_repetitions,
            seed=seed + 1, store=store)
        packets = max(packets, delay_campaign.max_v6_packets)
        if not behavior.parallel_families:
            # Parallel-family services (DNS0.EU) make the fallback
            # delay unmeasurable — the paper's footnote 1.
            max_delay = delay_campaign.reliable_max_ipv6_delay_ms()
    row = Table3Row(
        service=name,
        aaaa_query=_aaaa_mark_from_campaign(
            share_campaign, behavior.glue_plan.name),
        ipv6_share=share,
        max_ipv6_delay_ms=max_delay,
        ipv6_packets=packets if packets else None,
        campaign=share_campaign)
    return row, (store.stats if store is not None else None)


def table3_resolvers(seed: int = 0, share_repetitions: int = 32,
                     delay_repetitions: int = 3,
                     delays_ms: Optional[List[int]] = None,
                     workers: Optional[int] = None,
                     store: Optional[CampaignStore] = None
                     ) -> List[Table3Row]:
    """Measure every local daemon and evaluated open service.

    Two campaigns per subject, mirroring the paper's methodology:

    * a *share* campaign (no shaping) measuring the AAAA-query pattern
      and how often IPv6 is chosen at the authoritative server;
    * a *delay* campaign over the shaped-delay grid with the IPv6
      address forced as first choice, measuring the reliable fallback
      point and the packet counts.

    ``workers=N`` measures subjects over N processes; every subject is
    seeded independently, so rows match the serial path exactly.
    ``store`` attaches the content-addressed campaign cache: resolver
    runs are keyed by (behaviour, seed, delay, repetition), so a
    re-render replays unchanged runs instead of re-executing them.
    """
    grid = [d for d in (delays_ms if delays_ms is not None
                        else RESOLVER_DELAY_GRID) if d > 0]
    subjects: List[Tuple[str, object]] = [
        (behavior.name, behavior) for behavior in LOCAL_RESOLVERS]
    subjects += [(service.service, service.behavior)
                 for service in evaluated_services()]
    # Fresh store handle per task (counters start at zero), so worker
    # stats merge into the campaign total like the Table 2 tasks.
    payloads = [(name, behavior, seed, share_repetitions,
                 delay_repetitions, grid,
                 CampaignStore(store.root) if store is not None else None)
                for name, behavior in subjects]
    rows: List[Table3Row] = []
    for row, stats in shared_map(_measure_resolver_subject, payloads,
                                 workers):
        rows.append(row)
        if store is not None and stats is not None:
            store.stats.merge(stats)
    return rows


def table3_store_keys(seed: int = 0, share_repetitions: int = 32,
                      delay_repetitions: int = 3,
                      delays_ms: Optional[List[int]] = None
                      ) -> List[str]:
    """Every store key a Table 3 render may reference (cache gc).

    Conservative: the delay campaign only runs for subjects whose
    share campaign shows IPv6 use, but gc keeps both unconditionally —
    keeping an unreferenced key is harmless, dropping a referenced one
    forces a re-execution.
    """
    from dataclasses import replace as dc_replace

    from ..resolvers.testbed import resolver_campaign_keys

    grid = [d for d in (delays_ms if delays_ms is not None
                        else RESOLVER_DELAY_GRID) if d > 0]
    subjects = [behavior for behavior in LOCAL_RESOLVERS]
    subjects += [service.behavior for service in evaluated_services()]
    keys: List[str] = []
    for behavior in subjects:
        keys.extend(resolver_campaign_keys(
            behavior, [0], share_repetitions, seed))
        forced = dc_replace(behavior, v6_preference=1.0)
        keys.extend(resolver_campaign_keys(
            forced, grid, delay_repetitions, seed + 1))
    return keys


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


def table5_matrix(campaign: CampaignResult
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
