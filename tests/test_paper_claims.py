"""The paper's findings as named claims, checked in every tier-1 run.

Each claim is one finding of the paper (a table cell, a figure's
crossover, a section's observation) checked against the artifact the
reproduction builds.  A regression fails by name, e.g.
``test_paper_claim[table3/quad9-fallback-1250ms (Table 3)]``.  Unlike
the goldens, a claim is not the simulator's own output: no ``--write``
accepts a behaviour change.

Registered artifacts are built by the code ``repro <name>`` runs,
``get_experiment(name)`` plan + execute, at the seed and knobs given
here.  ``table2``, ``figure4`` and ``delayed-a`` are checked at set-ups
their registered experiments do not build, and the ablations, iCloud
Private Relay and HEv3 racing are library-level campaigns; those keep
their own builders.  Every builder is cached, so each campaign runs
once per process however many claims read it.
"""

import functools
import statistics
from typing import Callable, List, NamedTuple

import pytest

from repro.analysis import table2_features
from repro.clients import AKAMAI_EGRESS, CLOUDFLARE_EGRESS, get_profile
from repro.clients.icpr import (measure_egress_cad,
                                measure_egress_dns_timeout)
from repro.core import (HappyEyeballsEngine, HistoryStore, ResolutionPolicy,
                        hev3_draft_params, rfc8305_params)
from repro.dns import HTTPS, DNSName, RdataType
from repro.dns.nsselect import GluePlan, ResolverBehavior
from repro.dns.stub import StubResolver
from repro.experiments import Session, get_experiment
from repro.resolvers import evaluated_services, excluded_services
from repro.resolvers.testbed import run_resolver_campaign
from repro.seeding import stable_run_seed
from repro.simnet import (Family, NetemFilter, NetemRule, NetemSpec,
                          Protocol, parse_address)
from repro.testbed import SweepSpec, TestCaseConfig, TestCaseKind, TestRunner
from repro.testbed.topology import SERVER_V4, SERVER_V6, LocalTestbed
from repro.webtool import (NetworkConditions, UAEntry, WebCampaign,
                           WebToolDeployment, WebToolSession)
from repro.webtool.report import ConsistencyMark


class Claim(NamedTuple):
    id: str
    paper: str
    check: Callable[[], None]


#: The claims table, in paper order; :func:`claim` appends to it.
CLAIMS: List[Claim] = []


def claim(claim_id: str, paper: str):
    """Register the decorated assertion group as a claim."""
    def add(check):
        CLAIMS.append(Claim(claim_id, paper, check))
        return check
    return add


@functools.cache
def artifact(name: str, seed: int, **knobs):
    """The result data ``repro --seed <seed> <name> --<knob> ...``
    renders."""
    experiment = get_experiment(name)
    session = Session(seed=seed, knobs=knobs)
    return experiment.execute(session, experiment.plan(session))


def by_client(series):
    return {entry.client: entry for entry in series}


def by_service(rows):
    return {row.service: row for row in rows}


def stub_engine(testbed: LocalTestbed, params, history=None):
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    return HappyEyeballsEngine(testbed.client, stub, params,
                               history=history)


# --------------------------------------------------------------------------
# Table 1: HE parameters across versions (the RFC presets)
# --------------------------------------------------------------------------


def table1():
    headers, rows = artifact("table1", 0)
    return {row[0]: row[1:] for row in rows}


@claim("table1/dns-records", "Table 1")
def table1_dns_records():
    rows = table1()
    # HEv1 has no DNS handling; HEv2 asks AAAA and A; HEv3 adds SVCB.
    assert rows["DNS Records"][0] == "-"
    assert rows["DNS Records"][1] == "AAAA, A"
    assert "SVCB" in rows["DNS Records"][2]


@claim("table1/resolution-delay-50ms", "Table 1")
def table1_resolution_delay():
    rows = table1()
    # HEv1 has no RD; HEv2 introduces the 50 ms RD, HEv3 keeps it.
    assert rows["Resolution Delay"][0] == "-"
    assert rows["Resolution Delay"][1] == "50 ms"
    assert rows["Resolution Delay"][2] == "50 ms"


@claim("table1/fixed-cad", "Table 1")
def table1_fixed_cad():
    rows = table1()
    assert rows["Fixed Conn. Attempt Delay"][0] == "150-250 ms"
    assert rows["Fixed Conn. Attempt Delay"][1] == "250 ms"


@claim("table1/dynamic-cad-bounds", "Table 1")
def table1_dynamic_cad_bounds():
    assert table1()["Min/Rec./Max when dynamic"][1] == \
        "10 ms / 100 ms / 2 s"


@claim("table1/hev3-considers-quic", "Table 1")
def table1_hev3_quic():
    assert "QUIC" in table1()["Considered protocols"][2]


# --------------------------------------------------------------------------
# Table 2: HE features of the client applications
# --------------------------------------------------------------------------

#: The web-validation entries: the Chromium family, Firefox and Safari.
TABLE2_WEB_ENTRIES = (
    UAEntry("Linux", "", "Chrome", "130.0.0"),
    UAEntry("Linux", "", "Chromium", "130.0.0"),
    UAEntry("Windows", "10", "Edge", "130.0.0"),
    UAEntry("Linux", "", "Firefox", "132.0"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"),
)


@functools.cache
def table2():
    """The local test cases for the nine clients, validated by a web
    campaign of ten sessions per entry."""
    web = WebCampaign(seed=7, repetitions=10).run(entries=TABLE2_WEB_ENTRIES)
    return table2_features(web_campaign=web, session=Session(seed=1))


@claim("table2/all-prefer-ipv6", "Table 2")
def table2_all_prefer_ipv6():
    assert all(row.prefers_ipv6 for row in table2())


@claim("table2/chromium-cad-300ms-aaaa-first-no-rd", "Table 2")
def table2_chromium_family():
    for name in ("Chrome 130.0", "Chromium 130.0", "Edge 130.0"):
        row = by_client(table2())[name]
        assert row.cad_implemented
        assert row.cad_value_ms == pytest.approx(300.0, abs=5.0)
        assert row.aaaa_first
        assert not row.rd_implemented
        assert (row.ipv4_addresses_used, row.ipv6_addresses_used) == (1, 1)
        assert not row.address_selection


@claim("table2/firefox-cad-250ms-a-first-no-rd", "Table 2")
def table2_firefox():
    firefox = by_client(table2())["Firefox 132.0"]
    assert firefox.cad_value_ms == pytest.approx(250.0, abs=60.0)
    # A first: Firefox keeps the stub resolver's answer order.
    assert not firefox.aaaa_first
    assert not firefox.rd_implemented


@claim("table2/safari-only-full-hev2", "Table 2")
def table2_safari():
    safari = by_client(table2())["Safari 17.6"]
    assert safari.rd_implemented
    assert safari.rd_value_ms == pytest.approx(50.0, abs=5.0)
    assert safari.address_selection
    assert (safari.ipv4_addresses_used, safari.ipv6_addresses_used) == \
        (10, 10)


@claim("table2/curl-cad-200ms", "Table 2")
def table2_curl():
    assert by_client(table2())["curl 7.88.1"].cad_value_ms == \
        pytest.approx(200.0, abs=5.0)


@claim("table2/wget-no-he", "Table 2")
def table2_wget():
    # No HE at all: wget never touches IPv4.
    wget = by_client(table2())["wget 1.21.3"]
    assert not wget.cad_implemented
    assert wget.ipv4_addresses_used is None
    assert wget.ipv6_addresses_used == 1


@claim("table2/web-consistency", "Table 2, Sec. 5.1")
def table2_consistency():
    rows = by_client(table2())
    assert rows["Safari 17.6"].consistency is ConsistencyMark.INCONSISTENT
    assert rows["Firefox 132.0"].consistency in (
        ConsistencyMark.DEVIATION, ConsistencyMark.INCONSISTENT)
    assert rows["Chrome 130.0"].consistency is ConsistencyMark.CONSISTENT


# --------------------------------------------------------------------------
# Table 3: resolver IPv6 usage at the authoritative name server
# --------------------------------------------------------------------------


def table3():
    # 160 share repetitions, and 8 per shaped delay: enough that
    # Unbound's 44 % probabilistic retry cannot pass as reliable IPv6.
    return by_service(artifact("table3", 3, repetitions=160))


@claim("table3/bind-always-v6-800ms", "Table 3")
def table3_bind():
    bind = table3()["BIND"]
    assert bind.ipv6_share == pytest.approx(100.0)
    assert bind.max_ipv6_delay_ms == 800
    assert bind.ipv6_packets == 1
    assert bind.aaaa_query == "AAAA after A"


@claim("table3/unbound-44pct-376ms-backoff", "Table 3")
def table3_unbound():
    unbound = table3()["Unbound"]
    assert unbound.ipv6_share == pytest.approx(43.8, abs=10.0)
    assert unbound.max_ipv6_delay_ms == 376
    assert unbound.ipv6_packets == 2
    assert unbound.aaaa_query == "AAAA before A"


@claim("table3/knot-28pct-400ms", "Table 3")
def table3_knot():
    knot = table3()["Knot Resolver"]
    assert knot.ipv6_share == pytest.approx(27.9, abs=10.0)
    assert knot.max_ipv6_delay_ms == 400
    assert knot.aaaa_query == "either A or AAAA, never both"


@claim("table3/dnssb-google-never-v6", "Table 3")
def table3_never_v6():
    for name in ("DNS.sb", "Google P. DNS"):
        row = table3()[name]
        assert row.ipv6_share == pytest.approx(0.0)
        assert row.max_ipv6_delay_ms is None


@claim("table3/opendns-he-style-50ms", "Table 3")
def table3_opendns():
    # The only HE-style open service.
    opendns = table3()["OpenDNS"]
    assert opendns.ipv6_share == pytest.approx(100.0)
    assert opendns.max_ipv6_delay_ms == 50


def table3_fallback(service: str, delay_ms: int):
    assert table3()[service].max_ipv6_delay_ms == delay_ms, service


#: The fallback-timeout column: (claim slug, service, delay in ms).
TABLE3_FALLBACKS = (
    ("nextdns", "NextDNS", 200), ("quad101", "Quad 101", 400),
    ("114dns", "114DNS", 600), ("cloudflare", "Cloudflare", 500),
    ("verisign", "Verisign P. DNS", 250), ("yandex", "Yandex", 300),
    ("h-msk-ix", "H-MSK-IX", 600), ("msk-ix", "MSK-IX", 600),
    ("quad9", "Quad9 DNS", 1250),
)
for _slug, _service, _delay_ms in TABLE3_FALLBACKS:
    claim(f"table3/{_slug}-fallback-{_delay_ms}ms", "Table 3")(
        functools.partial(table3_fallback, _service, _delay_ms))


@claim("table3/yandex-six-v6-packets", "Table 3")
def table3_yandex_packets():
    assert table3()["Yandex"].ipv6_packets == 6


@claim("table3/dns0eu-fallback-unmeasurable", "Table 3")
def table3_dns0eu():
    # Parallel queries make DNS0.EU's fallback delay unmeasurable.
    assert table3()["DNS0.EU"].max_ipv6_delay_ms is None


# --------------------------------------------------------------------------
# Table 4: the open resolver inventory and the IPv6-only probe
# --------------------------------------------------------------------------


def table4():
    return artifact("table4", 5)


@claim("table4/seventeen-services", "Table 4")
def table4_size():
    assert len(table4()) == 17


@claim("table4/four-fail-ipv6-only-probe", "Table 4")
def table4_excluded():
    rows = by_service(table4())
    for name in ("Hurricane Electric", "Lumen (Level3)", "DYN", "G-Core"):
        assert not rows[name].ipv6_only_capable, name
    assert len(excluded_services()) == 4


@claim("table4/evaluated-pass-ipv6-only-probe", "Table 4")
def table4_evaluated():
    rows = by_service(table4())
    for service in evaluated_services():
        assert rows[service.service].ipv6_only_capable


@claim("table4/address-inventory", "Table 4")
def table4_addresses():
    rows = by_service(table4())
    assert (rows["OpenDNS"].v4_addresses,
            rows["OpenDNS"].v6_addresses) == (6, 6)
    assert (rows["Quad9 DNS"].v4_addresses,
            rows["Quad9 DNS"].v6_addresses) == (6, 6)
    assert rows["114DNS"].v6_addresses == 0
    assert rows["Lumen (Level3)"].v6_addresses == 0


# --------------------------------------------------------------------------
# Table 5: the web campaign's OS/browser matrix
# --------------------------------------------------------------------------


def table5():
    return artifact("table5", 55, repetitions=5)


@claim("table5/161-plus-sessions", "Table 5")
def table5_sessions():
    assert len(table5()) == 33 * 5
    assert len(table5()) >= 161


@claim("table5/33-combinations", "Table 5")
def table5_combinations():
    assert table5().combinations() == 33


@claim("table5/nine-browsers-seven-os", "Table 5")
def table5_browsers_and_os():
    sessions = table5().sessions
    assert len({s.browser.rsplit(" ", 1)[0] for s in sessions}) == 9
    assert len({s.os_name.split(" ")[0] for s in sessions}) == 7


# --------------------------------------------------------------------------
# Figure 2: established family vs configured IPv6 delay
# --------------------------------------------------------------------------

FIGURE2_STEP_MS = 10


def figure2():
    return artifact("figure2", 2, step=FIGURE2_STEP_MS, stop=400)


@claim("figure2/seventeen-versions", "Figure 2")
def figure2_size():
    # Safari is omitted, as in the paper: its 2 s CAD flattens the plot.
    assert len(figure2()) == 17


@claim("figure2/chromium-family-flips-at-300ms", "Figure 2")
def figure2_chromium_family():
    series = by_client(figure2())
    family = [name for name in series
              if name.startswith(("Chrome ", "Chromium", "Edge"))]
    assert len(family) == 11
    for name in family:
        # IPv6 up to 300 ms, IPv4 beyond, across all versions and years.
        assert series[name].crossover_ms == 300, name
        assert series[name].first_v4_ms == 300 + FIGURE2_STEP_MS, name


@claim("figure2/firefox-flips-at-250ms", "Figure 2")
def figure2_firefox():
    for name, entry in by_client(figure2()).items():
        if name.startswith("Firefox"):
            # 250 ms nominal; occasional outliers may stretch a run.
            assert 250 <= entry.crossover_ms <= 400, name
            assert entry.first_v4_ms >= 250 + FIGURE2_STEP_MS, name


@claim("figure2/curl-flips-at-200ms", "Figure 2")
def figure2_curl():
    assert by_client(figure2())["curl 7.88.1"].crossover_ms == 200


@claim("figure2/wget-never-falls-back", "Figure 2")
def figure2_wget():
    wget = by_client(figure2())["wget 1.21.3"]
    assert wget.first_v4_ms is None
    assert wget.crossover_ms == 400  # IPv6 all the way, just slow


# --------------------------------------------------------------------------
# Figure 4: the web tool's CAD ladder
# --------------------------------------------------------------------------


@functools.cache
def figure4():
    """Chrome under lab-like conditions, then eight Safari repetitions,
    at the session indices a fresh process hands out (1, then 2-9), so
    the ladders do not depend on which sessions ran before."""
    deployment = WebToolDeployment(seed=41)
    chrome = WebToolSession(deployment, get_profile("Chrome", "130.0"),
                            conditions=NetworkConditions.lab_like(),
                            session_index=1).run()
    safari = [WebToolSession(deployment, get_profile("Safari", "17.6"),
                             repetition=rep, session_index=2 + rep).run()
              for rep in range(8)]
    return chrome, safari


@claim("figure4/chrome-interval-brackets-300ms", "Figure 4a")
def figure4_chrome():
    chrome, _ = figure4()
    low, high = chrome.cad_interval()
    assert low in (250, 300)
    assert high in (300, 350)
    assert chrome.is_monotonic()


@claim("figure4/safari-dynamic-cad-wanders", "Figure 4a")
def figure4_safari():
    # The dynamic CAD moves Safari's interval between repetitions.
    _, safari = figure4()
    intervals = {session.cad_interval() for session in safari}
    assert len(intervals) >= 3
    spread = [high for _, high in intervals if high is not None]
    assert spread and max(spread) - min(spread) >= 150


@claim("figure4/ladder-ends-v6-to-v4", "Figure 4a")
def figure4_ladder_ends():
    # The per-step outcome is the echoed source address: delay 0 is
    # IPv6 and the 5 s rung IPv4 for any HE client.
    chrome, _ = figure4()
    zero = [o for o in chrome.outcomes if o.delay_ms == 0][0]
    top = [o for o in chrome.outcomes if o.delay_ms == 5000][0]
    assert zero.used_family is Family.V6
    assert top.used_family is Family.V4


# --------------------------------------------------------------------------
# Figure 5: address family at the n-th connection attempt
# --------------------------------------------------------------------------


def figure5():
    # Ten unresponsive addresses per family (the §4.1(iii) blackhole).
    return by_client(artifact("figure5", 4))


@claim("figure5/wget-single-v6-attempt", "Figure 5")
def figure5_wget():
    assert figure5()["wget 1.21.3"].pattern == "6"


@claim("figure5/hev1-one-attempt-per-family", "Figure 5")
def figure5_hev1():
    for name in ("curl 7.88.1", "Firefox 132.0", "Edge 130.0",
                 "Chromium 130.0", "Chrome 130.0"):
        assert figure5()[name].pattern == "64", name


@claim("figure5/safari-walks-twenty-addresses", "Figure 5, App. D")
def figure5_safari():
    # FAFC 2, one IPv4 interleave, the rest in family bursts.
    safari = figure5()["Safari 17.6"]
    assert len(safari.families) == 20
    assert safari.pattern == "664" + "6" * 8 + "4" * 9


# --------------------------------------------------------------------------
# §5.2: the delayed-A pathology
# --------------------------------------------------------------------------

DELAYED_A = TestCaseConfig(name="delayed-a", kind=TestCaseKind.DELAYED_A,
                           sweep=SweepSpec.fixed(500, 1000, 2000))


@functools.cache
def delayed_a():
    clients = [get_profile("Chrome", "130.0"),
               get_profile("Firefox", "132.0"),
               get_profile("curl", "7.88.1"),
               get_profile("Safari", "17.6")]
    plain = TestRunner(clients, [DELAYED_A], seed=71).run()
    flagged = TestRunner([get_profile("Chrome", "130.0")], [DELAYED_A],
                         seed=72, hev3_flag=True).run()
    return plain, flagged


@claim("delayed-a/ipv6-still-preferred", "Sec. 5.2")
def delayed_a_ipv6_preferred():
    plain, _ = delayed_a()
    for record in plain:
        assert record.winning_family is Family.V6


@claim("delayed-a/safari-connects-on-aaaa", "Sec. 5.2")
def delayed_a_safari():
    plain, _ = delayed_a()
    for record in plain:
        if record.client.startswith("Safari"):
            assert record.time_to_first_attempt_s < 0.100


@claim("delayed-a/others-stall-for-a", "Sec. 5.2")
def delayed_a_stall():
    plain, _ = delayed_a()
    for record in plain:
        if not record.client.startswith("Safari"):
            assert record.time_to_first_attempt_s == pytest.approx(
                record.value_ms / 1000.0, abs=0.050), record.client


@claim("delayed-a/hev3-flag-removes-stall", "Sec. 5.2")
def delayed_a_hev3_flag():
    _, flagged = delayed_a()
    for record in flagged:
        assert record.winning_family is Family.V6
        assert record.time_to_first_attempt_s < 0.100


# --------------------------------------------------------------------------
# §5.1/§5.2: Safari behind iCloud Private Relay
# --------------------------------------------------------------------------

ICPR_CAD_GRID = [0, 100, 140, 160, 190, 210, 300]


@functools.cache
def icpr_cad():
    return (measure_egress_cad(AKAMAI_EGRESS, ICPR_CAD_GRID, seed=61),
            measure_egress_cad(CLOUDFLARE_EGRESS, ICPR_CAD_GRID, seed=62))


@claim("icpr/akamai-cad-150ms", "Sec. 5.1")
def icpr_akamai_cad():
    akamai, _ = icpr_cad()
    assert akamai[140] == "IPv6"
    assert akamai[160] == "IPv4"


@claim("icpr/cloudflare-cad-200ms", "Sec. 5.1")
def icpr_cloudflare_cad():
    _, cloudflare = icpr_cad()
    assert cloudflare[190] == "IPv6"
    assert cloudflare[210] == "IPv4"


@claim("icpr/akamai-dns-timeout-400ms", "Sec. 5.2")
def icpr_akamai_dns_timeout():
    # One DNS timeout for A and AAAA per operator.
    assert measure_egress_dns_timeout(AKAMAI_EGRESS, RdataType.AAAA) == \
        pytest.approx(0.400, abs=0.020)
    assert measure_egress_dns_timeout(AKAMAI_EGRESS, RdataType.A) == \
        pytest.approx(0.400, abs=0.020)


@claim("icpr/cloudflare-dns-timeout-1750ms", "Sec. 5.2")
def icpr_cloudflare_dns_timeout():
    assert measure_egress_dns_timeout(CLOUDFLARE_EGRESS, RdataType.AAAA) \
        == pytest.approx(1.750, abs=0.050)
    assert measure_egress_dns_timeout(CLOUDFLARE_EGRESS, RdataType.A) == \
        pytest.approx(1.750, abs=0.050)


# --------------------------------------------------------------------------
# §6 ablation: fixed vs dynamic Connection Attempt Delay
# --------------------------------------------------------------------------

DEAD_V6 = "2001:db8:dead::99"

#: Destinations: (label, IPv6 delay in ms; None = blackholed IPv6).
CAD_POPULATION = [("fast", 10), ("ok", 40), ("slowish", 120),
                  ("broken", None)]


def cad_destination(policy: str, label: str, delay_ms, seed: int):
    testbed = LocalTestbed(seed=seed)
    if delay_ms is None:
        hostname = testbed.add_domain(f"dyn-{label}", [DEAD_V6, SERVER_V4])
        effective_rtt = 0.010  # the host knows its v4 RTT history
    else:
        testbed.delay_ipv6_tcp(delay_ms / 1000.0)
        hostname = f"dyn-{label}.{testbed.test_domain}"
        effective_rtt = max(0.002, delay_ms / 1000.0)
    history = HistoryStore()
    if policy == "dynamic":
        params = rfc8305_params().with_overrides(dynamic_cad=True)
        for address in (SERVER_V6, DEAD_V6, SERVER_V4):
            history.record_success(parse_address(address),
                                   rtt=effective_rtt, now=0.0)
    else:
        params = rfc8305_params().with_overrides(
            connection_attempt_delay=float(policy) / 1000.0)
    engine = stub_engine(testbed, params, history)
    result = testbed.sim.run_until(engine.connect(hostname))
    return result.time_to_connect, result.winning_family


@functools.cache
def cad_ablation():
    """Per policy: the share of healthy destinations kept on IPv6 and
    the time to connect when IPv6 is broken."""
    healthy = [label for label, delay in CAD_POPULATION if delay is not None]
    stats = {}
    for policy in ("100", "250", "2000", "dynamic"):
        rows = {label: cad_destination(policy, label, delay_ms,
                                       stable_run_seed(policy, label))
                for label, delay_ms in CAD_POPULATION}
        stats[policy] = {
            "v6_retention": sum(1 for label in healthy
                                if rows[label][1] is Family.V6)
            / len(healthy),
            "broken_ttc": rows["broken"][0],
        }
    return stats


@claim("ablation-cad/aggressive-100ms-loses-slow-v6",
       "Sec. 6, RFC 8305 Sec. 5")
def cad_aggressive():
    assert cad_ablation()["100"]["v6_retention"] < 1.0


@claim("ablation-cad/250ms-and-2s-retain-v6", "Sec. 6, RFC 8305 Sec. 5")
def cad_retention():
    assert cad_ablation()["250"]["v6_retention"] == 1.0
    assert cad_ablation()["2000"]["v6_retention"] == 1.0


@claim("ablation-cad/fixed-cad-stalls-on-broken-v6", "Sec. 6, RFC 8305 Sec. 5")
def cad_broken_stall():
    assert cad_ablation()["2000"]["broken_ttc"] == \
        pytest.approx(2.0, abs=0.05)
    assert cad_ablation()["250"]["broken_ttc"] == \
        pytest.approx(0.25, abs=0.05)


@claim("ablation-cad/dynamic-retains-and-falls-back-fastest",
       "Sec. 6, RFC 8305 Sec. 5")
def cad_dynamic():
    stats = cad_ablation()
    assert stats["dynamic"]["v6_retention"] == 1.0
    assert stats["dynamic"]["broken_ttc"] < stats["100"]["broken_ttc"]


# --------------------------------------------------------------------------
# App. D ablation: First Address Family Count 1 vs 2
# --------------------------------------------------------------------------


@functools.cache
def fafc_ablation():
    """The first IPv6 address is a blackhole, the second one works."""
    results = {}
    for fafc in (1, 2):
        testbed = LocalTestbed(seed=90 + fafc)
        hostname = testbed.add_domain(
            f"fafc{fafc}", ["2001:db8:dead::1", SERVER_V6, SERVER_V4])
        engine = stub_engine(testbed, rfc8305_params().with_overrides(
            first_address_family_count=fafc))
        results[fafc] = testbed.sim.run_until(engine.connect(hostname))
    return results


@claim("ablation-fafc/fafc1-leaves-v6", "App. D, RFC 8305 Sec. 4")
def fafc_one():
    # The CAD-delayed second attempt is IPv4.
    assert fafc_ablation()[1].winning_family is Family.V4


@claim("ablation-fafc/fafc2-keeps-v6", "App. D, RFC 8305 Sec. 4")
def fafc_two():
    # The second attempt is the good IPv6 address.
    assert fafc_ablation()[2].winning_family is Family.V6


@claim("ablation-fafc/one-cad-either-way", "App. D, RFC 8305 Sec. 4")
def fafc_cost():
    # Both pay exactly one CAD (250 ms) plus a handshake.
    for result in fafc_ablation().values():
        assert result.time_to_connect == pytest.approx(0.250, abs=0.010)


# --------------------------------------------------------------------------
# §6 ablation: resolver name-server selection under IPv6 impairment
# --------------------------------------------------------------------------

NS_POLICIES = {
    "always-v6 / 800 ms": ResolverBehavior(
        name="always-v6", v6_preference=1.0, attempt_timeout=0.800),
    "probabilistic 44 %": ResolverBehavior(
        name="probabilistic", v6_preference=0.44, attempt_timeout=0.376),
    "HE-style / 50 ms": ResolverBehavior(
        name="he-style", v6_preference=1.0, attempt_timeout=0.050),
    "v4-only": ResolverBehavior(
        name="v4-only", v6_preference=0.0, attempt_timeout=0.400,
        glue_plan=GluePlan.A_FIRST),
}


@functools.cache
def ns_ablation():
    """Per policy and IPv6 name-server delay: (mean resolution time,
    share answered via IPv6)."""
    table = {}
    for label, behavior in NS_POLICIES.items():
        table[label] = {}
        for delay_ms in (0, 100, 400, 1000):
            observations = run_resolver_campaign(
                behavior, delays_ms=[delay_ms], repetitions=6,
                session=Session(seed=stable_run_seed(label))).observations
            table[label][delay_ms] = (
                statistics.mean(min(o.duration_s, 30.0)
                                for o in observations),
                statistics.mean(1.0 if o.answering_family is Family.V6
                                else 0.0 for o in observations))
    return table


@claim("ablation-ns/he-style-keeps-v6-caps-damage", "Sec. 6")
def ns_he_style():
    he = ns_ablation()["HE-style / 50 ms"]
    assert he[0][1] == 1.0
    assert he[1000][1] == 0.0


@claim("ablation-ns/always-v6-pays-timeout", "Sec. 6")
def ns_always_v6():
    table = ns_ablation()
    assert table["always-v6 / 800 ms"][1000][0] > \
        table["HE-style / 50 ms"][1000][0] + 0.5


@claim("ablation-ns/v4-only-never-v6", "Sec. 6")
def ns_v4_only():
    assert all(v6 == 0.0 for _, v6 in ns_ablation()["v4-only"].values())


# --------------------------------------------------------------------------
# §6 ablation: the Resolution Delay vs waiting for both answers
# --------------------------------------------------------------------------


def rd_time_to_connect(policy: ResolutionPolicy, delayed: RdataType,
                       delay_ms: int) -> float:
    testbed = LocalTestbed(seed=81)
    testbed.set_dns_delay(delayed, delay_ms / 1000.0)
    engine = stub_engine(testbed, rfc8305_params().with_overrides(
        resolution_policy=policy))
    result = testbed.sim.run_until(
        engine.connect(f"rd-ablation-{delay_ms}.{testbed.test_domain}"))
    return result.time_to_connect


@functools.cache
def rd_ablation():
    """(delayed record type, DNS delay, TTC with RD, TTC waiting for
    both) per delayed record and delay."""
    return [(delayed.name, delay_ms,
             rd_time_to_connect(ResolutionPolicy.HE_V2, delayed, delay_ms),
             rd_time_to_connect(ResolutionPolicy.WAIT_BOTH, delayed,
                                delay_ms))
            for delayed in (RdataType.AAAA, RdataType.A)
            for delay_ms in (100, 500, 1000, 2000)]


@claim("ablation-rd/wait-both-tracks-dns-delay", "Sec. 6")
def rd_wait_both():
    for _, delay_ms, _, without in rd_ablation():
        assert without >= delay_ms / 1000.0


@claim("ablation-rd/rd-caps-delayed-aaaa", "Sec. 6")
def rd_delayed_aaaa():
    # ~50 ms RD plus a handshake.
    for rtype, _, with_rd, _ in rd_ablation():
        if rtype == "AAAA":
            assert with_rd <= 0.100


@claim("ablation-rd/delayed-a-never-hurts-rd", "Sec. 6")
def rd_delayed_a():
    # AAAA arrives first, so the RD client never waits for A.
    for rtype, _, with_rd, _ in rd_ablation():
        if rtype != "AAAA":
            assert with_rd <= 0.050


@claim("ablation-rd/rd-always-faster", "Sec. 6")
def rd_faster():
    for _, _, with_rd, without in rd_ablation():
        assert with_rd < without


# --------------------------------------------------------------------------
# §2: HEv3 protocol racing (SVCB/HTTPS + QUIC)
# --------------------------------------------------------------------------


def hev3_race(seed: int, quic_enabled: bool, advertise: bool = True):
    testbed = LocalTestbed(seed=seed)
    if advertise:
        testbed.zone.add("www", HTTPS.service(
            1, DNSName.from_text(f"www.{testbed.test_domain}"),
            alpn=("h3", "h2"), ech=True))
    if quic_enabled:
        testbed.server.quic.listen(80)
    else:
        testbed.server_iface.ingress.add_rule(NetemRule(
            spec=NetemSpec(loss=1.0),
            filter=NetemFilter(protocol=Protocol.QUIC), name="drop-quic"))
    engine = stub_engine(testbed, hev3_draft_params())
    capture = testbed.start_client_capture()
    result = testbed.sim.run_until(
        engine.connect(f"www.{testbed.test_domain}"))
    return result, capture.connection_attempts()


@functools.cache
def hev3_racing():
    """(QUIC healthy, QUIC blackholed, no SVCB published) races."""
    return (hev3_race(seed=95, quic_enabled=True),
            hev3_race(seed=96, quic_enabled=False),
            hev3_race(seed=97, quic_enabled=True, advertise=False))


@claim("hev3/quic-v6-wins-when-advertised", "Sec. 2")
def hev3_quic_wins():
    (result, attempts), _, _ = hev3_racing()
    assert result.race.winning_attempt.protocol is Protocol.QUIC
    assert result.winning_family is Family.V6
    assert attempts[0].packet.protocol is Protocol.QUIC


@claim("hev3/tcp-fallback-when-quic-blackholed", "Sec. 2")
def hev3_tcp_fallback():
    _, (result, attempts), _ = hev3_racing()
    assert result.race.winning_attempt.protocol is Protocol.TCP
    assert result.time_to_connect <= 0.600  # within ~one CAD
    protocols = [attempt.packet.protocol for attempt in attempts]
    assert Protocol.QUIC in protocols and Protocol.TCP in protocols


@claim("hev3/no-svcb-behaves-like-hev2", "Sec. 2")
def hev3_no_svcb():
    _, _, (result, _) = hev3_racing()
    assert result.race.winning_attempt.protocol is Protocol.TCP
    assert result.winning_family is Family.V6


@pytest.mark.parametrize("paper_claim", CLAIMS,
                         ids=lambda c: f"{c.id} ({c.paper})")
def test_paper_claim(paper_claim: Claim):
    paper_claim.check()


def test_claim_ids_are_unique():
    ids = [c.id for c in CLAIMS]
    assert len(set(ids)) == len(ids)
