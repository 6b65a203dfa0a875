"""The registered experiment catalogue: every artifact, one registry.

Each entry ports one former hand-wired CLI command onto the
:class:`~repro.experiments.base.Experiment` contract — declared knobs,
a pure :meth:`plan` returning its runs as data, an :meth:`execute`
consuming that plan and producing data, a
:meth:`render` producing the byte-identical artifact text the old
command printed.  Heavy modules import *inside* the phase methods and
every package ``__init__`` exports lazily, so building the catalogue
(parser construction, ``repro ls``) imports only the experiment
modules, and a warm ``plan`` → store lookup → ``render`` never loads
the simulator: it imports only where a run executes.

Adding a scenario to the framework is now one subclass + one
:func:`~repro.experiments.registry.register` call: the CLI verbs
(``repro ls``, ``repro run``), key planning, and ``repro cache gc``
liveness all pick it up from the registry with no plumbing changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .base import Artifact, Experiment, Knob, Session
from .registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed.parallel import Plan

#: The UA combinations the Table 2 web-validation campaign visits
#: (planned by the table2 experiment, kept live by ``repro cache gc``).
TABLE2_WEB_ENTRIES = (
    ("Linux", "", "Chrome", "130.0.0"),
    ("Linux", "", "Chromium", "130.0.0"),
    ("Windows", "10", "Edge", "130.0.0"),
    ("Linux", "", "Firefox", "132.0"),
    ("Mac OS X", "10.15.7", "Safari", "17.6"),
)

#: The client/version rows of the Figure 5 rendering.
FIGURE5_CLIENTS = (
    ("wget", "1.21.3"), ("curl", "7.88.1"), ("Safari", "17.6"),
    ("Firefox", "132.0"), ("Edge", "130.0"), ("Chromium", "130.0"),
    ("Chrome", "130.0"))


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------


class Table1Experiment(Experiment):
    name = "table1"
    title = "HE parameter comparison across versions"
    paper = "Table 1"
    json_capable = True

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import table1_parameters

        return table1_parameters()

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table

        headers, rows = result
        return Artifact(
            text=render_table(headers, rows,
                              title="Table 1: HE parameters across "
                                    "versions"),
            data={"headers": headers, "rows": rows})


class Table2Experiment(Experiment):
    name = "table2"
    title = "client HE feature matrix"
    paper = "Table 2"
    knobs = (
        Knob("repetitions", type=int, default=10,
             help="web-validation sessions per UA entry"),
        Knob("no_web", flag=True, default=False,
             help="skip the web-validation campaign"),
    )

    def plan(self, session: Session) -> "Plan":
        from ..analysis import table2_plan
        from ..testbed.parallel import Plan
        from ..webtool import UAEntry, WebCampaign

        web = WebCampaign(seed=session.seed + 1,
                          repetitions=self.knob(session, "repetitions"))
        return Plan(table2_plan(seed=session.seed) + web.plan(
            tuple(UAEntry(*entry) for entry in TABLE2_WEB_ENTRIES)))

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import table2_features
        from ..testbed.parallel import TestbedRun
        from ..webtool import run_web_plan

        local = [entry for entry in plan if type(entry) is TestbedRun]
        web = None
        if not self.knob(session, "no_web"):
            web = run_web_plan(plan[len(local):], session)
        return table2_features(web_campaign=web, plan=local,
                               session=session)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table2

        return Artifact(text=render_table2(result))


class Table3Experiment(Experiment):
    name = "table3"
    title = "resolver IPv6 usage"
    paper = "Table 3"
    knobs = (Knob("repetitions", type=int, default=160,
                  help="share-campaign repetitions per resolver"),)

    def _repetitions(self, session: Session) -> "tuple":
        share = self.knob(session, "repetitions")
        return share, max(3, share // 20)

    def plan(self, session: Session) -> "Plan":
        from ..analysis import table3_plan

        share, delay = self._repetitions(session)
        return table3_plan(seed=session.seed, share_repetitions=share,
                           delay_repetitions=delay)

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import table3_resolvers

        share, delay = self._repetitions(session)
        return table3_resolvers(share_repetitions=share,
                                delay_repetitions=delay, plan=plan,
                                session=session)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table3

        return Artifact(text=render_table3(result))


class Table4Experiment(Experiment):
    name = "table4"
    title = "open resolver inventory"
    paper = "Table 4"

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import table4_inventory

        return table4_inventory(seed=session.seed)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table4

        return Artifact(text=render_table4(result))


class Table5Experiment(Experiment):
    name = "table5"
    title = "web campaign UA matrix"
    paper = "Table 5"
    knobs = (Knob("repetitions", type=int, default=5,
                  help="sessions per OS/browser combination"),)

    def plan(self, session: Session) -> "Plan":
        from ..webtool import TABLE5_MATRIX, WebCampaign

        return WebCampaign(seed=session.seed,
                           repetitions=self.knob(session, "repetitions")
                           ).plan(TABLE5_MATRIX)

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..webtool import run_web_plan

        return run_web_plan(plan, session)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_table, table5_matrix

        headers, rows = table5_matrix(result)
        table = render_table(headers, rows,
                             title="Table 5: web-measured OS/browser "
                                   "matrix")
        return Artifact(
            text=(f"{table}\n\n{len(result)} sessions, "
                  f"{result.combinations()} OS/browser combinations"))


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------


class Figure2Experiment(Experiment):
    name = "figure2"
    title = "CAD sweep per client version"
    paper = "Figure 2"
    knobs = (
        Knob("step", type=int, default=25,
             help="delay step in ms (paper: 5)"),
        Knob("stop", type=int, default=400,
             help="sweep upper bound in ms"),
    )

    def plan(self, session: Session) -> "Plan":
        from ..analysis import figure2_plan
        from ..clients.registry import figure2_clients

        return figure2_plan(figure2_clients(),
                            step_ms=self.knob(session, "step"),
                            stop_ms=self.knob(session, "stop"),
                            seed=session.seed)

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import figure2_series

        return figure2_series(plan, session)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_figure2

        return Artifact(text=render_figure2(result))


class Figure4Experiment(Experiment):
    name = "figure4"
    title = "web tool ladders"
    paper = "Figure 4"

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..clients import get_profile
        from ..webtool import WebToolDeployment, WebToolSession

        deployment = WebToolDeployment(seed=session.seed)
        # Explicit indices (a fresh process's first two) keep the
        # sessions' seeds independent of earlier sessions in the process.
        return [WebToolSession(deployment, get_profile(name, version),
                               session_index=index).run()
                for index, (name, version) in enumerate(
                    (("Chrome", "130.0"), ("Safari", "17.6")), start=1)]

    def render(self, result: Any) -> Artifact:
        from ..webtool import render_session_ladder

        return Artifact(text="\n\n".join(render_session_ladder(session)
                                         for session in result) + "\n")


class Figure5Experiment(Experiment):
    name = "figure5"
    title = "address selection attempts"
    paper = "Figure 5"

    def plan(self, session: Session) -> "Plan":
        from ..analysis import figure5_plan
        from ..clients import get_profile

        return figure5_plan([get_profile(name, version)
                             for name, version in FIGURE5_CLIENTS],
                            seed=session.seed)

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..analysis import figure5_series

        return figure5_series(plan, session)

    def render(self, result: Any) -> Artifact:
        from ..analysis import render_figure5

        return Artifact(text=render_figure5(result))


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------


class DelayedAExperiment(Experiment):
    name = "delayed-a"
    title = "the §5.2 delayed-A pathology"
    paper = "§5.2"

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..clients import Client, get_profile
        from ..dns import RdataType
        from ..testbed.topology import LocalTestbed

        rows = []
        for name, version, flag in (("Chrome", "130.0", False),
                                    ("Firefox", "132.0", False),
                                    ("Safari", "17.6", False),
                                    ("Chrome", "130.0", True)):
            testbed = LocalTestbed(seed=session.seed)
            testbed.set_dns_delay(RdataType.A, 2.0)
            client = Client(testbed.client, get_profile(name, version),
                            testbed.resolver_addresses[:1],
                            hev3_flag=flag)
            result = testbed.sim.run_until(
                client.fetch("www.he-test.example"))
            label = f"{name} {version}" + (" +HEv3 flag" if flag else "")
            rows.append((label, result.he.time_to_connect * 1000,
                         result.used_family.label))
        return rows

    def render(self, result: Any) -> Artifact:
        lines = [f"  {label:<26} connected after {ms:7.1f} ms via "
                 f"{family}" for label, ms, family in result]
        return Artifact(
            text="A record delayed 2 s; IPv6 and AAAA fully healthy:"
                 "\n\n" + "\n".join(lines))


class TraceExperiment(Experiment):
    name = "trace"
    title = "one HE run's event trace"
    paper = "App. Figure 3"
    knobs = (Knob("delay_ms", type=int, default=400,
                  help="configured IPv6 TCP delay in ms"),)

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..core import rfc8305_stack
        from ..core.engine import HappyEyeballsEngine
        from ..dns.stub import StubResolver
        from ..testbed.topology import LocalTestbed

        testbed = LocalTestbed(seed=session.seed)
        testbed.delay_ipv6_tcp(self.knob(session, "delay_ms") / 1000.0)
        stub = StubResolver(testbed.client,
                            testbed.resolver_addresses[:1],
                            timeout=3600.0, retries=0)
        engine = HappyEyeballsEngine(testbed.client, stub,
                                     rfc8305_stack())
        return testbed.sim.run_until(
            engine.connect("www.he-test.example"))

    def render(self, result: Any) -> Artifact:
        return Artifact(
            text=(f"{result.trace.render()}\n\nwinner: "
                  f"{result.winning_family.label}, time to connect "
                  f"{result.time_to_connect * 1000:.1f} ms"))


# --------------------------------------------------------------------------
# conformance
# --------------------------------------------------------------------------


def _fingerprint_profiles(selector: str) -> List:
    """Local-testbed profiles for a CLI selector, with the same error
    text the old ``repro fingerprint`` command produced."""
    from ..clients.registry import resolve_profiles

    try:
        profiles = resolve_profiles(selector)
    except KeyError as exc:
        raise SystemExit(str(exc))
    unsupported = [p.full_name for p in profiles
                   if not p.supports_local_tests]
    profiles = [p for p in profiles if p.supports_local_tests]
    if not profiles:
        raise SystemExit(
            f"{', '.join(unsupported)} cannot run on the local testbed "
            "(mobile browsers are web-tool only); nothing to fingerprint")
    return profiles


def _probe_plan(session: Session, profiles: List, battery) -> "Plan":
    """Every probe's plan, client by client."""
    from ..conformance import ConformanceProbe
    from ..testbed.parallel import Plan

    return Plan(entry for profile in profiles
                for entry in ConformanceProbe(
                    profile, seed=session.seed,
                    battery=battery).plan(session.store))


def _fingerprints(session: Session, plan: "Plan", profiles: List,
                  battery) -> List:
    """Every client's fingerprint, each probe stage taken from
    ``plan`` where planning reached it."""
    from ..conformance import fingerprint_client
    from ..testbed.parallel import PlanCursor

    cursor = PlanCursor(plan)
    return [fingerprint_client(profile, session, battery, cursor)
            for profile in profiles]


class FingerprintExperiment(Experiment):
    name = "fingerprint"
    title = "RFC 8305 fingerprint report for one client"
    paper = "§4.3, RFC 8305"
    json_capable = True
    knobs = (
        Knob("client", type=str, default="all", positional=True,
             help="client selector: 'Name version', 'Name' (latest), "
                  "or 'all'"),
        Knob("stop", type=int, default=400,
             help="CAD sweep upper bound in ms (default 400)"),
    )

    def plan(self, session: Session) -> "Plan":
        from ..conformance import scenario_battery

        return _probe_plan(
            session, _fingerprint_profiles(self.knob(session, "client")),
            scenario_battery(stop_ms=self.knob(session, "stop")))

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..conformance import scenario_battery

        return _fingerprints(
            session, plan,
            _fingerprint_profiles(self.knob(session, "client")),
            scenario_battery(stop_ms=self.knob(session, "stop")))

    def render(self, result: Any) -> Artifact:
        from ..conformance import fingerprint_to_dict, render_fingerprint

        return Artifact(
            text="\n\n".join(render_fingerprint(fp) for fp in result),
            data=[fingerprint_to_dict(fp) for fp in result])



class ConformanceExperiment(Experiment):
    name = "conformance"
    title = "conformance summary across every local-testbed client"
    paper = "§4.3, RFC 8305"
    json_capable = True
    knobs = (
        Knob("stop", type=int, default=400,
             help="CAD sweep upper bound in ms"),
        Knob("list", flag=True, default=False,
             help="print the scenario catalog and exit"),
    )

    def plan(self, session: Session) -> "Plan":
        from ..clients.registry import local_testbed_clients
        from ..conformance import scenario_battery

        return _probe_plan(
            session, local_testbed_clients(),
            scenario_battery(stop_ms=self.knob(session, "stop")))

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..clients.registry import local_testbed_clients
        from ..conformance import scenario_battery

        battery = scenario_battery(stop_ms=self.knob(session, "stop"))
        if self.knob(session, "list"):
            return {"catalog": battery}
        return {"fingerprints": _fingerprints(
            session, plan, local_testbed_clients(), battery)}

    def render(self, result: Any) -> Artifact:
        from ..conformance import (fingerprint_to_dict,
                                   render_conformance_summary,
                                   render_scenario_catalog)

        if "catalog" in result:
            return Artifact(
                text=render_scenario_catalog(result["catalog"]))
        fingerprints = result["fingerprints"]
        return Artifact(
            text=render_conformance_summary(fingerprints),
            data=[fingerprint_to_dict(fp) for fp in fingerprints])



class StageBatteryExperiment(Experiment):
    """One policy-stage scenario battery across every local client.

    Base for the three batteries the staged client API lights up:
    subclasses pick the battery constructor; plan/execute/render ride
    the same probe + store machinery as the main conformance battery,
    so cold==warm byte-identity and gc liveness hold by construction.
    """

    json_capable = True
    battery_name = ""  # subclass: hev3 | svcb | sortlist

    def _battery(self):
        from .. import conformance

        return getattr(conformance, f"{self.battery_name}_battery")()

    def plan(self, session: Session) -> "Plan":
        from ..clients.registry import local_testbed_clients

        return _probe_plan(session, local_testbed_clients(),
                           self._battery())

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..clients.registry import local_testbed_clients

        battery = self._battery()
        return {"battery": battery, "fingerprints": _fingerprints(
            session, plan, local_testbed_clients(), battery)}

    def render(self, result: Any) -> Artifact:
        from ..conformance import fingerprint_to_dict, render_battery_summary

        return Artifact(
            text=render_battery_summary(self.title, result["fingerprints"],
                                        result["battery"]),
            data=[fingerprint_to_dict(fp)
                  for fp in result["fingerprints"]])



class HEv3BatteryExperiment(StageBatteryExperiment):
    name = "conformance-hev3"
    title = "HEv3/QUIC protocol-racing battery (racing stage)"
    paper = "HEv3 §2, §4"
    battery_name = "hev3"


class SvcbBatteryExperiment(StageBatteryExperiment):
    name = "conformance-svcb"
    title = "SVCB/HTTPS-record discovery battery (resolution stage)"
    paper = "HEv3 §3, RFC 9460"
    battery_name = "svcb"


class SortlistBatteryExperiment(StageBatteryExperiment):
    name = "conformance-sortlist"
    title = "per-OS RFC 6724 sortlist battery (sorting stage)"
    paper = "RFC 8305 §4, RFC 6724"
    battery_name = "sortlist"


class FingerprintDiffExperiment(Experiment):
    name = "fingerprint-diff"
    title = "what changed between two clients' fingerprints"
    paper = "§6 (longitudinal), RFC 8305"
    json_capable = True
    knobs = (
        Knob("client_a", type=str, default=None, positional=True,
             metavar="client-a",
             help="baseline client selector ('Name version')"),
        Knob("client_b", type=str, default=None, positional=True,
             metavar="client-b",
             help="comparison client selector ('Name version')"),
        Knob("stop", type=int, default=400,
             help="CAD sweep upper bound in ms"),
    )

    def _profiles(self, session: Session) -> List:
        selectors = (self.knob(session, "client_a"),
                     self.knob(session, "client_b"))
        if not all(selectors):
            raise SystemExit(
                "fingerprint-diff needs two client selectors "
                "(e.g. repro fingerprint --diff 'Chrome 88.0' "
                "'Chrome 130.0')")
        profiles = []
        for selector in selectors:
            matches = _fingerprint_profiles(selector)
            if len(matches) != 1:
                raise SystemExit(
                    f"selector {selector!r} must match exactly one "
                    f"client, got {len(matches)}")
            profiles.append(matches[0])
        return profiles

    def plan(self, session: Session) -> "Plan":
        from ..conformance import scenario_battery
        from ..testbed.parallel import Plan

        if not (self.knob(session, "client_a")
                and self.knob(session, "client_b")):
            return Plan()  # no clients selected: nothing beyond others
        return _probe_plan(
            session, self._profiles(session),
            scenario_battery(stop_ms=self.knob(session, "stop")))

    def execute(self, session: Session, plan: "Plan") -> Any:
        from ..conformance import diff_fingerprints, scenario_battery

        first, second = _fingerprints(
            session, plan, self._profiles(session),
            scenario_battery(stop_ms=self.knob(session, "stop")))
        return diff_fingerprints(first, second)

    def render(self, result: Any) -> Artifact:
        from ..conformance import (fingerprint_diff_to_dict,
                                   render_fingerprint_diff)

        return Artifact(text=render_fingerprint_diff(result),
                        data=fingerprint_diff_to_dict(result))



# --------------------------------------------------------------------------
# registration (presentation order: tables, figures, diagnostics,
# conformance, population, synthesis)
# --------------------------------------------------------------------------

from ..population.experiments import (  # noqa: E402 - registration order
    PopulationFamilyShareExperiment, PopulationLatencyExperiment)
from ..synthesis.experiments import (  # noqa: E402 - registration order
    SynthesizeReportExperiment, SynthesizeScenariosExperiment)

for _experiment in (Table1Experiment(), Table2Experiment(),
                    Table3Experiment(), Table4Experiment(),
                    Table5Experiment(), Figure2Experiment(),
                    Figure4Experiment(), Figure5Experiment(),
                    DelayedAExperiment(), TraceExperiment(),
                    FingerprintExperiment(), ConformanceExperiment(),
                    HEv3BatteryExperiment(), SvcbBatteryExperiment(),
                    SortlistBatteryExperiment(),
                    FingerprintDiffExperiment(),
                    PopulationLatencyExperiment(),
                    PopulationFamilyShareExperiment(),
                    SynthesizeScenariosExperiment(),
                    SynthesizeReportExperiment()):
    register(_experiment)
