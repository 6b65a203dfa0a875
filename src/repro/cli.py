"""Command-line interface: one generic dispatcher over the registry.

Every artifact is a registered :class:`~repro.experiments.Experiment`;
the CLI is a thin shell around the registry.  ``repro ls`` lists the
catalogue, ``repro run <name>`` runs any experiment generically, and
every historical command (``repro table2``, ``repro figure2``, …)
survives as an alias whose flags are generated from the same knob
declarations — so the aliases are byte-identical to ``repro run`` by
construction.

Examples::

    python -m repro ls
    python -m repro table1
    python -m repro run table2 --repetitions 5
    python -m repro table3 --repetitions 64
    python -m repro --workers 8 figure2 --step 5
    python -m repro --cache-dir ~/.cache/repro figure2 --step 5
    python -m repro fingerprint "Chrome 130.0" --json
    python -m repro fingerprint --diff "Chrome 88.0" "Chrome 130.0"
    python -m repro cache gc
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .experiments import (Session, all_experiments, get_experiment,
                          knob_mapping)

#: Experiments re-exported here for backwards compatibility with the
#: pre-registry CLI module layout.
from .experiments import FIGURE5_CLIENTS, TABLE2_WEB_ENTRIES  # noqa: F401


def _store_from(args: argparse.Namespace):
    """The campaign store selected by ``--cache-dir`` / ``--no-cache``
    (or the ``REPRO_CACHE_DIR`` environment default), or None.

    One-shot runs and ``repro serve`` share the packed layout, so a
    run against a service's cache directory warm-hits it.
    """
    if getattr(args, "no_cache", False) or not getattr(args, "cache_dir",
                                                      None):
        return None
    from .testbed.store import CampaignStore

    return CampaignStore(args.cache_dir)


def _resilience_from(args: argparse.Namespace, store,
                     experiment_name: str):
    """The fault-tolerant runtime bundle for this invocation, or None.

    Any of ``--retries/--entry-timeout/--fault-plan/--resume`` makes
    resilience *explicit* (the ``[faults]`` summary prints).  A plain
    cached run still gets an implicit bundle whose only job is the
    crash-safe campaign journal — execution stays on the legacy fast
    path and the output stays byte-identical, but a killed invocation
    becomes resumable.
    """
    retries = getattr(args, "retries", None)
    entry_timeout = getattr(args, "entry_timeout", None)
    fault_plan_text = getattr(args, "fault_plan", None)
    resume = bool(getattr(args, "resume", False))
    explicit = (retries is not None or entry_timeout is not None
                or fault_plan_text is not None or resume)
    if resume and store is None:
        raise SystemExit("repro: --resume needs --cache-dir (or "
                         "$REPRO_CACHE_DIR): the campaign journal "
                         "lives in the store")
    if store is None and not explicit:
        return None
    from .testbed.resilience import (CampaignJournal, Resilience,
                                     RetryPolicy)

    plan = None
    if fault_plan_text:
        from .faults import FaultPlan, FaultPlanError

        try:
            plan = FaultPlan.parse(fault_plan_text, seed=args.seed)
        except FaultPlanError as exc:
            raise SystemExit(f"repro: bad --fault-plan: {exc}")
    try:
        policy = RetryPolicy(retries=retries if retries is not None else 0,
                             entry_timeout=entry_timeout,
                             backoff_seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")
    journal = None
    if store is not None:
        journal = CampaignJournal(
            store.root / ".journal" / f"{experiment_name}.log")
        if plan is not None:
            store.fault_plan = plan
    return Resilience(policy=policy, fault_plan=plan, journal=journal,
                      resume=resume, explicit=explicit)


def _session_from(args: argparse.Namespace, experiment) -> Session:
    """One Session per invocation: global flags + the experiment's
    declared knobs resolved from the parsed namespace."""
    store = _store_from(args)
    return Session(seed=args.seed, workers=args.workers,
                   store=store,
                   knobs=knob_mapping(experiment, vars(args)),
                   resilience=_resilience_from(args, store,
                                               experiment.name))


def _run_experiment(experiment, args: argparse.Namespace) -> None:
    """The one generic dispatch path: execute, render, print the
    artifact, then print the session's cache summary exactly once
    (and the fault summary, when resilience was requested)."""
    session = _session_from(args, experiment)
    profiler = None
    if getattr(args, "profile", False):
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        artifact = experiment.run(session)
    finally:
        if profiler is not None:
            profiler.disable()
        if session.resilience is not None:
            session.resilience.close()
    if getattr(args, "json", False) and artifact.data is not None:
        print(artifact.json_text())
    else:
        print(artifact.text)
    cache_line = session.cache_line()
    if cache_line is not None:
        print(cache_line)
    for line in session.fault_detail_lines():
        print(line)
    fault_line = session.fault_line()
    if fault_line is not None:
        print(fault_line)
    if profiler is not None:
        import pstats
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(30)


def _cmd_experiment(args: argparse.Namespace) -> None:
    _run_experiment(get_experiment(args.experiment_name), args)


def _cmd_fingerprint(args: argparse.Namespace) -> None:
    """``repro fingerprint``: one client's report, or ``--diff`` drift
    between two clients (the fingerprint-diff experiment)."""
    if args.diff is not None:
        args.client_a, args.client_b = args.diff
        _run_experiment(get_experiment("fingerprint-diff"), args)
        return
    if args.client is None:
        raise SystemExit("repro fingerprint: a client selector is "
                         "required (or use --diff CLIENT_A CLIENT_B)")
    _run_experiment(get_experiment("fingerprint"), args)


def _cmd_ls(args: argparse.Namespace) -> None:
    """List the registry: every experiment with its paper reference
    and the number of distinct store keys its plan references.  With
    ``--clients``, list the client registry instead — one row per
    profile, with per-stage policy summaries and the nominal RFC 8305
    parameters, all read straight from the PolicyStack declarations."""
    from .analysis import render_table

    if getattr(args, "clients", False):
        from .clients.registry import all_profiles

        rows = []
        for profile in all_profiles():
            summaries = dict(profile.stack.stage_summaries())
            nominal_cad = profile.nominal_cad
            nominal_rd = profile.nominal_rd
            rows.append([
                profile.full_name,
                profile.engine_family,
                profile.os_hint,
                summaries["resolution"],
                summaries["sorting"],
                summaries["racing"],
                (f"{nominal_cad * 1000:.0f} ms"
                 if nominal_cad is not None else None),
                (f"{nominal_rd * 1000:.0f} ms"
                 if nominal_rd is not None else None),
            ])
        print(render_table(
            ["Client", "Engine", "OS", "Resolution", "Sorting", "Racing",
             "CAD", "RD"], rows,
            title="Client registry: policy stacks per profile"))
        print(f"\n{len(rows)} clients registered")
        return

    store = _store_from(args)
    rows = []
    for experiment in all_experiments():
        session = Session(seed=args.seed, workers=args.workers,
                          store=store,
                          knobs=experiment.default_knobs())
        planned = experiment.planned_keys(session)
        space = experiment.sample_space(session)
        rows.append([experiment.name, experiment.paper or None,
                     str(planned) if planned else None,
                     (f"{space[0]} @ {space[1]}"
                      if space is not None else None),
                     experiment.title])
    print(render_table(
        ["Experiment", "Paper", "Planned keys", "Sample space",
         "Description"], rows,
        title="Registered experiments"))
    print(f"\n{len(rows)} experiments registered")


def _cmd_cache_gc(args: argparse.Namespace) -> None:
    """Mark-and-sweep the campaign store against the union of every
    registered experiment's planned keys — an experiment in the
    registry can never be silently collected."""
    store = _store_from(args)
    if store is None:
        raise SystemExit("cache gc needs --cache-dir (or $REPRO_CACHE_DIR)")
    population = {"samples": args.population_samples,
                  "spec": args.population_spec}
    synthesis = {"synthesis_seeds": args.synthesis_seeds,
                 "synthesis_rounds": args.synthesis_rounds,
                 "synthesis_top": args.synthesis_top,
                 "synthesis_neighbors": args.synthesis_neighbors,
                 "clients": args.synthesis_clients}
    overrides = {
        "figure2": {"step": args.step, "stop": args.stop},
        "table3": {"repetitions": args.table3_repetitions},
        "population-latency": population,
        "population-family-share": population,
        "synthesize-scenarios": synthesis,
        "synthesize-report": synthesis,
    }
    live: "set[str]" = set()
    for experiment in all_experiments():
        knobs = experiment.default_knobs()
        knobs.update(overrides.get(experiment.name, {}))
        session = Session(seed=args.seed, store=store, knobs=knobs)
        live.update(experiment.plan(session))
    stats = store.gc(live, dry_run=args.dry_run)
    prefix = "[cache gc] (dry run) " if args.dry_run else "[cache gc] "
    print(f"{prefix}{stats.summary()} root={store.root}")


def _cmd_serve(args: argparse.Namespace) -> None:
    """``repro serve``: run the long-lived campaign service.

    Binds the HTTP admission endpoint over a
    :class:`~repro.service.CampaignService` whose tiered store — an
    LRU over the packed per-shard store — lives in ``--cache-dir``.  A
    directory left by the retired one-file-per-entry layout serves as
    all misses until re-executed; ``repro cache gc`` reclaims it.
    """
    if not getattr(args, "cache_dir", None):
        raise SystemExit("repro serve needs --cache-dir (or "
                         "$REPRO_CACHE_DIR): the tiered store is the "
                         "service's whole point")
    from .service import CampaignService
    from .service.http import CampaignServiceServer

    service = CampaignService(
        args.cache_dir, seed=args.seed, workers=args.workers,
        retries=args.retries if args.retries is not None else 0,
        lru_capacity=args.lru_capacity,
        service_workers=args.service_workers,
        coalesce=not args.no_coalesce)
    server = CampaignServiceServer(service, args.host, args.port)
    host, port = server.address
    print(f"[serve] campaign service on http://{host}:{port} "
          f"root={args.cache_dir} lru={args.lru_capacity}",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _cmd_submit(args: argparse.Namespace) -> None:
    """``repro submit <experiment> [knobs]``: send one submission to a
    running service and reprint its artifact byte-identically (the
    ``[service]`` accounting line goes to stderr, like ``repro run``'s
    would-be ``[cache]`` line goes nowhere — stdout is the artifact)."""
    from .service.http import submit_request

    experiment = get_experiment(args.experiment_name)
    knobs = {}
    for knob in experiment.knobs:
        value = getattr(args, knob.name, None)
        if value is not None and value is not False:
            knobs[knob.name] = value
    try:
        payload = submit_request(args.experiment_name, knobs,
                                 host=args.host, port=args.port,
                                 timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"repro submit: {exc}")
    if not payload.get("ok"):
        raise SystemExit(
            f"repro submit: {payload.get('error', 'unknown error')}")
    if getattr(args, "json", False) and payload.get("data") is not None:
        import json as _json

        print(_json.dumps(payload["data"], indent=2, sort_keys=True))
    else:
        print(payload["text"])
    print(f"[service] planned={payload['planned']} "
          f"hits={payload['hits']} executed={payload['executed']} "
          f"waited={payload['waited']} "
          f"coalesced={str(payload['coalesced']).lower()}",
          file=sys.stderr)


def positive_int(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return workers


def _add_experiment_args(parser: argparse.ArgumentParser, experiment,
                         required_positionals: bool = False) -> None:
    """Materialize an experiment's knobs (plus ``--json`` when it has
    a machine-readable form) on ``parser``."""
    for knob in experiment.knobs:
        knob.add_to_parser(parser, required=required_positionals)
    if experiment.json_capable:
        parser.add_argument("--json", action="store_true",
                            help="machine-readable report instead of "
                                 "the table")
    parser.set_defaults(fn=_cmd_experiment,
                        experiment_name=experiment.name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lazy Eye Inspection: regenerate the paper's "
                    "tables and figures from simulation.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="fan campaign runs out over N processes "
                             "(default: serial; results are identical; "
                             "goes before the subcommand)")
    parser.add_argument("--cache-dir", default=os.environ.get(
                            "REPRO_CACHE_DIR"),
                        help="incremental campaign store directory: "
                             "re-renders skip every run whose coordinates "
                             "and configuration are unchanged, with "
                             "byte-identical output (default: "
                             "$REPRO_CACHE_DIR, else no caching)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run everything fresh even when a cache "
                             "directory is configured")
    parser.add_argument("--retries", type=int, default=None,
                        metavar="N",
                        help="re-execute each failed campaign entry up "
                             "to N times with seeded exponential "
                             "backoff before recording it as a failure "
                             "(default: fail fast)")
    parser.add_argument("--entry-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-entry watchdog: a campaign run that "
                             "exceeds this is killed (the worker pool "
                             "is respawned) and charged a failed "
                             "attempt; needs --workers >= 2 to preempt")
    parser.add_argument("--resume", action="store_true",
                        help="skip campaign entries already recorded in "
                             "the store's crash-safe journal (requires "
                             "--cache-dir; journaled keys lost from the "
                             "store re-execute)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the experiment under cProfile and "
                             "print the hottest call sites (cumulative "
                             "time) to stderr after the artifact")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="chaos testing: inject deterministic "
                             "faults, e.g. 'crash:0.3,corrupt:0.5' "
                             "(kind[:rate[:attempts[:hang_s]]], comma-"
                             "separated; kinds: crash, hang, corrupt, "
                             "partial, io-error)")
    sub = parser.add_subparsers(dest="command", required=True)

    # -- generic registry verbs ------------------------------------------------

    p_ls = sub.add_parser(
        "ls",
        help="list every registered experiment with its paper "
             "reference and planned key count")
    p_ls.add_argument("--clients", action="store_true",
                      help="list the client registry instead: per-stage "
                           "policy summaries and nominal RFC 8305 "
                           "parameters from the PolicyStack declarations")
    p_ls.set_defaults(fn=_cmd_ls)

    p_run = sub.add_parser(
        "run", help="run any registered experiment by name")
    run_sub = p_run.add_subparsers(dest="experiment_name",
                                   required=True, metavar="experiment")
    for experiment in all_experiments():
        p_exp = run_sub.add_parser(experiment.name,
                                   help=experiment.title)
        for knob in experiment.knobs:
            knob.add_to_parser(p_exp)
        p_exp.add_argument("--json", action="store_true",
                           help="machine-readable artifact when the "
                                "experiment provides one")
        p_exp.set_defaults(fn=_cmd_experiment,
                           experiment_name=experiment.name)

    # -- legacy command aliases (same names, same flags, same bytes) -----------

    for name, help_text in (
            ("table1", "HE parameter comparison"),
            ("table2", "client HE feature matrix"),
            ("table3", "resolver IPv6 usage"),
            ("table4", "open resolver inventory"),
            ("table5", "web campaign UA matrix"),
            ("figure2", "CAD sweep per client version"),
            ("figure4", "web tool ladders"),
            ("figure5", "address selection attempts"),
            ("delayed-a", "the §5.2 delayed-A pathology"),
            ("trace", "one HE run's event trace"),
            ("conformance",
             "fingerprint every local-testbed client and print the "
             "conformance summary")):
        _add_experiment_args(sub.add_parser(name, help=help_text),
                             get_experiment(name))

    pfp = sub.add_parser(
        "fingerprint",
        help="probe one client with the conformance scenario battery "
             "and print its RFC 8305 fingerprint report")
    # The positional stays required here (``repro run fingerprint``
    # defaults to 'all'): omit it only together with ``--diff``.
    pfp.add_argument("client", nargs="?", default=None,
                     help="client selector: 'Name version', 'Name' "
                          "(latest), or 'all'")
    for knob in get_experiment("fingerprint").knobs:
        if knob.name != "client":
            knob.add_to_parser(pfp)
    pfp.add_argument("--json", action="store_true",
                     help="machine-readable report instead of the table")
    pfp.add_argument("--diff", nargs=2,
                     metavar=("CLIENT_A", "CLIENT_B"), default=None,
                     help="diff two clients' fingerprints into a "
                          "drift report (the fingerprint-diff "
                          "experiment)")
    pfp.set_defaults(fn=_cmd_fingerprint)

    # -- the campaign service ---------------------------------------------------

    from .service.http import DEFAULT_HOST, DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived campaign service: HTTP admission over "
             "a tiered (LRU + packed-shard) store with single-flight "
             "dedup of in-flight keys")
    p_serve.add_argument("--host", default=DEFAULT_HOST,
                         help=f"bind address (default {DEFAULT_HOST})")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"bind port (default {DEFAULT_PORT}; 0 "
                              "picks a free one)")
    p_serve.add_argument("--lru-capacity", type=int, default=8192,
                         help="entries held by the in-memory tier "
                              "(default 8192)")
    p_serve.add_argument("--service-workers", type=positive_int,
                         default=8,
                         help="concurrent submissions in flight "
                              "(default 8; campaign-level parallelism "
                              "is the global --workers)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="do not share one execution between "
                              "identical in-flight submissions "
                              "(single-flight key dedup still applies)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one experiment to a running campaign service and "
             "print the served artifact (byte-identical to 'repro run')")
    submit_sub = p_submit.add_subparsers(dest="experiment_name",
                                         required=True,
                                         metavar="experiment")
    for experiment in all_experiments():
        p_exp = submit_sub.add_parser(experiment.name,
                                      help=experiment.title)
        for knob in experiment.knobs:
            knob.add_to_parser(p_exp)
        p_exp.add_argument("--json", action="store_true",
                           help="machine-readable artifact when the "
                                "experiment provides one")
        p_exp.add_argument("--host", default=DEFAULT_HOST,
                           help=f"service address (default "
                                f"{DEFAULT_HOST})")
        p_exp.add_argument("--port", type=int, default=DEFAULT_PORT,
                           help=f"service port (default {DEFAULT_PORT})")
        p_exp.add_argument("--timeout", type=float, default=600.0,
                           help="submission timeout in seconds "
                                "(default 600)")
        p_exp.set_defaults(fn=_cmd_submit,
                           experiment_name=experiment.name)

    pcache = sub.add_parser("cache", help="campaign store maintenance")
    cache_sub = pcache.add_subparsers(dest="cache_command", required=True)
    pgc = cache_sub.add_parser(
        "gc",
        help="drop store entries unreferenced by any registered "
             "experiment's plan and print the reclaimed bytes")
    pgc.add_argument("--step", type=int, default=25,
                     help="figure2 step whose keys stay live (default 25)")
    pgc.add_argument("--stop", type=int, default=400)
    pgc.add_argument("--table3-repetitions", type=int, default=160,
                     help="table3 share repetitions whose keys stay "
                          "live (default 160, the table3 default; "
                          "smaller campaigns are a key subset)")
    pgc.add_argument("--population-samples", type=int, default=250,
                     help="population sample count whose keys stay "
                          "live (default 250, the population default; "
                          "smaller populations are a key subset)")
    pgc.add_argument("--population-spec", default="default",
                     help="population spec whose sample keys stay live "
                          "(preset name, @file, or inline JSON; "
                          "default: the 'default' preset)")
    pgc.add_argument("--synthesis-seeds", type=int, default=32,
                     help="synthesis grid budget whose keys stay live "
                          "(default 32, the synthesis default; smaller "
                          "budgets are a key subset)")
    pgc.add_argument("--synthesis-rounds", type=int, default=2,
                     help="synthesis refinement rounds planned live "
                          "(refinement keys resolve only from a warm "
                          "store, like the probe's fine pass)")
    pgc.add_argument("--synthesis-top", type=int, default=6,
                     help="synthesis refinement breadth whose keys "
                          "stay live (default 6)")
    pgc.add_argument("--synthesis-neighbors", type=int, default=8,
                     help="synthesis neighbours-per-parent whose keys "
                          "stay live (default 8)")
    pgc.add_argument("--synthesis-clients", default="all",
                     help="client selectors whose synthesis keys stay "
                          "live (default 'all')")
    pgc.add_argument("--dry-run", action="store_true",
                     help="report what gc would keep/remove and the "
                          "reclaimable bytes without deleting anything")
    pgc.set_defaults(fn=_cmd_cache_gc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
