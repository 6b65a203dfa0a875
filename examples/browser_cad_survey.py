#!/usr/bin/env python3
"""Browser CAD survey: a coarse Figure 2 on your terminal.

Sweeps the configured IPv6 delay for every client version of Figure 2
(coarse 25 ms grid; pass ``--fine`` for the paper's 5 ms steps) and
prints which address family each client's established connection used,
plus the CAD inferred from packet captures.

Run:  python examples/browser_cad_survey.py [--fine]
"""

import argparse

from repro.analysis import figure2_sweep, render_figure2
from repro.clients import figure2_clients, get_profile
from repro.experiments import Session
from repro.testbed import (StreamingResultSet, SweepSpec, TestCaseConfig,
                           TestCaseKind, TestRunner)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fine", action="store_true",
                        help="5 ms steps (the paper's grid; slower)")
    args = parser.parse_args()
    step = 5 if args.fine else 25

    print(f"Sweeping IPv6 delay 0..400 ms in {step} ms steps over "
          f"{len(figure2_clients())} client versions...\n")
    # The Session is the execution context: seed here, plus workers=N,
    # a campaign store or a resilience bundle when you want them.
    series = figure2_sweep(step_ms=step, stop_ms=400,
                           session=Session(seed=11))
    print(render_figure2(series))

    # CAD values measured from captures, like the paper's Section 5.1.
    print("\nMeasured CAD per client (median over fallback runs):")
    case = TestCaseConfig(name="cadprobe",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.fixed(350, 380, 400))
    clients = [get_profile("Chrome", "130.0"),
               get_profile("Firefox", "132.0"),
               get_profile("curl", "7.88.1")]
    results = StreamingResultSet.consume(
        TestRunner(clients, [case], seed=12).stream(Session()))
    for profile in clients:
        cad = results.median_cad(profile.full_name)
        print(f"  {profile.full_name:<16} "
              f"{cad * 1000:6.1f} ms" if cad else
              f"  {profile.full_name:<16} (no fallback observed)")

    print("\nSafari is omitted from the sweep (2 s CAD), as in the "
          "paper's Figure 2.")


if __name__ == "__main__":
    main()
