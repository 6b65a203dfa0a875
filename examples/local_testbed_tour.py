#!/usr/bin/env python3
"""Tour of the local testbed framework (§4.3(i), App. Figure 3).

Walks through the framework's moving parts the way the paper's
component diagram does: the two-node topology, the setup modules each
test-case kind composes, the sweep configuration, and one full runner
campaign with its per-run isolation.

Run:  python examples/local_testbed_tour.py
"""

from repro.clients import get_profile
from repro.testbed import (SweepSpec, TestCaseConfig, TestCaseKind,
                           TestRunner, address_selection_case, cad_case,
                           delayed_a_case, modules_for, rd_case)
from repro.testbed.topology import LocalTestbed


def main() -> None:
    print("1. Topology (client node + server node, direct link)")
    print("-" * 60)
    testbed = LocalTestbed(seed=1)
    for host in (testbed.client, testbed.server):
        addresses = ", ".join(str(a) for a in host.addresses)
        print(f"   {host.name:<12} {addresses}")
    print(f"   server services: authoritative DNS (:5353), forwarding "
          f"resolver (:53,")
    print(f"   timeout {testbed.resolver.upstream_timeout}s), echo web "
          f"server (:{testbed.web.port})")
    print(f"   test zone: {testbed.zone.origin} "
          f"({len(testbed.zone.names)} nodes, wildcard answers)")

    print("\n2. Test cases and their module chains")
    print("-" * 60)
    for case in (cad_case(fine=False), rd_case(), delayed_a_case(),
                 address_selection_case()):
        chain = " -> ".join(module.name for module in modules_for(case))
        print(f"   {case.name:<26} [{case.kind.value}]")
        print(f"      sweep: {len(case.sweep)} values "
              f"{list(case.sweep)[:6]}{'...' if len(case.sweep) > 6 else ''}")
        print(f"      modules: {chain}")

    print("\n3. Coarse + fine sweeps (the paper's two-phase strategy)")
    print("-" * 60)
    sweep = SweepSpec.coarse_fine(coarse_step_ms=100, fine_step_ms=10,
                                  stop_ms=400, around_ms=300,
                                  fine_window_ms=50)
    print(f"   coarse 100 ms everywhere + fine 10 ms around 300 ms:")
    print(f"   {list(sweep)}")

    print("\n4. One campaign: Chrome vs curl on a focused CAD case")
    print("-" * 60)
    case = TestCaseConfig(name="tour-cad",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.fixed(150, 250, 350))
    runner = TestRunner([get_profile("Chrome", "130.0"),
                         get_profile("curl", "7.88.1")], [case], seed=2)
    results = runner.run()
    print(f"   {'client':<16}{'delay':>7}  {'family':>7}  {'CAD':>9}")
    for record in results:
        cad = (f"{record.cad_s * 1000:.0f} ms"
               if record.cad_s is not None else "-")
        print(f"   {record.client:<16}{record.value_ms:>4} ms  "
              f"{record.winning_family.label:>7}  {cad:>9}")
    print("\n   Every run used a fresh testbed + client (the paper's")
    print("   'drop and create a new container' state reset).")


if __name__ == "__main__":
    main()
