#!/usr/bin/env python3
"""Quickstart: watch Happy Eyeballs race a dual-stack connection.

Builds the two-host local testbed, delays IPv6 beyond the client's
Connection Attempt Delay, and connects once with an RFC 8305 client —
printing the full event trace (the Figure 1 message sequence) and the
client-side packet capture (what the testbed's inference reads).

Run:  python examples/quickstart.py
"""

from repro.core import rfc8305_stack
from repro.core.engine import HappyEyeballsEngine
from repro.dns.stub import StubResolver
from repro.testbed import CaptureObservation
from repro.testbed.topology import LocalTestbed


def main() -> None:
    # -- the lab: client node + server node, directly connected -----------
    testbed = LocalTestbed(seed=42)
    # Delay IPv6 TCP by 400 ms on the server side (tc-netem equivalent):
    # more than the client's 250 ms CAD, so IPv4 should win the race.
    testbed.delay_ipv6_tcp(0.400)

    # -- an RFC 8305 client on the client node ------------------------------
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    engine = HappyEyeballsEngine(testbed.client, stub, rfc8305_stack())

    capture = testbed.start_client_capture()
    process = engine.connect("www.he-test.example", port=80)
    result = testbed.sim.run_until(process)

    print("=" * 72)
    print("Happy Eyeballs event trace (compare with Figure 1):")
    print("=" * 72)
    print(result.trace.render())

    print()
    print("=" * 72)
    print("Client-side packet capture (what the testbed measures):")
    print("=" * 72)
    print(capture.render(limit=20))

    print()
    print("=" * 72)
    winner = result.winning_family
    cad = CaptureObservation(capture, decode_dns=False).cad
    print(f"winner            : {winner.label} "
          f"({result.race.winning_attempt.candidate.address})")
    print(f"time to connect   : {result.time_to_connect * 1000:.1f} ms")
    print(f"CAD from capture  : {cad * 1000:.1f} ms "
          "(first IPv6 SYN -> first IPv4 SYN)")
    print(f"attempts          : "
          + ", ".join(f"{a.family.label}@{(a.started_at - result.started_at) * 1000:.0f}ms"
                      f"[{a.outcome.value}]" for a in result.attempts))
    assert winner.label == "IPv4"


if __name__ == "__main__":
    main()
