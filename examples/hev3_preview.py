#!/usr/bin/env python3
"""HEv3 preview: SVCB/HTTPS-driven protocol racing.

The paper closes with HEv3 (draft-ietf-happy-happyeyeballs-v3): clients
should consume HTTPS records and favor ECH over QUIC over TCP.  This
example publishes an HTTPS record advertising h3 + ECH and shows the
engine racing QUIC first — and falling back to TCP within one CAD when
QUIC is blackholed (e.g. UDP-hostile middleboxes).

Run:  python examples/hev3_preview.py
"""

from repro.core import hev3_draft_stack
from repro.core.engine import HappyEyeballsEngine
from repro.dns import DNSName, HTTPS
from repro.dns.stub import StubResolver
from repro.simnet import NetemFilter, NetemRule, NetemSpec, Protocol
from repro.testbed.topology import LocalTestbed


def connect_once(quic_healthy: bool):
    testbed = LocalTestbed(seed=3)
    testbed.zone.add("www", HTTPS.service(
        1, DNSName.from_text(f"www.{testbed.test_domain}"),
        alpn=("h3", "h2"), ech=True))
    if quic_healthy:
        testbed.server.quic.listen(80)
    else:
        testbed.server_iface.ingress.add_rule(NetemRule(
            spec=NetemSpec(loss=1.0),
            filter=NetemFilter(protocol=Protocol.QUIC),
            name="udp-hostile-middlebox"))
    stub = StubResolver(testbed.client, testbed.resolver_addresses[:1],
                        timeout=3600.0, retries=0)
    engine = HappyEyeballsEngine(testbed.client, stub,
                                 hev3_draft_stack())
    result = testbed.sim.run_until(
        engine.connect(f"www.{testbed.test_domain}"))
    return result


def main() -> None:
    for healthy, label in ((True, "QUIC reachable"),
                           (False, "QUIC blackholed (UDP dropped)")):
        result = connect_once(healthy)
        attempt = result.race.winning_attempt
        print(f"{label}:")
        print(f"  winner: {attempt.protocol.value.upper()} over "
              f"{attempt.family.label} "
              f"({attempt.candidate.address})")
        print(f"  time to connect: {result.time_to_connect * 1000:.1f} ms")
        print("  attempts: " + ", ".join(
            f"{a.protocol.value}/{a.family.label[3]}"
            f"[{a.outcome.value}]" for a in result.attempts))
        print()
    print("HEv3 preference order: ECH > QUIC > TCP, interlaced across "
          "address families (draft §2).")


if __name__ == "__main__":
    main()
