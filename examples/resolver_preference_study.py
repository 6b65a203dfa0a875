#!/usr/bin/env python3
"""Resolver IP-version preference study (§4.2 / §5.3, Table 3).

Runs the resolver testbed — a real delegation walk from root hints to
a shaped authoritative name server — for BIND, Unbound, Knot, and a
few open-resolver behaviour models, and reports what the authoritative
query log shows: AAAA query ordering, IPv6 usage share, and the
fallback timeout.

Run:  python examples/resolver_preference_study.py
"""

from repro.experiments import Session
from repro.resolvers import (BIND9, KNOT, UNBOUND, OPEN_RESOLVER_BY_NAME,
                             ResolverTestbed, run_resolver_campaign)


def study(behavior, delays=(0, 200, 400, 800, 1200), reps=6):
    campaign = run_resolver_campaign(behavior, delays_ms=list(delays),
                                     repetitions=reps,
                                     session=Session(seed=21))
    share = campaign.ipv6_share
    max_delay = campaign.reliable_max_ipv6_delay_ms()
    gap = campaign.median_fallback_gap_ms()
    return share, max_delay, gap, campaign.max_v6_packets


def main() -> None:
    subjects = [BIND9, UNBOUND, KNOT,
                OPEN_RESOLVER_BY_NAME["OpenDNS"].behavior,
                OPEN_RESOLVER_BY_NAME["Google P. DNS"].behavior,
                OPEN_RESOLVER_BY_NAME["Yandex"].behavior]

    print(f"{'resolver':<16}{'IPv6 share':>11}{'max v6 delay':>14}"
          f"{'fallback gap':>14}{'v6 pkts':>9}")
    print("-" * 64)
    for behavior in subjects:
        share, max_delay, gap, packets = study(behavior)
        print(f"{behavior.name:<16}"
              f"{share:>9.1f} %"
              f"{(str(max_delay) + ' ms') if max_delay else '-':>14}"
              f"{(f'{gap:.0f} ms' if gap else '-'):>14}"
              f"{packets:>9}")

    print()
    print("One resolution in detail (BIND, IPv6 NS delayed 1.2 s):")
    testbed = ResolverTestbed(BIND9, seed=5, delay_ms=1200)
    observation = testbed.run()
    for entry in testbed.auth.query_log:
        print(f"  {entry.timestamp * 1000:8.1f} ms  "
              f"{entry.transport_family.label:4}  "
              f"{entry.qtype.name:5} {entry.qname}")
    print(f"  -> answered via {observation.answering_family.label}, "
          f"fallback gap "
          f"{observation.fallback_gap_s * 1000:.0f} ms "
          "(BIND's 800 ms timeout)")


if __name__ == "__main__":
    main()
