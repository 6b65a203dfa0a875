"""Ablation — resolver name-server selection policies under IPv6 impairment.

§6 suggests "starting dedicated discussions to develop recommendations
on the behavior of protocol preference for critical Internet
infrastructure clients, such as DNS resolvers".  This ablation compares
the policy families observed in the wild when the zone's IPv6 name
server is increasingly delayed:

* always-IPv6 with a long timeout (BIND-style, 800 ms),
* probabilistic preference (Unbound-style, 44 %),
* HE-style fast fallback (OpenDNS-style, 50 ms),
* IPv4-only (Google-style).
"""

import statistics

import pytest

from repro.dns.nsselect import GluePlan, ResolverBehavior
from repro.experiments import Session
from repro.resolvers.testbed import run_resolver_campaign

from _util import emit

POLICIES = {
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

DELAYS_MS = [0, 100, 400, 1000]


def build_ablation():
    table = {}
    for label, behavior in POLICIES.items():
        per_delay = {}
        for delay_ms in DELAYS_MS:
            campaign = run_resolver_campaign(
                behavior, delays_ms=[delay_ms], repetitions=6,
                session=Session(seed=hash(label) & 0xFFFF))
            durations = [o.duration_s - 30.0 + 30.0 for o in
                         campaign.observations]
            latency = statistics.mean(
                min(o.duration_s, 30.0) for o in campaign.observations)
            v6_used = statistics.mean(
                1.0 if o.answering_family is not None
                and o.answering_family.value == 6 else 0.0
                for o in campaign.observations)
            per_delay[delay_ms] = (latency, v6_used)
        table[label] = per_delay
    return table


def test_ablation_ns_selection(benchmark):
    table = benchmark.pedantic(build_ablation, rounds=1, iterations=1)

    # HE-style: keeps IPv6 at zero delay, and caps the damage at 50 ms
    # when IPv6 is slow.
    he = table["HE-style / 50 ms"]
    assert he[0][1] == 1.0
    assert he[1000][1] == 0.0
    # Always-v6 with a long timeout pays it in full under impairment.
    always = table["always-v6 / 800 ms"]
    assert always[1000][0] > he[1000][0] + 0.5
    # v4-only never uses IPv6, even when it is perfectly fine.
    v4only = table["v4-only"]
    assert all(v6 == 0.0 for _, v6 in v4only.values())

    lines = ["Ablation: resolver NS-selection policy vs IPv6 delay",
             f"{'policy':>20}  " + "  ".join(f"{d:>5}ms" for d in DELAYS_MS)
             + "   (resolution time; * = answered via IPv6)"]
    for label, per_delay in table.items():
        cells = []
        for delay_ms in DELAYS_MS:
            latency, v6_used = per_delay[delay_ms]
            marker = "*" if v6_used >= 0.5 else " "
            cells.append(f"{latency * 1000:>5.0f}{marker}")
        lines.append(f"{label:>20}  " + "  ".join(cells))
    emit("ablation_ns_selection", "\n".join(lines))
