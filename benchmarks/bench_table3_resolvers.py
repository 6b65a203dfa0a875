"""Table 3 — resolver IPv6 usage as observed at the authoritative NS.

Runs share + shaped-delay campaigns for BIND/Unbound/Knot and the 13
evaluated open resolver services, then checks the paper's findings:

* BIND performs classic HE preference: always IPv6, 800 ms fallback;
* Unbound uses IPv6 for ~44 % with a 376 ms timeout and exponential
  backoff retries (two packets to the IPv6 address);
* only OpenDNS behaves HE-style among open services (always IPv6,
  50 ms fallback); Google Public DNS and DNS.sb never use IPv6.
"""

import pytest

from repro.analysis import render_table3, table3_resolvers
from repro.experiments import Session

from _util import emit, timed


def build_table3():
    # Eight repetitions per shaped delay: enough that Unbound's 44 %
    # probabilistic retry cannot masquerade as reliable IPv6 usage.
    with timed("table3_resolvers", {"share_repetitions": 160,
                                    "delay_repetitions": 8}):
        return table3_resolvers(share_repetitions=160,
                                delay_repetitions=8,
                                session=Session(seed=3))


def test_table3_resolvers(benchmark):
    rows = benchmark.pedantic(build_table3, rounds=1, iterations=1)
    by_service = {row.service: row for row in rows}

    bind = by_service["BIND"]
    assert bind.ipv6_share == pytest.approx(100.0)
    assert bind.max_ipv6_delay_ms == 800
    assert bind.ipv6_packets == 1
    assert bind.aaaa_query == "AAAA after A"

    unbound = by_service["Unbound"]
    assert unbound.ipv6_share == pytest.approx(43.8, abs=10.0)
    assert unbound.max_ipv6_delay_ms == 376
    assert unbound.ipv6_packets == 2
    assert unbound.aaaa_query == "AAAA before A"

    knot = by_service["Knot Resolver"]
    assert knot.ipv6_share == pytest.approx(27.9, abs=10.0)
    assert knot.max_ipv6_delay_ms == 400
    assert knot.aaaa_query == "either A or AAAA, never both"

    # Services that never use the IPv6 name-server address.
    for name in ("DNS.sb", "Google P. DNS"):
        assert by_service[name].ipv6_share == pytest.approx(0.0)
        assert by_service[name].max_ipv6_delay_ms is None

    # OpenDNS: the only HE-style open service.
    opendns = by_service["OpenDNS"]
    assert opendns.ipv6_share == pytest.approx(100.0)
    assert opendns.max_ipv6_delay_ms == 50

    # Fallback timeouts match the paper column per service.
    expected_delays = {
        "NextDNS": 200, "Quad 101": 400, "114DNS": 600,
        "Cloudflare": 500, "Verisign P. DNS": 250, "Yandex": 300,
        "H-MSK-IX": 600, "MSK-IX": 600, "Quad9 DNS": 1250,
    }
    for service, delay in expected_delays.items():
        assert by_service[service].max_ipv6_delay_ms == delay, service

    # Yandex fires up to six packets at the IPv6 address; DNS0.EU's
    # parallel queries make its fallback delay unmeasurable.
    assert by_service["Yandex"].ipv6_packets == 6
    assert by_service["DNS0.EU"].max_ipv6_delay_ms is None

    emit("table3_resolvers", render_table3(rows))
