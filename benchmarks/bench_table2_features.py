"""Table 2 — HE feature evaluation of client applications.

Runs the local test cases (CAD probe, RD probe, address selection)
against the nine Table 2 clients and validates the results with a web
campaign, then checks the paper's headline findings:

* only Safari implements RD and address selection (full HEv2);
* HEv1-style clients use exactly one address per family;
* wget implements no HE at all;
* Safari's web behaviour is inconsistent, Firefox deviates.
"""

import pytest

from repro.analysis import render_table2, table2_features
from repro.experiments import Session
from repro.webtool import UAEntry, WebCampaign
from repro.webtool.report import ConsistencyMark

from _util import emit, timed

WEB_ENTRIES = (
    UAEntry("Linux", "", "Chrome", "130.0.0"),
    UAEntry("Linux", "", "Chromium", "130.0.0"),
    UAEntry("Windows", "10", "Edge", "130.0.0"),
    UAEntry("Linux", "", "Firefox", "132.0"),
    UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"),
)


def build_table2():
    with timed("table2_features", {"web_repetitions": 10}):
        campaign = WebCampaign(seed=7, repetitions=10)
        web = campaign.run(entries=WEB_ENTRIES)
        return table2_features(web_campaign=web, session=Session(seed=1))


def test_table2_features(benchmark):
    rows = benchmark.pedantic(build_table2, rounds=1, iterations=1)
    by_client = {row.client: row for row in rows}

    # Every client prefers IPv6 when both families are offered.
    assert all(row.prefers_ipv6 for row in rows)

    # Chromium family: CAD 300 ms, AAAA first, no RD, 1+1 addresses.
    for name in ("Chrome 130.0", "Chromium 130.0", "Edge 130.0"):
        row = by_client[name]
        assert row.cad_implemented
        assert row.cad_value_ms == pytest.approx(300.0, abs=5.0)
        assert row.aaaa_first
        assert not row.rd_implemented
        assert (row.ipv4_addresses_used, row.ipv6_addresses_used) == (1, 1)
        assert not row.address_selection

    # Firefox: 250 ms CAD, A-first (stub-resolver order), no RD.
    firefox = by_client["Firefox 132.0"]
    assert firefox.cad_value_ms == pytest.approx(250.0, abs=60.0)
    assert not firefox.aaaa_first
    assert not firefox.rd_implemented

    # Safari: the only full HEv2 client.
    safari = by_client["Safari 17.6"]
    assert safari.rd_implemented
    assert safari.rd_value_ms == pytest.approx(50.0, abs=5.0)
    assert safari.address_selection
    assert (safari.ipv4_addresses_used, safari.ipv6_addresses_used) == \
        (10, 10)

    # curl: smallest CAD (200 ms); wget: no HE, never touches IPv4.
    curl = by_client["curl 7.88.1"]
    assert curl.cad_value_ms == pytest.approx(200.0, abs=5.0)
    wget = by_client["wget 1.21.3"]
    assert not wget.cad_implemented
    assert wget.ipv4_addresses_used is None
    assert wget.ipv6_addresses_used == 1

    # Consistency: Safari inconsistent, Firefox deviates, Chromium
    # family consistent (§5.1).
    assert safari.consistency is ConsistencyMark.INCONSISTENT
    assert firefox.consistency in (ConsistencyMark.DEVIATION,
                                   ConsistencyMark.INCONSISTENT)
    assert by_client["Chrome 130.0"].consistency is \
        ConsistencyMark.CONSISTENT

    emit("table2_features", render_table2(rows))
