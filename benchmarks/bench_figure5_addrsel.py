"""Figure 5 — address family used at the n-th connection attempt.

Ten unresponsive addresses per family (the §4.1(iii) blackhole setup):
HEv1-style clients stop after one address per family, wget stays on its
first IPv6 address forever, and Safari walks all twenty addresses with
its burst interleave (v6 ×2, v4 ×1, v6 ×8, v4 ×9 — App. D).
"""

from repro.analysis import figure5_attempts, render_figure5
from repro.clients import get_profile
from repro.experiments import Session
from repro.simnet import Family

from _util import emit

CLIENTS = [
    ("wget", "1.21.3"), ("curl", "7.88.1"), ("Safari", "17.6"),
    ("Firefox", "132.0"), ("Edge", "130.0"), ("Chromium", "130.0"),
    ("Chrome", "130.0"),
]


def build_figure5():
    profiles = [get_profile(name, version) for name, version in CLIENTS]
    return figure5_attempts(profiles, addresses_per_family=10,
                            session=Session(seed=4))


def test_figure5_address_selection(benchmark):
    series = benchmark.pedantic(build_figure5, rounds=1, iterations=1)
    by_client = {entry.client: entry for entry in series}

    # wget: one IPv6 attempt, nothing else, within the window.
    assert by_client["wget 1.21.3"].pattern == "6"

    # HEv1-style clients: exactly one attempt per family, IPv6 first.
    for name in ("curl 7.88.1", "Firefox 132.0", "Edge 130.0",
                 "Chromium 130.0", "Chrome 130.0"):
        assert by_client[name].pattern == "64", name

    # Safari: FAFC 2, one IPv4 interleave, the rest in family bursts.
    safari = by_client["Safari 17.6"]
    assert len(safari.families) == 20
    assert safari.pattern == "664" + "6" * 8 + "4" * 9

    emit("figure5_address_selection", render_figure5(series))
