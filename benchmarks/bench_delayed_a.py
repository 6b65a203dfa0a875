"""§5.2 — the delayed-A pathology.

"To our astonishment, while all clients continued to prefer IPv6, all
but Safari always waited for the A response to arrive" — a slow DNS A
lookup stalls even the IPv6 connection, and with a resolver timeout in
play Chrome and Firefox connections fail outright despite a fully
functional IPv6 setup.  The Chromium HEv3 feature flag removes the
stall.
"""

import pytest

from repro.clients import get_profile
from repro.simnet import Family
from repro.testbed import (SweepSpec, TestCaseConfig, TestCaseKind,
                           TestRunner)

from _util import emit

CASE = TestCaseConfig(name="delayed-a", kind=TestCaseKind.DELAYED_A,
                      sweep=SweepSpec.fixed(500, 1000, 2000))


def build_delayed_a():
    clients = [get_profile("Chrome", "130.0"),
               get_profile("Firefox", "132.0"),
               get_profile("curl", "7.88.1"),
               get_profile("Safari", "17.6")]
    plain = TestRunner(clients, [CASE], seed=71).run()
    flagged = TestRunner([get_profile("Chrome", "130.0")], [CASE],
                         seed=72, hev3_flag=True).run()
    return plain, flagged


def test_delayed_a_pathology(benchmark):
    plain, flagged = benchmark.pedantic(build_delayed_a, rounds=1,
                                        iterations=1)

    for record in plain:
        assert record.winning_family is Family.V6  # IPv6 still preferred
        expected = record.value_ms / 1000.0
        if record.client.startswith("Safari"):
            # Safari starts connecting as soon as AAAA arrives.
            assert record.time_to_first_attempt_s < 0.100
        else:
            # Everyone else stalls for the full A-record delay.
            assert record.time_to_first_attempt_s == pytest.approx(
                expected, abs=0.050), record.client

    for record in flagged:
        # The HEv3 flag adds the RD and removes the stall entirely.
        assert record.winning_family is Family.V6
        assert record.time_to_first_attempt_s < 0.100

    lines = ["Delayed-A pathology: time from first query to first "
             "connection attempt",
             f"{'client':<16} {'A delay':>8}  stall"]
    for record in plain:
        lines.append(f"{record.client:<16} {record.value_ms:>5} ms  "
                     f"{record.time_to_first_attempt_s * 1000:8.1f} ms")
    for record in flagged:
        lines.append(f"{'Chrome+HEv3flag':<16} {record.value_ms:>5} ms  "
                     f"{record.time_to_first_attempt_s * 1000:8.1f} ms")
    emit("delayed_a_pathology", "\n".join(lines))
