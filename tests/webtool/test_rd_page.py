"""Tests for the RD web test page (Figure 4b)."""

import pytest

from repro.clients import get_profile
from repro.simnet import Family
from repro.webtool import (NetworkConditions, RDWebSession,
                           WebToolDeployment, render_rd_session)


@pytest.fixture(scope="module")
def sessions():
    deployment = WebToolDeployment(seed=45)
    safari = RDWebSession(deployment, get_profile("Safari", "17.6"),
                          delays_ms=(0, 25, 100, 500, 1000),
                          session_index=1).run()
    chrome = RDWebSession(deployment, get_profile("Chrome", "130.0"),
                          delays_ms=(0, 25, 100, 500, 1000),
                          session_index=2).run()
    return safari, chrome


def residential_chrome_sessions():
    """Three Chrome RD sessions on one residential deployment."""
    deployment = WebToolDeployment(seed=41)
    return [RDWebSession(deployment, get_profile("Chrome", "130.0"),
                         NetworkConditions.residential(),
                         session_index=index).run().outcomes
            for index in range(3)]


def test_sessions_are_identical_within_a_process():
    """A session's outcomes depend on its index, not on how many
    sessions the process built before."""
    first = residential_chrome_sessions()
    assert all(outcome.fetch_time_s is not None
               for outcomes in first for outcome in outcomes)
    assert residential_chrome_sessions() == first


class TestRDPage:
    def test_safari_flips_to_ipv4_beyond_rd(self, sessions):
        safari, _ = sessions
        flip = safari.flip_delay_ms()
        assert flip is not None
        assert flip <= 100  # RD is 50 ms; first probed step beyond it

    def test_safari_never_stalls(self, sessions):
        safari, _ = sessions
        assert safari.max_stall_s() < 0.300

    def test_safari_classified_as_rd_implementer(self, sessions):
        safari, _ = sessions
        assert safari.implements_rd()

    def test_chrome_stays_ipv6_but_stalls(self, sessions):
        _, chrome = sessions
        assert chrome.flip_delay_ms() is None  # never leaves IPv6
        for outcome in chrome.outcomes:
            assert outcome.used_family is Family.V6
            # Fetch time tracks the injected AAAA delay.
            assert outcome.fetch_time_s >= outcome.aaaa_delay_ms / 1000.0

    def test_chrome_not_classified_as_rd_implementer(self, sessions):
        _, chrome = sessions
        assert not chrome.implements_rd()

    def test_render_mentions_verdict(self, sessions):
        safari, chrome = sessions
        safari_text = render_rd_session(safari)
        chrome_text = render_rd_session(chrome)
        assert "resolution delay implemented" in safari_text
        assert "no resolution delay" in chrome_text

    def test_low_delays_stay_ipv6_for_everyone(self, sessions):
        for session in sessions:
            zero = [o for o in session.outcomes
                    if o.aaaa_delay_ms == 0][0]
            assert zero.used_family is Family.V6
