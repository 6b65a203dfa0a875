"""Tests for the web-based testing tool."""

import runpy
from pathlib import Path

import pytest

from repro.clients import get_profile
from repro.simnet import Family
from repro.webtool import (DELAY_LADDER_MS, NetworkConditions, UAEntry,
                           WebCampaign, WebToolDeployment, WebToolSession,
                           build_ladder, cad_interval_from_outcomes,
                           classify_consistency, format_cad_interval,
                           profile_for_entry, render_session_ladder)
from repro.webtool.campaign import TABLE5_MATRIX
from repro.webtool.report import ConsistencyMark


class TestLadder:
    def test_eighteen_delays(self):
        assert len(DELAY_LADDER_MS) == 18
        assert DELAY_LADDER_MS[0] == 0
        assert DELAY_LADDER_MS[-1] == 5000

    def test_dedicated_pairs_and_domains(self):
        ladder = build_ladder()
        v4 = {step.v4_address for step in ladder}
        v6 = {step.v6_address for step in ladder}
        domains = {step.domain for step in ladder}
        assert len(v4) == len(ladder)
        assert len(v6) == len(ladder)
        assert len(domains) == len(ladder)

    def test_nonce_hostnames(self):
        step = build_ladder()[3]
        assert step.hostname("abc123").startswith("nabc123.")

    def test_cad_interval_inference(self):
        outcomes = [(0, True), (100, True), (200, True), (250, False),
                    (300, False)]
        assert cad_interval_from_outcomes(outcomes) == (200, 250)

    def test_cad_interval_always_v6(self):
        assert cad_interval_from_outcomes([(0, True), (5000, True)]) == \
            (5000, None)

    def test_format_interval(self):
        assert format_cad_interval((200, 250)) == "CAD in (200, 250] ms"
        assert "IPv6 on every step" in format_cad_interval((5000, None))


class TestSessions:
    def test_chrome_session_flips_at_300(self):
        deployment = WebToolDeployment(seed=31)
        session = WebToolSession(deployment,
                                 get_profile("Chrome", "130.0"),
                                 conditions=NetworkConditions.lab_like(),
                                 session_index=1)
        result = session.run()
        low, high = result.cad_interval()
        # CAD 300 ms: last IPv6 at 250/300, first IPv4 at 300/350.
        assert low in (250, 300)
        assert high in (300, 350)
        assert result.is_monotonic()

    def test_session_uses_client_side_family_detection(self):
        deployment = WebToolDeployment(seed=32)
        session = WebToolSession(deployment,
                                 get_profile("curl", "7.88.1"),
                                 conditions=NetworkConditions.lab_like(),
                                 session_index=2)
        result = session.run()
        zero_step = [o for o in result.outcomes if o.delay_ms == 0][0]
        assert zero_step.used_family is Family.V6
        top_step = [o for o in result.outcomes if o.delay_ms == 5000][0]
        assert top_step.used_family is Family.V4

    def test_safari_sessions_vary(self):
        deployment = WebToolDeployment(seed=33)
        intervals = set()
        for repetition in range(6):
            session = WebToolSession(deployment,
                                     get_profile("Safari", "17.6"),
                                     repetition=repetition,
                                     session_index=3 + repetition)
            intervals.add(session.run().cad_interval())
        # Dynamic CAD: the interval moves between sessions.
        assert len(intervals) >= 3

    def test_render_ladder_output(self):
        deployment = WebToolDeployment(seed=34)
        session = WebToolSession(deployment,
                                 get_profile("Chrome", "130.0"),
                                 conditions=NetworkConditions.lab_like(),
                                 session_index=9)
        text = render_session_ladder(session.run())
        assert "IPv6" in text and "IPv4" in text
        assert "CAD in" in text


    def test_example_output_is_stable_within_a_process(self, capsys):
        """A session's ladder depends on its configuration only, not on
        how many sessions the process built before."""
        example = (Path(__file__).resolve().parents[2] / "examples"
                   / "webtool_session.py")
        main = runpy.run_path(str(example))["main"]
        main()
        first = capsys.readouterr().out
        main()
        assert capsys.readouterr().out == first


class TestCampaign:
    def test_table5_matrix_shape(self):
        assert len(TABLE5_MATRIX) == 33
        browsers = {entry.browser for entry in TABLE5_MATRIX}
        assert len(browsers) == 9  # nine browsers, as the paper states
        os_names = {entry.os_name for entry in TABLE5_MATRIX}
        assert len(os_names) == 7  # seven operating systems

    def test_profile_synthesis_for_unlisted_versions(self):
        profile = profile_for_entry(UAEntry("Mac OS X", "10.15.7",
                                            "Opera", "114.0.0"))
        assert profile.name == "Opera"
        assert profile.engine_family == "chromium"

    def test_mobile_safari_maps_to_webkit(self):
        profile = profile_for_entry(UAEntry("iOS", "18.1",
                                            "Mobile Safari", "18.1"))
        assert profile.engine_family == "webkit"
        assert profile.stack.racing.maximum_cad == pytest.approx(1.0)

    def test_small_campaign_aggregates(self):
        campaign = WebCampaign(seed=35, repetitions=3)
        entries = (UAEntry("Linux", "", "Chrome", "130.0.0"),
                   UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"))
        result = campaign.run(entries=entries)
        assert len(result) == 6
        by_browser = result.by_browser()
        assert set(by_browser) == {"Chrome", "Safari"}
        chrome = by_browser["Chrome"]
        safari = by_browser["Safari"]
        # Safari shows more inconsistent (non-monotonic) sessions.
        assert safari.inconsistent_sessions >= chrome.inconsistent_sessions

    def test_consistency_classification(self):
        campaign = WebCampaign(seed=36, repetitions=5)
        entries = (UAEntry("Linux", "", "Chrome", "130.0.0"),
                   UAEntry("Mac OS X", "10.15.7", "Safari", "17.6"))
        result = campaign.run(entries=entries)
        by_browser = result.by_browser()
        chrome_mark = classify_consistency(by_browser["Chrome"],
                                           local_cad_ms=300.0)
        safari_mark = classify_consistency(by_browser["Safari"],
                                           local_cad_ms=2000.0)
        assert chrome_mark in (ConsistencyMark.CONSISTENT,
                               ConsistencyMark.DEVIATION)
        assert safari_mark is ConsistencyMark.INCONSISTENT
