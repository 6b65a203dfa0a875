"""Tests for the analysis layer: rendering and table/figure builders."""

import pytest

from repro.analysis import (evaluate_client_features, figure2_sweep,
                            figure5_attempts, format_ms, format_percent,
                            render_family_strip, render_figure2,
                            render_figure5, render_mark, render_table,
                            table1_parameters, table4_inventory)
from repro.clients import get_profile
from repro.experiments import Session
from repro.simnet import Family


class TestRenderHelpers:
    def test_render_table_aligns_columns(self):
        text = render_table(["name", "value"],
                            [["a", 1], ["longer-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        # All rows padded to the same width.
        assert len(lines[2]) >= len("longer-name") + 2

    def test_render_table_none_becomes_dash(self):
        text = render_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_render_table_with_title(self):
        text = render_table(["x"], [["1"]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_family_strip(self):
        assert render_family_strip([True, False, None]) == "#. "

    def test_marks(self):
        assert render_mark(True) == "●"
        assert render_mark(False) == "○"
        assert render_mark(None) == "-"
        assert render_mark(True, deviation=True) == "◐"

    def test_format_helpers(self):
        assert format_ms(0.25) == "250 ms"
        assert format_ms(None) is None
        assert format_percent(43.75) == "43.8 %"
        assert format_percent(None) is None


class TestTable1:
    def test_shape(self):
        headers, rows = table1_parameters()
        assert len(headers) == 4
        assert len(rows) == 6
        labels = [row[0] for row in rows]
        assert "Resolution Delay" in labels
        assert "Fixed Conn. Attempt Delay" in labels


class TestClientEvaluation:
    def test_chrome_feature_row(self):
        row = evaluate_client_features(get_profile("Chrome", "130.0"),
                                       Session(seed=61))
        assert row.prefers_ipv6
        assert row.cad_implemented
        assert row.cad_value_ms == pytest.approx(300.0, abs=5.0)
        assert not row.rd_implemented

    def test_safari_feature_row(self):
        row = evaluate_client_features(get_profile("Safari", "17.6"),
                                       Session(seed=62))
        assert row.rd_implemented
        assert row.rd_value_ms == pytest.approx(50.0, abs=5.0)
        assert row.address_selection

    def test_mobile_profile_gets_empty_local_row(self):
        row = evaluate_client_features(
            get_profile("Mobile Safari", "17.6"), Session(seed=63))
        assert row.prefers_ipv6 is None
        assert row.ipv6_addresses_used is None

    def test_table2_store_warm_rerun(self, tmp_path):
        from repro.analysis import table2_features
        from repro.testbed import CampaignStore

        clients = [get_profile("curl", "7.88.1")]
        cold_store = CampaignStore(tmp_path)
        cold = table2_features(clients=clients,
                               session=Session(seed=66, store=cold_store))
        assert cold_store.metrics.stores > 0

        warm_store = CampaignStore(tmp_path)
        warm = table2_features(clients=clients,
                               session=Session(seed=66, store=warm_store))
        assert warm == cold
        assert warm_store.metrics.hits == cold_store.metrics.stores
        assert warm_store.metrics.misses == 0

        # Parallel path merges worker-side counters into the campaign
        # total, so warm parallel re-runs report truthfully too.
        parallel_store = CampaignStore(tmp_path)
        parallel = table2_features(
            clients=clients,
            session=Session(seed=66, workers=2, store=parallel_store))
        assert parallel == cold
        assert parallel_store.metrics.hits == cold_store.metrics.stores


class TestFigureBuilders:
    def test_figure2_series_crossovers(self):
        series = figure2_sweep(
            clients=[get_profile("curl", "7.88.1"),
                     get_profile("Chrome", "130.0")],
            step_ms=50, stop_ms=400, session=Session(seed=64))
        by_client = {s.client: s for s in series}
        assert by_client["curl 7.88.1"].crossover_ms == 200
        assert by_client["Chrome 130.0"].crossover_ms == 300
        text = render_figure2(series)
        assert "#" in text and "." in text

    def test_figure5_patterns(self):
        series = figure5_attempts(
            [get_profile("Chrome", "130.0"),
             get_profile("Safari", "17.6")], session=Session(seed=65))
        by_client = {s.client: s for s in series}
        assert by_client["Chrome 130.0"].pattern == "64"
        assert by_client["Safari 17.6"].pattern.startswith("664")
        text = render_figure5(series)
        assert "v6" in text and "v4" in text

    def test_table4_without_probe_uses_static_flags(self):
        rows = table4_inventory(probe=False)
        by_service = {r.service: r for r in rows}
        assert not by_service["DYN"].ipv6_only_capable
        assert by_service["OpenDNS"].ipv6_only_capable
