"""Tests for declarative campaign specs and summary statistics."""

import pytest

from repro.analysis import (Summary, cad_summary, outlier_fraction,
                            stall_summary, summarize)
from repro.testbed import (CampaignSpec, SpecError, StreamingResultSet,
                           TestCaseKind, run_campaign_spec)
from repro.testbed.spec import parse_case, parse_client, parse_sweep


class TestSpecParsing:
    def test_minimal_spec(self):
        spec = CampaignSpec.from_dict({
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [100, 300]}}],
        })
        assert len(spec.clients) == 1
        assert spec.cases[0].kind is TestCaseKind.CONNECTION_ATTEMPT_DELAY
        assert spec.total_runs() == 2

    def test_range_sweep(self):
        case = parse_case({"kind": "cad",
                           "sweep": {"start": 0, "stop": 100, "step": 50}})
        assert list(case.sweep) == [0, 50, 100]

    def test_default_sweep_per_kind(self):
        case = parse_case({"kind": "rd"})
        assert len(case.sweep) > 0

    def test_sweep_cannot_mix_forms(self):
        with pytest.raises(SpecError):
            parse_sweep({"values": [1], "stop": 5},
                        TestCaseKind.RESOLUTION_DELAY)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="valid:"):
            parse_case({"kind": "warp-speed"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SpecError):
            parse_case({"sweep": {"values": [1]}})

    def test_unknown_client_rejected(self):
        with pytest.raises(SpecError):
            parse_client({"name": "NetPositive"})

    def test_hev3_flag_applied(self):
        profile = parse_client({"name": "Chrome", "version": "130.0",
                                "hev3_flag": True})
        assert profile.implements_resolution_delay

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"clients": [], "cases": []})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({
                "clients": [{"name": "curl"}], "cases": []})

    def test_resilience_stanzas(self):
        spec = CampaignSpec.from_dict({
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad", "sweep": {"values": [100]}}],
            "seed": 7, "retries": 2, "entry_timeout": 30.0,
            "faults": "crash:0.3,corrupt:0.5",
        })
        res = spec.build_resilience()
        assert res.policy.retries == 2
        assert res.policy.entry_timeout == 30.0
        assert res.policy.backoff_seed == 7
        assert res.fault_plan.seed == 7  # chaos replays with the seed
        assert len(res.fault_plan.specs) == 2
        # The fault-plan stanza form can pin its own seed.
        spec = CampaignSpec.from_dict({
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad", "sweep": {"values": [100]}}],
            "faults": {"plan": "hang:0.2:1:0.4", "seed": 11},
        })
        assert spec.faults.seed == 11
        assert spec.faults.specs[0].hang_s == 0.4

    def test_default_spec_builds_no_resilience(self):
        spec = CampaignSpec.from_dict({
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad", "sweep": {"values": [100]}}],
        })
        assert spec.build_resilience() is None

    def test_bad_resilience_stanzas_rejected(self):
        base = {"clients": [{"name": "curl", "version": "7.88.1"}],
                "cases": [{"kind": "cad", "sweep": {"values": [100]}}]}
        with pytest.raises(SpecError, match="retries"):
            CampaignSpec.from_dict({**base, "retries": -1})
        with pytest.raises(SpecError, match="bad fault plan"):
            CampaignSpec.from_dict({**base, "faults": "meteor:0.5"})
        with pytest.raises(SpecError, match="'plan' string"):
            CampaignSpec.from_dict({**base, "faults": {"seed": 3}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_resolver_timeout_rejected(self, bad):
        """A resolver timeout the simulator cannot schedule is a spec
        error naming the field, not a run that silently never
        completes."""
        base = {"clients": [{"name": "curl", "version": "7.88.1"}],
                "cases": [{"kind": "cad", "sweep": {"values": [100]}}]}
        with pytest.raises(SpecError, match="resolver_timeout"):
            CampaignSpec.from_dict({**base, "resolver_timeout": bad})

    @pytest.mark.parametrize("patch", [
        {"clients": "Chrome"},
        {"clients": ["Chrome"]},
        {"repetitons": 3},
        {"cases": [{"kind": "cad", "repetition": 3}]},
        {"clients": [{"name": "Chrome", "hev3flag": True}]},
        {"seed": "seven"},
        {"seed": 7.9},
        {"workers": "two"},
        {"workers": True},
        {"workers": 0},
        {"cases": [{"kind": "address-selection",
                    "addresses_per_family": "ten"}]},
        {"cases": [{"kind": "cad", "sweep": "x"}]},
        {"cases": [{"kind": "address-selection",
                    "addresses_per_family": 0}]},
        {"cases": [{"kind": "address-selection",
                    "addresses_per_family": -2}]},
    ], ids=["clients-string", "clients-names", "campaign-typo", "case-typo",
            "client-typo", "seed-text", "seed-fraction", "workers-text",
            "workers-bool", "workers-zero",
            "addresses-text", "sweep-text", "addresses-zero",
            "addresses-negative"])
    def test_malformed_spec_is_a_spec_error(self, patch):
        """A malformed stanza, including a misspelt key that would
        otherwise be ignored, raises ``SpecError`` at parse time."""
        base = {"clients": [{"name": "curl", "version": "7.88.1"}],
                "cases": [{"kind": "cad", "sweep": {"values": [100]}}]}
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({**base, **patch})

    def test_chaos_spec_matches_fault_free_execution(self):
        base = {
            "seed": 13,
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad", "sweep": {"values": [150, 250]}}],
        }
        clean = run_campaign_spec(base)
        chaos = run_campaign_spec({**base, "retries": 2,
                                   "faults": "crash:1.0"})
        assert chaos == clean

    def test_end_to_end_execution(self):
        results = run_campaign_spec({
            "seed": 13,
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [150, 250]}}],
        })
        assert len(results) == 2
        series = StreamingResultSet.consume(results).family_by_delay(
            "curl 7.88.1", "cad")
        assert series[150].label == "IPv6"
        assert series[250].label == "IPv4"


class TestSummaries:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.median == pytest.approx(2.5)
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0

    def test_summarize_odd_count_median(self):
        assert summarize([3.0, 1.0, 2.0]).median == 2.0

    def test_summarize_empty_is_none(self):
        assert summarize([]) is None

    def test_within(self):
        summary = summarize([0.249, 0.250, 0.251])
        assert summary.within(0.250, 0.002)
        assert not summary.within(0.300, 0.002)

    def test_describe_scales(self):
        text = summarize([0.25]).describe(unit="ms", scale=1000.0)
        assert "250.0ms" in text

    def test_cad_summary_from_campaign(self):
        results = run_campaign_spec({
            "seed": 14,
            "clients": [{"name": "Chrome", "version": "130.0"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [350, 380, 400]}}],
        })
        summary = cad_summary(results, "Chrome 130.0")
        assert summary.count == 3
        assert summary.within(0.300, 0.005)
        assert summary.stddev < 0.001  # "within a ms", like the paper

    def test_firefox_outlier_fraction(self):
        results = run_campaign_spec({
            "seed": 15,
            "clients": [{"name": "Firefox", "version": "132.0"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [400]}, "repetitions": 30}],
        })
        fraction = outlier_fraction(results, "Firefox 132.0",
                                    nominal_cad_s=0.250)
        assert fraction is not None
        assert 0.0 < fraction < 0.5  # a few outliers, not the norm

    def test_stall_summary(self):
        results = run_campaign_spec({
            "seed": 16,
            "clients": [{"name": "Chrome", "version": "130.0"}],
            "cases": [{"kind": "delayed-a",
                       "sweep": {"values": [500]}}],
        })
        summary = stall_summary(results, "Chrome 130.0")
        assert summary.median == pytest.approx(0.500, abs=0.010)
