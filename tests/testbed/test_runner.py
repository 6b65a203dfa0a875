"""Integration tests for the testbed framework (config, modules, runner)."""

from statistics import median

import pytest

from repro.clients import get_profile
from repro.simnet import Family
from repro.testbed import (NonMonotonicSeriesError, RunRecord,
                           StreamingResultSet, SweepSpec, TestCaseConfig,
                           TestCaseKind, TestRunner,
                           address_selection_case, cad_case,
                           delayed_a_case, majority_family, rd_case,
                           series_flap_window)


class TestSweepSpec:
    def test_range_inclusive(self):
        sweep = SweepSpec.range(0, 20, 5)
        assert list(sweep) == [0, 5, 10, 15, 20]

    def test_fixed(self):
        assert list(SweepSpec.fixed(100, 200)) == [100, 200]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.fixed(-5)

    def test_coarse_fine_combines(self):
        sweep = SweepSpec.coarse_fine(coarse_step_ms=100, fine_step_ms=10,
                                      stop_ms=400, around_ms=250,
                                      fine_window_ms=50)
        values = list(sweep)
        assert 0 in values and 400 in values  # coarse endpoints
        assert 250 in values and 210 in values  # fine region
        assert values == sorted(values)

    def test_case_validation(self):
        with pytest.raises(ValueError):
            TestCaseConfig(name="x", kind=TestCaseKind.RESOLUTION_DELAY,
                           sweep=SweepSpec.fixed(1), repetitions=0)


class TestCadRuns:
    def test_chrome_flips_at_300ms(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(100, 250, 290, 310, 400))],
            seed=11)
        results = StreamingResultSet.consume(runner.run())
        series = results.family_by_delay("Chrome 130.0", "cad")
        assert series[100] is Family.V6
        assert series[250] is Family.V6
        assert series[290] is Family.V6
        assert series[310] is Family.V4
        assert series[400] is Family.V4

    def test_cad_estimate_matches_profile(self):
        runner = TestRunner(
            clients=[get_profile("Firefox", "132.0")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(350, 400))],
            seed=12)
        results = StreamingResultSet.consume(runner.run())
        cad = results.median_cad("Firefox 132.0")
        assert cad == pytest.approx(0.250, abs=0.090)  # outliers allowed

    def test_crossover_helper(self):
        runner = TestRunner(
            clients=[get_profile("curl", "7.88.1")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(150, 190, 210, 250))],
            seed=13)
        results = StreamingResultSet.consume(runner.run())
        crossover = results.observed_cad_crossover("curl 7.88.1", "cad")
        assert crossover == 190  # curl's CAD is 200 ms

    def test_aaaa_query_order_observed(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0"),
                     get_profile("Firefox", "132.0")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(0))],
            seed=14)
        chrome, firefox = runner.run()
        assert chrome.client == "Chrome 130.0"
        assert firefox.client == "Firefox 132.0"
        assert chrome.aaaa_first is True
        assert firefox.aaaa_first is False


class TestRdRuns:
    def test_safari_rd_50ms(self):
        runner = TestRunner(
            clients=[get_profile("Safari", "17.6")],
            cases=[TestCaseConfig(
                name="rd", kind=TestCaseKind.RESOLUTION_DELAY,
                sweep=SweepSpec.fixed(1000))],
            seed=15)
        record = runner.run()[0]
        assert record.rd_s == pytest.approx(0.050, abs=0.005)
        assert record.winning_family is Family.V4

    def test_chrome_inherits_resolver_timeout(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0")],
            cases=[TestCaseConfig(
                name="rd", kind=TestCaseKind.RESOLUTION_DELAY,
                sweep=SweepSpec.fixed(8000))],  # beyond resolver timeout
            seed=16, resolver_timeout=2.0)
        record = runner.run()[0]
        # IPv4 connection only starts after the 2 s resolver timeout.
        assert record.time_to_first_attempt_s == pytest.approx(2.0,
                                                               abs=0.050)

    def test_delayed_a_stalls_chrome_ipv6(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0")],
            cases=[delayed_a_case()],
            seed=17)
        results = runner.run()
        for record in results:
            assert record.winning_family is Family.V6
            expected_stall = record.value_ms / 1000.0
            assert record.time_to_first_attempt_s == pytest.approx(
                expected_stall, abs=0.050)

    def test_hev3_flag_removes_delayed_a_stall(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0")],
            cases=[TestCaseConfig(
                name="delayed-a", kind=TestCaseKind.DELAYED_A,
                sweep=SweepSpec.fixed(2000))],
            seed=18, hev3_flag=True)
        record = runner.run()[0]
        assert record.winning_family is Family.V6
        assert record.time_to_first_attempt_s < 0.100


class TestAddressSelectionRuns:
    def test_hev1_clients_try_one_address_per_family(self):
        runner = TestRunner(
            clients=[get_profile("Chrome", "130.0")],
            cases=[address_selection_case()],
            seed=19)
        record = runner.run()[0]
        assert record.attempts_v6 == 1
        assert record.attempts_v4 == 1

    def test_safari_tries_all_addresses(self):
        runner = TestRunner(
            clients=[get_profile("Safari", "17.6")],
            cases=[address_selection_case()],
            seed=20)
        record = runner.run()[0]
        assert record.attempts_v6 == 10
        assert record.attempts_v4 == 10
        # Safari's interleave pattern: v6 v6 v4 v6*8 v4*9 (App. D).
        families = [family for _, family in record.attempts]
        assert families[:3] == [Family.V6, Family.V6, Family.V4]
        assert families[3:11] == [Family.V6] * 8
        assert families[11:] == [Family.V4] * 9

    def test_wget_stays_on_first_ipv6(self):
        runner = TestRunner(
            clients=[get_profile("wget", "1.21.3")],
            cases=[address_selection_case()],
            seed=21)
        record = runner.run()[0]
        assert record.attempts_v6 == 1
        assert record.attempts_v4 == 0


def _cad_record(value_ms: int, repetition: int,
                family: Family, client: str = "c 1.0",
                cad_s=None) -> RunRecord:
    return RunRecord(case="cad",
                     kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                     client=client, value_ms=value_ms,
                     repetition=repetition, completed=True,
                     winning_family=family, cad_s=cad_s)


class TestFamilyByDelayAggregation:
    """Repetitions aggregate by majority vote, not last-write-wins."""

    def test_majority_wins(self):
        results = StreamingResultSet()
        for repetition, family in enumerate(
                [Family.V6, Family.V4, Family.V6]):
            results.add(_cad_record(100, repetition, family))
        assert results.family_by_delay("c 1.0", "cad") == {100: Family.V6}

    def test_independent_of_repetition_order(self):
        """The regression: the last repetition used to overwrite all
        earlier ones, so the series depended on record order."""
        records = [_cad_record(100, 0, Family.V6),
                   _cad_record(100, 1, Family.V6),
                   _cad_record(100, 2, Family.V4)]
        forward = StreamingResultSet.consume(records)
        backward = StreamingResultSet.consume(reversed(records))
        assert forward.family_by_delay("c 1.0", "cad") == {100: Family.V6}
        assert backward.family_by_delay("c 1.0", "cad") == \
            forward.family_by_delay("c 1.0", "cad")

    def test_tie_breaks_toward_ipv4(self):
        results = StreamingResultSet()
        results.add(_cad_record(100, 0, Family.V6))
        results.add(_cad_record(100, 1, Family.V4))
        assert results.family_by_delay("c 1.0", "cad") == {100: Family.V4}
        assert majority_family({Family.V6: 2, Family.V4: 2}) is Family.V4

    def test_none_winners_ignored(self):
        results = StreamingResultSet()
        results.add(_cad_record(100, 0, None))
        results.add(_cad_record(100, 1, Family.V6))
        assert results.family_by_delay("c 1.0", "cad") == {100: Family.V6}


class TestCrossoverMonotonicity:
    """Non-monotonic series raise instead of masking flapping."""

    def test_monotonic_series_unchanged(self):
        results = StreamingResultSet()
        results.add(_cad_record(100, 0, Family.V6))
        results.add(_cad_record(200, 0, Family.V4))
        assert results.is_monotonic("c 1.0", "cad")
        assert results.observed_cad_crossover("c 1.0", "cad") == 100

    def test_all_ipv4_has_no_crossover(self):
        results = StreamingResultSet()
        results.add(_cad_record(100, 0, Family.V4))
        assert results.observed_cad_crossover("c 1.0", "cad") is None

    def test_flapping_series_raises(self):
        """The regression: IPv4 at 100 ms but IPv6 again at 200 ms used
        to silently report a 200 ms crossover."""
        results = StreamingResultSet()
        results.add(_cad_record(100, 0, Family.V4))
        results.add(_cad_record(200, 0, Family.V6))
        results.add(_cad_record(300, 0, Family.V4))
        assert not results.is_monotonic("c 1.0", "cad")
        with pytest.raises(NonMonotonicSeriesError) as excinfo:
            results.observed_cad_crossover("c 1.0", "cad")
        assert excinfo.value.flap_window == (100, 200)
        assert "100 ms" in str(excinfo.value)
        assert excinfo.value.client == "c 1.0"

    def test_flap_window_helper(self):
        assert series_flap_window({100: Family.V6, 200: Family.V4}) is None
        assert series_flap_window({100: Family.V4,
                                   200: Family.V6}) == (100, 200)


def oracle_family_by_delay(records, client, case):
    """Independent reference for the Figure 2 series: per delay, count
    the established families by hand; the majority wins, a tie goes
    to IPv4, and runs that established nothing do not vote."""
    votes = {}
    for record in records:
        if (record.client, record.case) == (client, case) \
                and record.winning_family is not None:
            votes.setdefault(record.value_ms, []).append(
                record.winning_family)
    return {value_ms: Family.V6 if families.count(Family.V6)
            > families.count(Family.V4) else Family.V4
            for value_ms, families in votes.items()}


class TestStreamingResultSet:
    """Streaming aggregation matches a hand-written reference."""

    def runner(self) -> TestRunner:
        return TestRunner(
            clients=[get_profile("Chrome", "130.0"),
                     get_profile("curl", "7.88.1")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(150, 250, 350), repetitions=2)],
            seed=23)

    def test_matches_materialized_aggregations(self):
        runner = self.runner()
        records = runner.run()
        streamed = StreamingResultSet.consume(runner.stream())
        assert len(streamed) == len(records)
        for client in ("Chrome 130.0", "curl 7.88.1"):
            cads = [record.cad_s for record in records
                    if record.client == client and record.cad_s is not None]
            assert streamed.median_cad(client) == \
                (median(cads) if cads else None)
            series = oracle_family_by_delay(records, client, "cad")
            assert series
            assert streamed.family_by_delay(client, "cad") == series
            v6 = [delay for delay, family in series.items()
                  if family is Family.V6]
            v4 = [delay for delay, family in series.items()
                  if family is Family.V4]
            assert all(low > high for low in v4 for high in v6)
            assert streamed.observed_cad_crossover(client, "cad") == \
                (max(v6) if v6 else None)

    def test_stream_order_matches_run(self):
        runner = self.runner()
        streamed = list(runner.stream())
        assert streamed == runner.run()

    def test_outcomes_include_unestablished_values(self):
        aggregate = StreamingResultSet()
        aggregate.add(_cad_record(100, 0, Family.V6))
        aggregate.add(_cad_record(200, 0, None))
        assert aggregate.outcomes("c 1.0", "cad") == \
            [(100, Family.V6), (200, None)]

    def test_completion_and_error_counters(self):
        aggregate = StreamingResultSet()
        aggregate.add(_cad_record(100, 0, Family.V6))
        failed = _cad_record(200, 0, None)
        failed.completed = False
        failed.error = "boom"
        aggregate.add(failed)
        assert aggregate.total == 2
        assert aggregate.completed == 1
        assert aggregate.errors == 1


class TestRunRecordList:
    def test_filters(self):
        runner = TestRunner(
            clients=[get_profile("curl", "7.88.1")],
            cases=[TestCaseConfig(
                name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                sweep=SweepSpec.fixed(0, 300))],
            seed=22)
        results = runner.run()
        assert len(results) == 2
        assert [r.value_ms for r in results] == [0, 300]
        assert all(r.client == "curl 7.88.1" and r.case == "cad"
                   for r in results)
        aggregate = StreamingResultSet.consume(results)
        assert len(aggregate) == 2
        assert sorted(aggregate.family_by_delay("curl 7.88.1", "cad")) \
            == [0, 300]
        assert aggregate.family_by_delay("nobody", "cad") == {}
        assert aggregate.median_cad("nobody") is None
