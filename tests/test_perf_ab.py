"""The decision of ``tools/perf_ab.py``, on synthetic result lines:
no perfbench runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)


def result_line(p50, correct=True, failed=0):
    """perfbench's stdout: a report line, then the JSON result."""
    return "perfbench workload=w\n" + json.dumps({
        "correct": correct, "attempted": 3, "failed": failed,
        "metrics": {"op_p50_s": {"value": p50, "unit": "s"}}})


def readings(head_over_base):
    """Per workload, pairs whose head/base ratios are the given ones."""
    return {name: [(perf_ab.perfbench_reading(result_line(1.0)),
                    perf_ab.perfbench_reading(result_line(ratio)))
                   for ratio in ratios]
            for name, ratios in head_over_base.items()}


AA = {name: [1.0, 0.9, 1.1, 1.05, 0.95, 1.0]
      for name in perf_ab.WORKLOADS + (perf_ab.POPULATION,)}


def test_a_a_passes():
    code, lines = perf_ab.decide(readings(AA), "base")
    assert code == 0
    assert lines[-1].startswith("OK")
    assert len(lines) == len(AA) + 1
    assert "head wins 2/6" in lines[0]


def test_slower_median_fails_and_names_the_workload():
    code, lines = perf_ab.decide(
        readings({**AA, "figure2-warm": [1.31] * 6}), "base")
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL: figure2-warm: median head/base 1.310 > 1.30"]


@pytest.mark.parametrize("stdout, reason", [
    (result_line(1.0, correct=False), "correct=False failed=0"),
    (result_line(1.0, failed=2), "correct=True failed=2"),
    ("perfbench: reference run failed (1)\n", "no result line"),
    ("", "no result line"),
])
def test_failed_head_run_fails(stdout, reason):
    got = readings(AA)
    base, _ = got["synthesis-cold"][3]
    got["synthesis-cold"][3] = (base, perf_ab.perfbench_reading(stdout))
    code, lines = perf_ab.decide(got, "base")
    assert code == 1
    assert f"FAIL: synthesis-cold: head run failed: {reason}" in lines


def test_failed_base_run_exits_2_and_names_the_base():
    got = readings({**AA, "service-warm": [2.0] * 6})
    _, head = got["figure2-cold"][0]
    got["figure2-cold"][0] = ("no result line", head)
    code, lines = perf_ab.decide(got, "abc123")
    assert code == 2
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL (base abc123): figure2-cold: base run failed: "
        "no result line"]


@pytest.mark.parametrize("ratios, code, median", [
    ([1.0, 1.2, 1.5, 2.0], 1, "1.350"),  # the lower middle alone passes
    ([1.0, 1.1, 1.4, 2.0], 0, "1.250"),  # the upper middle alone fails
])
def test_median_of_an_even_number_of_pairs(ratios, code, median):
    got, lines = perf_ab.decide(readings({"figure2-cold": ratios}), "base")
    assert got == code
    assert f"head/base {median}" in lines[0]
