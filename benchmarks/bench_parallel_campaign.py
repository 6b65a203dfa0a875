"""The parallel campaign engine: speedup and byte-identical results.

Times a Figure 2-style CAD sweep serially and with a process-pool fan
out.  Two properties are checked:

* the parallel path returns *identical* records (same order, same
  values) as the serial path — run seeds are stable digests of the run
  coordinates, so scheduling cannot perturb anything;
* with enough cores, the parallel sweep beats serial by >= 2x (the
  speedup assertion is skipped on boxes with < 4 cores, where a
  process pool cannot physically deliver it).
"""

import os
import time

import pytest

from repro.clients import figure2_clients
from repro.experiments import Session
from repro.testbed import (SweepSpec, TestCaseConfig, TestCaseKind,
                           TestRunner)

from _util import record_timing

WORKERS = min(8, os.cpu_count() or 1)


def _runner() -> TestRunner:
    case = TestCaseConfig(name="figure2",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.range(0, 400, 10))
    return TestRunner(figure2_clients(), [case], seed=2)


def test_parallel_records_identical():
    case = TestCaseConfig(name="cad",
                          kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                          sweep=SweepSpec.range(0, 400, 50), repetitions=2)
    runner = TestRunner(figure2_clients()[:4], [case], seed=9)
    serial = runner.run()
    parallel = runner.run(Session(workers=2))
    assert serial == parallel


def test_parallel_figure2_speedup(benchmark):
    def run_both():
        runner = _runner()
        t0 = time.perf_counter()
        serial = runner.run()
        serial_s = time.perf_counter() - t0
        # Best of two parallel runs: damps pool start-up and transient
        # load noise on shared CI runners.
        parallel_s = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            parallel = runner.run(Session(workers=WORKERS))
            parallel_s = min(parallel_s, time.perf_counter() - t0)
        return serial, serial_s, parallel, parallel_s

    serial, serial_s, parallel, parallel_s = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    record_timing("figure2_sweep_serial", serial_s,
                  {"runs": len(serial), "workers": None})
    record_timing("figure2_sweep_parallel", parallel_s,
                  {"runs": len(parallel), "workers": WORKERS})
    assert serial == parallel
    if (os.cpu_count() or 1) < 4:
        pytest.skip(f"only {os.cpu_count()} cores: a process pool "
                    "cannot demonstrate the speedup here")
    assert serial_s / parallel_s >= 2.0, (
        f"expected >=2x speedup with {WORKERS} workers: "
        f"serial {serial_s:.2f}s vs parallel {parallel_s:.2f}s")
