"""The parallel campaign engine and stable run seeding."""

import os
import subprocess
import sys

import pytest

from repro.clients import get_profile
from repro.seeding import stable_run_seed
from repro.testbed import (SweepSpec, TestCaseConfig, TestCaseKind,
                           TestRunner, address_selection_case,
                           run_campaign_spec)


def small_runner(seed: int = 5) -> TestRunner:
    return TestRunner(
        clients=[get_profile("Chrome", "130.0"),
                 get_profile("curl", "7.88.1")],
        cases=[TestCaseConfig(
                   name="cad", kind=TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                   sweep=SweepSpec.fixed(0, 150, 310), repetitions=2),
               TestCaseConfig(
                   name="rd", kind=TestCaseKind.RESOLUTION_DELAY,
                   sweep=SweepSpec.fixed(1000)),
               address_selection_case(3)],
        seed=seed)


class TestStableRunSeed:
    def test_deterministic_within_process(self):
        assert stable_run_seed(0, "cad", "Chrome 130.0", 150, 0) == \
            stable_run_seed(0, "cad", "Chrome 130.0", 150, 0)

    def test_distinguishes_coordinates(self):
        seeds = {stable_run_seed(0, "cad", client, value, repetition)
                 for client in ("Chrome 130.0", "curl 7.88.1")
                 for value in (0, 150) for repetition in (0, 1)}
        assert len(seeds) == 8

    def test_31_bit_range(self):
        seed = stable_run_seed(12345, "x" * 100, 2.5, None)
        assert 0 <= seed <= 0x7FFFFFFF

    def test_type_sensitive(self):
        # "1" and 1 must not collide: canonical form includes the type.
        assert stable_run_seed(1) != stable_run_seed("1")

    def test_stable_across_interpreter_hash_seeds(self):
        """``hash()`` is PYTHONHASHSEED-salted; the digest must not be."""
        expected = stable_run_seed(7, "cad", "Chrome 130.0", 150, 1)
        script = ("from repro.seeding import stable_run_seed; "
                  "print(stable_run_seed(7, 'cad', 'Chrome 130.0', 150, 1))")
        for hash_seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH="src")
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__)))))
            assert int(out.stdout.strip()) == expected, hash_seed


class TestSpecEnumeration:
    def test_matches_serial_loop_order(self):
        runner = small_runner()
        specs = runner.enumerate_specs()
        expected = [(ci, pi, v, r)
                    for ci, case in enumerate(runner.cases)
                    for pi in range(len(runner.clients))
                    for v in case.sweep
                    for r in range(case.repetitions)]
        assert [(s.case_index, s.client_index, s.value_ms, s.repetition)
                for s in specs] == expected

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            small_runner().run(workers=0)
        with pytest.raises(ValueError):
            small_runner().run(workers=-3)


class TestParallelCampaign:
    def test_serial_and_parallel_records_identical(self):
        """The acceptance property: same records, same order, same values."""
        runner = small_runner()
        serial = runner.run()
        parallel = runner.run(workers=2)
        assert len(serial) == len(parallel)
        assert serial.records == parallel.records

    def test_workers_one_is_serial(self):
        runner = small_runner(seed=6)
        assert runner.run().records == runner.run(workers=1).records

    def test_aggregations_agree(self):
        runner = small_runner(seed=7)
        serial = runner.run()
        parallel = runner.run(workers=2)
        assert serial.median_cad("Chrome 130.0") == \
            parallel.median_cad("Chrome 130.0")
        assert serial.family_by_delay("curl 7.88.1", "cad") == \
            parallel.family_by_delay("curl 7.88.1", "cad")

    def test_spec_workers_knob(self):
        spec = {
            "seed": 3,
            "workers": 2,
            "clients": [{"name": "curl", "version": "7.88.1"}],
            "cases": [{"kind": "cad",
                       "sweep": {"values": [0, 150, 310]}}],
        }
        parallel = run_campaign_spec(spec)
        serial = run_campaign_spec({**spec, "workers": None})
        assert serial.records == parallel.records
