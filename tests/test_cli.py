"""Smoke tests for the command-line interface."""

import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys

import pytest

from repro import fanout
from repro.cli import build_parser, main, usable_cpus

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestGoldenArtifacts:
    """The registry-dispatched CLI reproduces the pre-registry output
    byte for byte (goldens captured from the hand-wired commands)."""

    @pytest.mark.parametrize("argv, golden", [
        (["table1"], "table1.txt"),
        (["table4"], "table4.txt"),
        (["figure2", "--step", "400"], "figure2_step400.txt"),
        (["figure4"], "figure4.txt"),
        (["figure5"], "figure5.txt"),
        (["delayed-a"], "delayed_a.txt"),
        (["trace", "--delay-ms", "400"], "trace_400.txt"),
        (["conformance", "--list"], "conformance_list.txt"),
        (["fingerprint", "curl 7.88.1"], "fingerprint_curl.txt"),
    ])
    def test_byte_identical_to_golden(self, capsys, argv, golden):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")


class TestCliRegistry:
    def test_ls_enumerates_the_catalogue(self, capsys):
        assert main(["ls"]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out
        for name in ("table1", "table5", "figure2", "delayed-a",
                     "fingerprint", "conformance", "fingerprint-diff"):
            assert name in out
        count = int(out.strip().splitlines()[-1].split()[0])
        assert count >= 12

    def test_ls_registers_the_stage_batteries(self, capsys):
        assert main(["ls"]) == 0
        out = capsys.readouterr().out
        for name in ("conformance-hev3", "conformance-svcb",
                     "conformance-sortlist"):
            assert name in out

    def test_ls_clients_lists_policy_stacks(self, capsys):
        assert main(["ls", "--clients"]) == 0
        out = capsys.readouterr().out
        assert "Client registry: policy stacks per profile" in out
        # Per-stage summaries come straight from the declarations.
        assert "sortlist=linux" in out
        assert "sortlist=rfc3484" in out
        assert "sortlist=macos" in out
        assert "cad=dyn(10/100/2000ms)" in out
        assert "serial" in out
        assert "hev3-reference draft-07" in out
        assert "rd=50ms svcb" in out
        count = int(out.strip().splitlines()[-1].split()[0])
        from repro.clients import all_profiles
        assert count == len(all_profiles())

    def test_ls_plans_key_counts(self, capsys):
        assert main(["ls"]) == 0
        out = capsys.readouterr().out
        figure2_row = [line for line in out.splitlines()
                       if line.startswith("figure2 ")][0]
        assert "289" in figure2_row  # 17 clients x 17 sweep values

    @pytest.mark.parametrize("argv", [
        ["table1"],
        ["figure2", "--step", "400"],
        ["trace", "--delay-ms", "400"],
        ["conformance", "--list"],
    ])
    def test_run_verb_matches_legacy_alias(self, capsys, argv):
        assert main(argv) == 0
        legacy = capsys.readouterr().out
        assert main(["run", *argv]) == 0
        assert capsys.readouterr().out == legacy

    def test_run_verb_matches_alias_warm_cached(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "figure2", "--step", "400"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        legacy = capsys.readouterr().out
        assert main(["--cache-dir", str(tmp_path), "run", "figure2",
                     "--step", "400"]) == 0
        assert capsys.readouterr().out == legacy

    def test_run_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "figure9"])

    def test_run_json_falls_back_to_text_without_data(self, capsys):
        assert main(["run", "table4", "--json"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_cache_line_printed_exactly_once(self, capsys, tmp_path):
        assert main(["--cache-dir", str(tmp_path), "figure2",
                     "--step", "400"]) == 0
        out = capsys.readouterr().out
        cache_lines = [line for line in out.splitlines()
                       if line.startswith("[cache]")]
        assert len(cache_lines) == 1

    def test_pure_commands_print_no_cache_line(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        assert "[cache]" not in capsys.readouterr().out
        assert main(["conformance", "--list"]) == 0
        assert "[cache]" not in capsys.readouterr().out


#: One campaign per execution path: a plain sweep, a staged
#: conformance battery, and a synthesis search with its fingerprint
#: pass (small knobs).
CHAOS_CAMPAIGNS = {
    "figure2": ["figure2", "--step", "400"],
    "conformance-hev3": ["run", "conformance-hev3"],
    "synthesize-report": [
        "run", "synthesize-report", "--synthesis-seeds", "3",
        "--synthesis-rounds", "1", "--synthesis-top", "1",
        "--synthesis-neighbors", "1", "--promote", "2",
        "--clients", "curl,Chrome", "--ablate", "none"],
}


class TestCliResilience:
    def strip_runtime_lines(self, text: str) -> str:
        return "\n".join(line for line in text.splitlines()
                         if not line.startswith(("[cache]", "[faults]")))

    def test_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit, match="--resume needs"):
            main(["--resume", "figure2", "--step", "400"])

    def test_bad_fault_plan_errors(self):
        with pytest.raises(SystemExit, match="unknown fault kind"):
            main(["--fault-plan", "meteor:0.5", "figure2",
                  "--step", "400"])

    def test_negative_retries_errors(self):
        with pytest.raises(SystemExit, match="retries"):
            main(["--retries", "-1", "figure2", "--step", "400"])

    @pytest.mark.parametrize("argv", list(CHAOS_CAMPAIGNS.values()),
                             ids=list(CHAOS_CAMPAIGNS))
    def test_chaos_run_is_byte_identical(self, capsys, tmp_path, argv):
        """The headline invariant, end to end through the CLI: an
        artifact rendered under an injected crash+corruption plan with
        retries matches the fault-free serial rendering byte for byte,
        and every record the chaos run stored was journaled."""
        assert main(["--workers", "1", *argv]) == 0
        clean = capsys.readouterr().out
        assert main(["--cache-dir", str(tmp_path), "--workers", "2",
                     "--retries", "2", "--fault-plan",
                     "crash:0.3,corrupt:0.5", *argv]) == 0
        chaos = capsys.readouterr().out
        assert (self.strip_runtime_lines(chaos)
                == self.strip_runtime_lines(clean))
        stores = re.search(r"^\[cache\] .* stores=(\d+) ", chaos, re.M)
        faults = re.search(r"^\[faults\] failures=0 .* journaled=(\d+) ",
                           chaos, re.M)
        assert stores and faults
        assert faults.group(1) == stores.group(1)
        # Warm rerun quarantines the torn entries and still matches.
        assert main(["--cache-dir", str(tmp_path), "--retries", "2",
                     *argv]) == 0
        warm = capsys.readouterr().out
        assert (self.strip_runtime_lines(warm)
                == self.strip_runtime_lines(clean))
        assert "quarantined=" in warm

    def test_resumed_campaign_is_byte_identical(self, capsys, tmp_path):
        assert main(["figure2", "--step", "400"]) == 0
        clean = capsys.readouterr().out
        argv = ["--cache-dir", str(tmp_path), "--retries", "1",
                "figure2", "--step", "400"]
        assert main(argv) == 0
        capsys.readouterr()
        journal = tmp_path / ".journal" / "figure2.log"
        assert journal.is_file()
        assert main(["--resume", *argv]) == 0
        resumed = capsys.readouterr().out
        assert (self.strip_runtime_lines(resumed)
                == self.strip_runtime_lines(clean))
        assert "resumed=" in resumed
        assert "misses=0" in resumed

    @pytest.mark.parametrize("argv", [
        ["figure2", "--step", "200"],
        ["fingerprint", "curl 7.88.1", "--stop", "100"]],
        ids=["figure2", "fingerprint"])
    def test_exhausted_retries_degrade_and_store_nothing(self, capsys,
                                                         tmp_path, argv):
        """A fault plan that never heals fails every executed run as
        planned: the artifact still renders from the harness-failure
        records, the ``[faults]`` line counts one failure per executed
        run, and nothing is stored."""
        assert main(["--workers", "1", "--cache-dir", str(tmp_path),
                     "--retries", "1", "--fault-plan", "crash:1.0:9",
                     *argv]) == 0
        out = capsys.readouterr().out
        cache = re.search(r"^\[cache\] hits=0 misses=(\d+) stores=0 ",
                          out, re.M)
        assert cache
        assert re.search(rf"^\[faults\] failures={cache.group(1)} ", out,
                         re.M)

    @pytest.mark.parametrize("argv", [
        ["figure2", "--step", "400"],
        ["fingerprint", "curl 7.88.1", "--stop", "100"]],
        ids=["figure2", "fingerprint"])
    def test_plain_cached_run_prints_no_faults_line(self, capsys,
                                                    tmp_path, argv):
        """Resilience flags opt into the ``[faults]`` line; a plain
        cached invocation stays byte-identical to its pre-resilience
        output (the store-only journal is silent, but it journals)."""
        argv = ["--cache-dir", str(tmp_path), *argv]
        assert main(argv) == 0
        assert "[faults]" not in capsys.readouterr().out
        assert (tmp_path / ".journal" / f"{argv[2]}.log").is_file()
        assert main(argv) == 0
        assert "[faults]" not in capsys.readouterr().out


class TestCliFingerprintDiff:
    def test_diff_renders_drift_table(self, capsys, tmp_path):
        assert main(["--cache-dir", str(tmp_path), "fingerprint",
                     "--diff", "curl 7.88.1", "wget 1.21.3"]) == 0
        out = capsys.readouterr().out
        assert "Fingerprint drift: curl 7.88.1 -> wget 1.21.3" in out
        assert "CHANGED" in out

    def test_diff_json_and_run_verb_identity(self, capsys, tmp_path):
        import json

        argv = ["--cache-dir", str(tmp_path)]
        diff_args = ["--diff", "curl 7.88.1", "wget 1.21.3", "--json"]
        assert main([*argv, "fingerprint", *diff_args]) == 0
        capsys.readouterr()  # cold run warms the store
        assert main([*argv, "fingerprint", *diff_args]) == 0
        legacy = capsys.readouterr().out
        data = json.loads("\n".join(
            line for line in legacy.splitlines()
            if not line.startswith("[cache]")))
        assert data["client_a"] == "curl 7.88.1"
        assert data["has_drift"] is True
        # Warm on both paths, so even the cache counters agree.
        assert main([*argv, "run", "fingerprint-diff", "curl 7.88.1",
                     "wget 1.21.3", "--json"]) == 0
        assert capsys.readouterr().out == legacy

    def test_fingerprint_without_client_or_diff_errors(self):
        with pytest.raises(SystemExit, match="client selector"):
            main(["fingerprint"])

    def test_diff_rejects_ambiguous_selector(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["fingerprint", "--diff", "all", "curl 7.88.1"])


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "HEv1 (2012)" in out
        assert "250 ms" in out

    def test_trace(self, capsys):
        assert main(["trace", "--delay-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "connect-requested" in out
        assert "winner: IPv4" in out

    def test_trace_fast_ipv6(self, capsys):
        assert main(["trace", "--delay-ms", "0"]) == 0
        assert "winner: IPv6" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(["figure5"]) == 0
        out = capsys.readouterr().out
        assert "n-th connection attempt" in out
        assert "Safari" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Hurricane Electric" in out
        assert "no" in out

    def test_delayed_a(self, capsys):
        assert main(["delayed-a"]) == 0
        out = capsys.readouterr().out
        assert "+HEv3 flag" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_no_web(self, capsys):
        assert main(["table2", "--no-web"]) == 0
        out = capsys.readouterr().out
        assert "Safari 17.6" in out


class TestCliConformance:
    def test_fingerprint_single_client(self, capsys):
        assert main(["fingerprint", "curl 7.88.1"]) == 0
        out = capsys.readouterr().out
        assert "RFC 8305 fingerprint — curl 7.88.1" in out
        assert "v6-blackhole" in out
        assert "deviations:" in out

    def test_fingerprint_json_is_machine_readable(self, capsys):
        import json

        assert main(["fingerprint", "curl 7.88.1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["client"] == "curl 7.88.1"
        assert len(data[0]["scenarios_run"]) >= 8
        cad = next(v for v in data[0]["verdicts"]
                   if v["parameter"] == "connection-attempt-delay"
                   and v["scenario"] == "v6-delay-sweep")
        assert cad["measured_ms"] == pytest.approx(200.0, abs=10.0)

    def test_fingerprint_unknown_client_errors(self, capsys):
        with pytest.raises(SystemExit, match="no client matches"):
            main(["fingerprint", "NetscapeNavigator"])

    def test_conformance_list_prints_catalog(self, capsys):
        assert main(["conformance", "--list"]) == 0
        out = capsys.readouterr().out
        assert "Conformance scenario battery" in out
        assert "v6-delay-sweep" in out
        assert "rate-limited-v6" in out

    def test_fingerprint_warm_cache_identical_all_hits(self, capsys,
                                                       tmp_path):
        argv = ["--cache-dir", str(tmp_path), "fingerprint",
                "curl 7.88.1"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out

        def body(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[cache]")]

        assert body(warm) == body(cold)
        cache_line = [line for line in warm.splitlines()
                      if line.startswith("[cache]")][0]
        assert " misses=0 " in cache_line
        assert "hits=0" not in cache_line


class TestCliCacheGC:
    def test_gc_requires_a_cache_dir(self):
        with pytest.raises(SystemExit, match="cache gc needs"):
            main(["cache", "gc"])

    def test_gc_reports_reclaimed_bytes(self, capsys, tmp_path):
        from repro.testbed import CampaignStore

        # One live campaign (conformance, curl) plus a stale orphan.
        assert main(["--cache-dir", str(tmp_path), "fingerprint",
                     "curl 7.88.1"]) == 0
        capsys.readouterr()
        store = CampaignStore(tmp_path)
        store.put(CampaignStore.key("orphan"), {"stale": True})
        assert main(["--cache-dir", str(tmp_path), "cache", "gc"]) == 0
        out = capsys.readouterr().out
        assert "[cache gc]" in out
        assert "removed=1" in out
        # The curl battery survives: a re-run stays fully warm.
        assert main(["--cache-dir", str(tmp_path), "fingerprint",
                     "curl 7.88.1"]) == 0
        warm = capsys.readouterr().out
        assert " misses=0 " in [line for line in warm.splitlines()
                                if line.startswith("[cache]")][0]

    def test_gc_sweeps_temp_files_and_keeps_quarantine(self, capsys,
                                                      tmp_path):
        """gc removes crashed writers' ``.tmp-*`` files, in the root and
        in ``.index/``, and leaves quarantine and live packs alone."""
        argv = ["figure2", "--step", "400"]
        cache = tmp_path / "cache"
        assert main(["--cache-dir", str(cache), *argv]) == 0
        capsys.readouterr()
        (cache / ".tmp-crashed.pack").write_text("torn")
        (cache / ".index").mkdir()
        (cache / ".index" / ".tmp-crashed.gen").write_text("7")
        evidence = cache / ".quarantine" / "ab" / "evidence.json"
        evidence.parent.mkdir(parents=True)
        evidence.write_text("{ not json")

        def cache_gc(*flags):
            assert main(["--cache-dir", str(cache), "cache", "gc",
                         *flags]) == 0
            return capsys.readouterr().out

        before = sorted(cache.rglob("*"))
        dry = cache_gc("--dry-run")
        assert " removed=0 tmp=2 " in dry
        assert sorted(cache.rglob("*")) == before
        assert "kept=34 " in cache_gc()
        assert not list(cache.rglob(".tmp-*"))
        assert evidence.read_text() == "{ not json"
        assert main(["--cache-dir", str(cache), *argv]) == 0
        assert "[cache] hits=34 misses=0 " in capsys.readouterr().out


class TestCliCache:
    def figure2(self, capsys, *argv):
        assert main([*argv, "figure2", "--step", "400"]) == 0
        return capsys.readouterr().out

    def test_cache_dir_warm_rerun_identical(self, capsys, tmp_path):
        cold = self.figure2(capsys, "--cache-dir", str(tmp_path))
        assert "[cache] hits=0 misses=34 stores=34" in cold
        warm = self.figure2(capsys, "--cache-dir", str(tmp_path))
        assert "[cache] hits=34 misses=0 stores=0" in warm

        def figure_only(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[cache]")]

        assert figure_only(cold) == figure_only(warm)

    def test_no_cache_overrides_cache_dir(self, capsys, tmp_path):
        out = self.figure2(capsys, "--cache-dir", str(tmp_path),
                           "--no-cache")
        assert "[cache]" not in out
        assert not list(tmp_path.iterdir())

    def test_cache_dir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.cli import build_parser

        out = self.figure2(capsys)
        assert "[cache]" in out
        assert list(tmp_path.iterdir())
        args = build_parser().parse_args(["--no-cache", "table1"])
        assert args.cache_dir == str(tmp_path)
        assert args.no_cache


class TestCliProfile:
    def test_profile_prints_stats_to_stderr(self, capsys):
        assert main(["--profile", "run", "table1"]) == 0
        captured = capsys.readouterr()
        # The artifact itself stays clean on stdout...
        assert "Table 1" in captured.out
        assert "cumtime" not in captured.out
        # ...and the cProfile report (cumulative sort) goes to stderr.
        assert "Ordered by: cumulative time" in captured.err
        assert "ncalls" in captured.err

    def test_without_flag_no_profile_output(self, capsys):
        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""


class TestDefaultWorkers:
    """Without ``--workers`` a campaign fans out over every usable CPU;
    ``--workers 1`` stays in-process; the bytes never change."""

    def test_parser_default_is_the_usable_cpu_count(self):
        if hasattr(os, "sched_getaffinity"):
            expected = len(os.sched_getaffinity(0))
        else:
            expected = os.cpu_count() or 1
        assert build_parser().parse_args(["table1"]).workers == expected

    def test_one_worker_runs_in_process(self, capsys):
        fanout.shutdown_shared_pool()
        assert main(["--workers", "1", "figure2", "--step", "100"]) == 0
        assert fanout._shared_pool is None

    def test_warm_default_run_starts_no_pool(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "figure2", "--step", "100"]
        assert main(["--workers", "1", *argv]) == 0
        capsys.readouterr()
        fanout.shutdown_shared_pool()
        assert main(argv) == 0
        assert " misses=0 stores=0 " in capsys.readouterr().out
        assert fanout._shared_pool is None

    def test_cold_default_matches_one_worker(self, capsys, tmp_path):
        # Both runs start cold in the same directory, so even the
        # ``root=`` of the [cache] line matches.
        store = tmp_path / "store"
        argv = ["--cache-dir", str(store), "figure2", "--step", "100"]
        fanout.shutdown_shared_pool()
        assert main(["--workers", "1", *argv]) == 0
        serial = capsys.readouterr().out
        shutil.rmtree(store)
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        assert serial.splitlines()[-1].startswith("[cache] ")
        assert (fanout._shared_pool is not None) == (usable_cpus() > 1)


class TestSubmitSpecFile:
    def test_spec_file_is_read_where_the_client_runs(self, tmp_path,
                                                      monkeypatch, capsys):
        """``repro submit --spec @rel.json`` sends the file's content:
        a server in another directory (holding a different
        ``rel.json``) serves what ``repro run`` prints here."""
        import json

        from repro.population.distributions import PRESETS

        server_dir, client_dir = tmp_path / "server", tmp_path / "client"
        server_dir.mkdir()
        client_dir.mkdir()
        (server_dir / "rel.json").write_text(json.dumps(PRESETS["default"]))
        (client_dir / "rel.json").write_text(
            json.dumps(PRESETS["v6-challenged"]))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache"), "serve",
             "--port", "0"],
            cwd=server_dir, stderr=subprocess.PIPE, text=True, env=env)
        try:
            host, port = re.search(r"http://([^:]+):(\d+)",
                                   proc.stderr.readline()).groups()
            monkeypatch.chdir(client_dir)
            argv = ["population-latency", "--spec", "@rel.json",
                    "--samples", "3", "--degrade-step", "200"]
            where = ["--host", host, "--port", port]
            assert main(["--workers", "1", "run", *argv]) == 0
            direct = capsys.readouterr().out
            assert "spec custom" in direct
            assert main(["submit", *argv, *where]) == 0
            assert capsys.readouterr().out == direct
            missing = ["population-latency", "--spec", "@missing.json"]
            with pytest.raises(SystemExit) as submitted:
                main(["submit", *missing, *where])
            with pytest.raises(SystemExit) as ran:
                main(["run", *missing])
            assert str(submitted.value) == str(ran.value)
            assert "spec file not found: missing.json" in str(ran.value)
        finally:
            proc.terminate()
            proc.wait(timeout=60)
            proc.stderr.close()


class TestServeShutdown:
    @pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(),
                        reason="reads child pids from Linux /proc")
    def test_sigterm_drains_the_server_and_its_pool_workers(self, tmp_path):
        """SIGTERM stops ``repro serve`` the way Ctrl-C does: it exits 0
        and the campaign pool's workers exit with it."""
        from repro.service.http import submit_request

        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--workers", "2",
             "--cache-dir", str(tmp_path), "serve", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            host, port = re.search(r"http://([^:]+):(\d+)",
                                   proc.stderr.readline()).groups()
            payload = submit_request("figure2", {"step": 100}, host=host,
                                     port=int(port), timeout=120)
            assert payload["executed"] == 85
            workers = set()
            for task in pathlib.Path(f"/proc/{proc.pid}/task").iterdir():
                try:
                    workers.update((task / "children").read_text().split())
                except FileNotFoundError:  # a request thread ended
                    pass
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert not any(pathlib.Path(f"/proc/{pid}").exists()
                           for pid in workers)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
