"""The full text of every summary line the CLI and the service print.

``[cache]``, ``[faults]``, ``[cache gc]`` and ``[service]`` lines and
the ``GET /stats`` sections are what CI greps and what users read, so
each is pinned whole here: a renamed, reordered or dropped field fails
tier-1, not only a changed prefix.
"""

import json
import re
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.testbed.store import CampaignStore

FIGURE2 = ["figure2", "--step", "400"]  # 34 runs


def summary_lines(text):
    return [line for line in text.splitlines() if line.startswith("[")]


def pack_bytes(root):
    return sum(path.stat().st_size for path in root.glob("*.pack"))


class TestCacheLine:
    def test_cold_then_warm(self, capsys, tmp_path):
        argv = ["--workers", "1", "--cache-dir", str(tmp_path), *FIGURE2]
        assert main(argv) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache] hits=0 misses=34 stores=34 entries_invalid=0 "
            f"quarantined=0 root={tmp_path}"]
        assert main(argv) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache] hits=34 misses=0 stores=0 entries_invalid=0 "
            f"quarantined=0 root={tmp_path}"]


class TestFaultLines:
    def test_failure_detail_then_nine_field_summary(self, capsys, tmp_path):
        """Seed 2 crashes exactly one run twice: with one retry it runs
        out of budget, degrades, and is neither stored nor journaled."""
        assert main(["--seed", "2", "--workers", "1",
                     "--cache-dir", str(tmp_path), "--retries", "1",
                     "--fault-plan", "crash:0.03:2", *FIGURE2]) == 0
        lines = summary_lines(capsys.readouterr().out)
        assert len(lines) == 3
        assert lines[0] == (f"[cache] hits=0 misses=34 stores=33 "
                            f"entries_invalid=0 quarantined=0 "
                            f"root={tmp_path}")
        detail = re.sub(r"elapsed=\d+\.\d{3}s", "elapsed=<t>s", lines[1])
        assert detail == ("[faults] failed figure2/Chrome 96.0/v0/r0 "
                          "attempts=2 elapsed=<t>s error=injected worker "
                          "crash (serial simulation)")
        assert lines[2] == ("[faults] failures=1 retries=1 pool-breaks=0 "
                            "respawns=0 hangs=0 store-write-errors=0 "
                            "journaled=33 resumed=0 stale=0")

    def test_resume_counts(self, capsys, tmp_path):
        argv = ["--workers", "1", "--cache-dir", str(tmp_path), *FIGURE2]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["--workers", "1", "--cache-dir", str(tmp_path),
                     "--resume", *FIGURE2]) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache] hits=34 misses=0 stores=0 entries_invalid=0 "
            f"quarantined=0 root={tmp_path}",
            "[faults] failures=0 retries=0 pool-breaks=0 respawns=0 "
            "hangs=0 store-write-errors=0 journaled=0 resumed=34 stale=0"]


class TestCacheGcLine:
    def test_dry_run_then_sweep(self, capsys, tmp_path):
        assert main(["--workers", "1", "--cache-dir", str(tmp_path),
                     *FIGURE2]) == 0
        capsys.readouterr()
        live_bytes = pack_bytes(tmp_path)
        CampaignStore(tmp_path).put(CampaignStore.key("stale"), {"x": 1})
        stale_bytes = pack_bytes(tmp_path) - live_bytes
        (tmp_path / ".tmp-crashed.pack").write_text("torn")
        gc = ["--cache-dir", str(tmp_path), "cache", "gc", "--step", "400"]

        assert main([*gc, "--dry-run"]) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache gc] (dry run) kept=34 ({live_bytes} B) removed=1 "
            f"tmp=1 reclaimed={stale_bytes + 4} B root={tmp_path}"]
        assert main(gc) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache gc] kept=34 ({live_bytes} B) removed=1 tmp=1 "
            f"reclaimed={stale_bytes + 4} B root={tmp_path}"]
        assert main(gc) == 0
        assert summary_lines(capsys.readouterr().out) == [
            f"[cache gc] kept=34 ({live_bytes} B) removed=0 tmp=0 "
            f"reclaimed=0 B root={tmp_path}"]


@pytest.fixture
def served(tmp_path):
    from repro.service import CampaignService
    from repro.service.http import CampaignServiceServer

    service = CampaignService(tmp_path / "cache")
    server = CampaignServiceServer(service, port=0)
    server.serve_background()
    try:
        yield server.address
    finally:
        server.shutdown()
        service.close()


class TestServiceLines:
    def test_submit_lines_and_stats_sections(self, capsys, served):
        host, port = served
        submit = ["submit", *FIGURE2, "--host", host, "--port", str(port)]
        assert main(submit) == 0
        assert capsys.readouterr().err.splitlines() == [
            "[service] planned=34 hits=0 executed=34 waited=0 "
            "coalesced=false"]
        assert main(submit) == 0
        assert capsys.readouterr().err.splitlines() == [
            "[service] planned=34 hits=34 executed=0 waited=0 "
            "coalesced=false"]
        with urlopen(f"http://{host}:{port}/stats", timeout=30) as reply:
            stats = json.loads(reply.read().decode("utf-8"))
        assert stats == {
            "ok": True,
            "service": {"submissions": 2, "completed": 2, "failed": 0,
                        "rejected": 0, "coalesced": 0,
                        "keys_planned": 68, "keys_executed": 34,
                        "keys_waited": 0},
            "tier": {"hits": 34, "misses": 34, "stores": 34,
                     "lru_entries": 34, "lru_evictions": 0},
            "flight": {"claims": 34, "waits": 0, "in_flight": 0},
        }
