"""The benchmark's workloads: set-up, one op, its output check, and
the traced variant of the op (load-generator side; imports nothing
from repro — every repro call happens in a child process).

Each op's artifact text must equal what a direct, serial, in-process
``Experiment.run`` printed for the same seed and knobs during set-up,
so cold == warm == parallel == service == direct on every op.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import breakdown

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable
clock = time.perf_counter

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: An op (or a server start) that takes longer than this is killed.
OP_TIMEOUT_S = 150.0
#: ...except a server start-up, which is short and noisy.
SERVER_STARTS = 5
#: Fresh-interpreter samples behind ``cli.import_s``.
IMPORT_SAMPLES = 5
#: Ops in flight, on every workload.  One: an op is a user waiting on
#: one invocation or one submission, and the second CPU absorbs the
#: load generator and the rest of the machine instead of an op
#: competing with its twin.
INFLIGHT = 1

_CACHE_LINE = re.compile(r"\[cache\] hits=(\d+) misses=(\d+) stores=(\d+) ")
_SERVE_LINE = re.compile(r"\[serve\] campaign service on "
                         r"http://([0-9.]+):(\d+) ")


class BenchError(Exception):
    """Set-up could not establish the state or reference an op needs."""


@dataclass
class Exit:
    """A finished child process."""

    code: int
    start: float
    end: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class OpResult:
    start: float
    end: float
    ok: bool
    #: Runs the op resolved: executed on a cold op, served on a warm one.
    runs: int = 0
    rss_mb: float = 0.0
    error: str = ""

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Measurement:
    #: The timed ops.
    ops: List[OpResult]
    #: First op start to last op end.
    elapsed: float
    #: Peak RSS of the process under test, MB.
    rss_mb: float
    #: Untimed ops that were still checked (service warm-up).
    untimed: List[OpResult] = field(default_factory=list)


@dataclass
class Traced:
    """What a traced run hands back besides its op results."""

    baseline: List[OpResult]
    ops: List[OpResult]
    breakdowns: List[breakdown.Breakdown]
    #: The serial traced op of a parallel workload (worker-side spans).
    worker_breakdowns: Optional[List[breakdown.Breakdown]] = None


def count_files(root: Path) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


def closed_loop(op: Callable[[], OpResult], seconds: float
                ) -> "Tuple[List[OpResult], float]":
    """One client: each op starts when the last one finished, until
    ``seconds`` have passed; the op running then completes."""
    start = clock()
    deadline = start + seconds
    results: List[OpResult] = []
    while not results or clock() < deadline:
        results.append(op())
    return results, results[-1].end - start


class Context:
    """Seed, scratch directory and child-process plumbing of one run."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        env["TMPDIR"] = str(tmp)
        self.env = env
        self._names = itertools.count()

    def path(self, stem: str) -> Path:
        return self.work / f"{stem}-{next(self._names)}"

    def run(self, argv: "List[str]") -> Exit:
        """Run a child to completion; its RSS peak comes from wait4."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = clock()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Exit(proc.returncode, start, end, usage.ru_maxrss / 1024.0,
                    stdout, stderr)

    def reference(self, entries: "List[Tuple[str, Dict[str, Any]]]",
                  store: Optional[Path], layout: str
                  ) -> "Tuple[List[str], float]":
        """Artifact texts of a direct serial in-process run of each
        entry (filling ``store`` when given), and the run's wall."""
        out = self.path("reference")
        done = self.run([PYTHON, str(BENCH / "child.py"), "reference",
                         str(out), str(self.seed),
                         str(store) if store is not None else "-", layout,
                         json.dumps(entries)])
        if done.code != 0:
            raise BenchError(f"reference run failed ({done.code}): "
                             f"{done.stderr[-2000:]}")
        texts = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return texts, done.end - done.start

    def import_times(self) -> "Tuple[float, float]":
        """Median walls of fresh interpreters that import ``repro.cli``
        and that import nothing, sampled alternately."""
        imports, bare = [], []
        for _ in range(IMPORT_SAMPLES):
            for code, sink in (("import repro.cli", imports),
                               ("pass", bare)):
                done = self.run([PYTHON, "-c", code])
                if done.code != 0:
                    raise BenchError(f"python -c {code!r} failed: "
                                     f"{done.stderr[-2000:]}")
                sink.append(done.end - done.start)
        return percentile(imports, 0.5), percentile(bare, 0.5)


def percentile(values: "List[float]", q: float) -> float:
    """Linear-interpolation quantile ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(n: int) -> float:
    """The highest whole percentile with at least ten ops beyond it;
    the median when there are fewer than twenty ops."""
    if n < 20:
        return 0.5
    return int(100 * (1 - 10 / n)) / 100


# -- CLI workloads ---------------------------------------------------------------


class CliWorkload:
    """Each op is one ``python -m repro`` process."""

    def __init__(self, ctx: Context, *, experiment: str,
                 knobs: "Dict[str, Any]", command: "List[str]",
                 workers: Optional[int], warm: bool) -> None:
        self.ctx = ctx
        self.entry = (experiment, knobs)
        self.command = command
        self.workers = workers
        self.warm = warm
        self.reference = ""
        self.store: Optional[Path] = None
        self._planned: Optional[int] = None

    def setup(self) -> "List[float]":
        """The direct serial reference run, repeated; a warm workload's
        repetitions each fill a fresh store and the last is kept."""
        texts, walls = [], []
        for repeat in range(SETUP_REPEATS):
            store = (self.ctx.work / f"fill-{repeat}" if self.warm
                     else None)
            [text], wall = self.ctx.reference([self.entry], store, "auto")
            texts.append(text)
            walls.append(wall)
            self.store = store
        if len(set(texts)) != 1:
            raise BenchError("repeated reference runs disagree")
        self.reference = texts[0]
        return walls

    def argv(self, store: Path, workers: Optional[int]) -> "List[str]":
        argv = ["--seed", str(self.ctx.seed)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv + ["--cache-dir", str(store)] + self.command

    def _op_store(self) -> Path:
        return self.store if self.warm else self.ctx.path("store")

    def check(self, done: Exit) -> OpResult:
        result = OpResult(done.start, done.end, ok=False,
                          rss_mb=done.rss_mb)
        if done.code != 0:
            result.error = f"exit {done.code}: {done.stderr[-500:]}"
            return result
        body = done.stdout[:-1] if done.stdout.endswith("\n") else done.stdout
        text, _, last = body.rpartition("\n")
        match = _CACHE_LINE.match(last)
        if match is None:
            result.error = f"no [cache] line: {last[:200]!r}"
            return result
        hits, misses, stores = (int(value) for value in match.groups())
        if text != self.reference:
            result.error = "artifact differs from the direct serial run"
            return result
        if self.warm and (misses != 0 or stores != 0):
            result.error = f"warm op missed: {last}"
            return result
        if not self.warm and (hits != 0 or stores != misses):
            result.error = f"cold op hit the store: {last}"
            return result
        planned = hits + misses
        if self._planned is None:
            self._planned = planned
        if planned != self._planned:
            result.error = f"op resolved {planned} runs, not {self._planned}"
            return result
        result.ok = True
        result.runs = planned
        return result

    def op(self) -> OpResult:
        return self.check(self.ctx.run(
            [PYTHON, "-m", "repro"]
            + self.argv(self._op_store(), self.workers)))

    def measure(self, seconds: float) -> Measurement:
        ops, elapsed = closed_loop(self.op, seconds)
        rss = percentile([op.rss_mb for op in ops], 0.5)
        return Measurement(ops, elapsed, rss)

    def traced_op(self, workers: Optional[int]
                  ) -> "Tuple[OpResult, breakdown.Breakdown]":
        store = self._op_store()
        before = count_files(store) if store.exists() else 0
        spans = self.ctx.path("spans")
        done = self.ctx.run([PYTHON, str(BENCH / "child.py"), "trace",
                             str(spans), "--"] + self.argv(store, workers))
        result = self.check(done)
        if not result.ok:
            raise BenchError(f"traced op failed: {result.error}")
        account = breakdown.account(breakdown.load_spans(spans),
                                    (done.start, done.end))
        spans.unlink()
        account.counters["store.files_written"] = count_files(store) - before
        return result, account

    def trace(self, seconds: float) -> Traced:
        """Untraced ops, then traced ones, half the run each; a
        parallel workload adds one traced serial op."""
        baseline, _ = closed_loop(self.op, seconds / 2)
        ops, accounts = [], []
        deadline = clock() + seconds / 2
        while not ops or clock() < deadline:
            result, account = self.traced_op(self.workers)
            ops.append(result)
            accounts.append(account)
        serial = None
        if self.workers is not None:
            result, account = self.traced_op(None)
            ops.append(result)
            serial = [account]
        return Traced(baseline, ops, accounts, serial)

    def close(self) -> None:
        pass


# -- the campaign service ---------------------------------------------------------

#: The submission mix.  figure2 at step 1 and population-latency at
#: 500 samples together plan 8317 distinct keys, over the service's
#: default 8192-entry LRU, so every cycle evicts.
SERVICE_MIX: "List[Tuple[str, Dict[str, Any]]]" = [
    ("figure2", {"step": 25}),
    ("figure2", {"step": 5}),
    ("figure2", {"step": 1}),
    ("population-latency", {}),
    ("population-latency", {"samples": 500}),
]


class _Server:
    def __init__(self, proc: subprocess.Popen, host: str, port: int
                 ) -> None:
        self.proc = proc
        self.connection = http.client.HTTPConnection(
            host, port, timeout=OP_TIMEOUT_S)


class ServiceWorkload:
    """Each op is one ``POST /submit`` to a warm ``repro serve``."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.root = ctx.work / "service-store"
        self.references: "List[str]" = []
        self.fill_s = 0.0
        self.server: Optional[_Server] = None
        self._order = random.Random(ctx.seed)

    def setup(self) -> "List[float]":
        """Fill a packed store with the direct serial reference runs
        of the mix, then time server start-ups (start to a healthy
        ``/health``); the last server keeps running."""
        self.references, self.fill_s = self.ctx.reference(
            SERVICE_MIX, self.root, "packed")
        walls = []
        for repeat in range(SERVER_STARTS):
            if self.server is not None:
                self.stop()
            start = clock()
            self.server = self.start(spans=None)
            walls.append(clock() - start)
        return walls

    def start(self, spans: Optional[Path]) -> _Server:
        args = ["--seed", str(self.ctx.seed), "--cache-dir", str(self.root),
                "serve", "--port", "0"]
        if spans is None:
            argv = [PYTHON, "-m", "repro"] + args
        else:
            argv = [PYTHON, str(BENCH / "child.py"), "trace", str(spans),
                    "--"] + args
        err_path = self.ctx.path("serve-stderr")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.ctx.env, cwd=ROOT)
        deadline = clock() + OP_TIMEOUT_S
        match = None
        while match is None:
            if proc.poll() is not None or clock() > deadline:
                self._reap(proc)
                raise BenchError("repro serve did not start: "
                                 + err_path.read_text(errors="replace"))
            time.sleep(0.005)
            match = _SERVE_LINE.search(err_path.read_text(errors="replace"))
        server = _Server(proc, match.group(1), int(match.group(2)))
        while True:
            try:
                server.connection.request("GET", "/health")
                response = server.connection.getresponse()
                response.read()
                if response.status == 200:
                    return server
            except (OSError, http.client.HTTPException):
                server.connection.close()
            if proc.poll() is not None or clock() > deadline:
                self._reap(proc)
                raise BenchError("repro serve never became healthy")
            time.sleep(0.005)

    @staticmethod
    def _reap(proc: subprocess.Popen) -> float:
        """SIGTERM, wait, kill if stuck; returns the process's peak RSS
        in MB.  (SIGINT may be ignored when the benchmark itself runs
        in the background; a traced server turns SIGTERM into the
        interrupt that shuts it down cleanly.)"""
        if proc.returncode is not None:
            return 0.0
        proc.terminate()
        timer = threading.Timer(30.0, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def stop(self) -> float:
        server, self.server = self.server, None
        if server is None:
            return 0.0
        server.connection.close()
        return self._reap(server.proc)

    def submit(self, index: int) -> OpResult:
        name, knobs = SERVICE_MIX[index]
        body = json.dumps({"experiment": name, "knobs": knobs})
        connection = self.server.connection
        start = clock()
        try:
            connection.request("POST", "/submit", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            return OpResult(start, clock(), ok=False, error=str(exc))
        result = OpResult(start, clock(), ok=False)
        try:
            payload = json.loads(data)
        except ValueError:
            result.error = f"HTTP {response.status}: unparseable body"
            return result
        if response.status != 200 or not payload.get("ok"):
            result.error = f"HTTP {response.status}: {payload.get('error')}"
        elif payload["text"] != self.references[index]:
            result.error = f"{name} {knobs}: artifact differs from direct run"
        elif payload["executed"] != 0 or payload["coalesced"]:
            result.error = (f"{name} {knobs}: executed="
                            f"{payload['executed']} coalesced="
                            f"{payload['coalesced']}")
        else:
            result.ok = True
            result.runs = payload["planned"]
        return result

    def cycle(self) -> "List[OpResult]":
        """Every mix entry once, in a seed-driven order."""
        order = list(range(len(SERVICE_MIX)))
        self._order.shuffle(order)
        return [self.submit(index) for index in order]

    def _cycles(self, seconds: float) -> "Tuple[List[OpResult], List[OpResult]]":
        """One untimed warm-up cycle, then whole cycles until
        ``seconds`` have passed."""
        warmup = self.cycle()
        ops: List[OpResult] = []
        deadline = clock() + seconds
        while not ops or clock() < deadline:
            ops.extend(self.cycle())
        return warmup, ops

    def measure(self, seconds: float) -> Measurement:
        warmup, ops = self._cycles(seconds)
        rss = self.stop()
        elapsed = ops[-1].end - ops[0].start
        return Measurement(ops, elapsed, rss, untimed=warmup)

    def trace(self, seconds: float) -> Traced:
        _, baseline = self._cycles(seconds / 2)
        self.stop()
        spans = self.ctx.path("spans")
        self.server = self.start(spans=spans)
        before = count_files(self.root)
        warmup, ops = self._cycles(seconds / 2)
        written = count_files(self.root) - before
        self.stop()
        if not all(op.ok for op in warmup + ops):
            failed = next(op for op in warmup + ops if not op.ok)
            raise BenchError(f"traced submission failed: {failed.error}")
        recorded = breakdown.load_spans(spans)
        spans.unlink()
        accounts = [breakdown.account(recorded, (op.start, op.end))
                    for op in warmup + ops]
        previous = accounts[len(warmup) - 1].last.get("http.handle", {})
        for account in accounts[len(warmup):]:
            snapshot = account.last.get("http.handle", {})
            for key, name in (("lru_hits", "tier.lru_hits"),
                              ("lru_misses", "tier.lru_misses"),
                              ("evictions", "tier.evictions"),
                              ("coalesced", "service.coalesced")):
                account.counters[name] = (snapshot.get(key, 0)
                                          - previous.get(key, 0))
            account.counters["store.files_written"] = written / len(ops)
            previous = snapshot
        return Traced(baseline, warmup + ops, accounts[len(warmup):])

    def close(self) -> None:
        self.stop()


def make(name: str, ctx: Context):
    if name == "figure2-cold":
        return CliWorkload(ctx, experiment="figure2", knobs={"step": 5},
                           command=["figure2", "--step", "5"],
                           workers=None, warm=False)
    if name == "figure2-warm":
        return CliWorkload(ctx, experiment="figure2", knobs={"step": 5},
                           command=["figure2", "--step", "5"],
                           workers=None, warm=True)
    if name == "synthesis-cold":
        return CliWorkload(ctx, experiment="synthesize-scenarios", knobs={},
                           command=["run", "synthesize-scenarios"],
                           workers=2, warm=False)
    if name == "service-warm":
        return ServiceWorkload(ctx)
    raise KeyError(name)


WORKLOADS = ("figure2-cold", "figure2-warm", "synthesis-cold",
             "service-warm")
