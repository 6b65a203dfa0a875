#!/usr/bin/env python3
"""Interleaved performance A/B of this checkout against a base commit.

    python3 tools/perf_ab.py <base-ref>

The base is extracted with ``git archive <base-ref> | tar -x`` into a
temporary directory (no worktree, no network).  perfbench reads the
``src/`` next to itself, so ``<dir>/perfbench/run.py`` measures the
base and ``perfbench/run.py`` of this checkout measures the head.

Each of ``PAIRS`` pairs runs every workload of ``BENCHMARK.json`` once
on each side, then times one cold ``repro run population-latency``
process per side.  The side that goes first alternates from pair to
pair, so a host that speeds up or slows down during the run charges
both sides alike.  For each workload the report gives the base and
head medians of ``op_p50_s`` (seconds) with their interquartile
ranges, the median of the per-pair head/base ratios, and how many
pairs the head won.

Exit status: 0 when every median ratio is at most ``THRESHOLD``; 1
when one is above it, or when a head run prints no result line or
reports an incorrect or failed op; 2 when a base run fails or the base
cannot be extracted, since no regression can then be blamed on the
head.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

HEAD = Path(__file__).resolve().parents[1]

#: Pairs of runs.  Even, so each side goes first equally often.
PAIRS = 6
#: perfbench's ``--seconds`` per run.
SECONDS = 2
SEED = 1
#: A median head/base ratio above this fails the gate.
THRESHOLD = 1.30
WORKLOADS = ("figure2-cold", "figure2-warm", "synthesis-cold",
             "service-warm")
POPULATION = "population-cold"

#: One side's reading of one run: seconds, or why the run failed.
Reading = Union[float, str]
#: Per workload, one ``(base, head)`` reading per pair.
Readings = Dict[str, List[Tuple[Reading, Reading]]]


def perfbench_reading(stdout: str) -> Reading:
    """``op_p50_s`` from perfbench's last stdout line, or the reason
    the run does not count."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct, failed = result["correct"], result["failed"]
        p50 = float(result["metrics"]["op_p50_s"]["value"])
    except (IndexError, ValueError, TypeError, KeyError):
        return "no result line"
    if correct is not True or failed != 0:
        return f"correct={correct} failed={failed}"
    return p50


def show(reading: Reading) -> str:
    return reading if isinstance(reading, str) else f"{reading:.4f} s"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def decide(readings: Readings, base: str) -> Tuple[int, List[str]]:
    """The gate's exit status and report lines for ``readings``."""
    lines: List[str] = []
    base_failures: List[str] = []
    failures: List[str] = []
    for name, pairs in readings.items():
        errors = [(side, error) for pair in pairs
                  for side, error in zip(("base", "head"), pair)
                  if isinstance(error, str)]
        for side, error in errors:
            (base_failures if side == "base" else failures).append(
                f"{name}: {side} run failed: {error}")
        if errors:
            continue
        olds = [old for old, _ in pairs]
        news = [new for _, new in pairs]
        ratio = statistics.median(new / old for old, new in pairs)
        wins = sum(new < old for old, new in pairs)
        (b1, b2, b3), (h1, h2, h3) = quartiles(olds), quartiles(news)
        lines.append(f"  {name:<16} base {b2:8.4f} s [IQR {b3 - b1:.4f}]"
                     f"  head {h2:8.4f} s [IQR {h3 - h1:.4f}]"
                     f"  head/base {ratio:.3f}  head wins "
                     f"{wins}/{len(pairs)}")
        if ratio > THRESHOLD:
            failures.append(f"{name}: median head/base {ratio:.3f} > "
                            f"{THRESHOLD:.2f}")
    if base_failures:
        return 2, lines + [f"FAIL (base {base}): {failure}"
                           for failure in base_failures]
    if failures:
        return 1, lines + [f"FAIL: {failure}" for failure in failures]
    return 0, lines + [f"OK: every median head/base <= {THRESHOLD:.2f}"]


def run_perfbench(side: Path, workload: str) -> Reading:
    done = subprocess.run(
        [sys.executable, str(side / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    reading = perfbench_reading(done.stdout)
    if isinstance(reading, str) and done.stderr.strip():
        reading += f" ({done.stderr.strip().splitlines()[-1]})"
    return reading


def run_population(side: Path, scratch: Path) -> Reading:
    """Wall of one cold ``repro run population-latency`` process."""
    store = Path(tempfile.mkdtemp(dir=scratch))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--seed", "0",
         "--cache-dir", str(store), "run", "population-latency"],
        cwd=scratch, env={**os.environ, "PYTHONPATH": str(side / "src")},
        capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        return f"exit {done.returncode}"
    return wall


def extract(ref: str, into: Path) -> Optional[str]:
    """``git archive ref | tar -x`` into ``into``; the error, if any."""
    archive = subprocess.run(["git", "archive", ref], cwd=HEAD,
                             capture_output=True)
    if archive.returncode != 0:
        return (archive.stderr.decode(errors="replace").strip()
                or f"git archive {ref} failed")
    untar = subprocess.run(["tar", "-x", "-C", str(into)],
                           input=archive.stdout, capture_output=True)
    if untar.returncode != 0:
        return untar.stderr.decode(errors="replace").strip()
    return None


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    base_ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        scratch = Path(tmp)
        base = scratch / "base"
        base.mkdir()
        error = extract(base_ref, base)
        if error:
            print(f"FAIL (base {base_ref}): {error}")
            return 2
        readings: Readings = {name: [] for name in
                              WORKLOADS + (POPULATION,)}
        for pair in range(PAIRS):
            sides = (base, HEAD) if pair % 2 == 0 else (HEAD, base)
            for name in readings:
                got = {side: (run_population(side, scratch)
                              if name == POPULATION
                              else run_perfbench(side, name))
                       for side in sides}
                readings[name].append((got[base], got[HEAD]))
                print(f"[perf-ab] pair {pair + 1}/{PAIRS} {name}: "
                      f"base {show(got[base])}  head {show(got[HEAD])}",
                      flush=True)
    code, lines = decide(readings, base_ref)
    print(f"perf A/B: head {HEAD} vs base {base_ref}, {PAIRS} pairs, "
          f"perfbench --seed {SEED} --seconds {SECONDS} --trace 0 "
          f"(op_p50_s; {POPULATION} is the process wall)")
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
