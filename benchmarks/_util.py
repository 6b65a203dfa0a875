"""The perf benches' timing log: :func:`record_timing` appends
machine-readable samples to ``results/bench_timings.json``, the perf
trajectory that ``check_perf_regression.py`` gates on.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import Any, Dict, Optional

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
TIMINGS_PATH = RESULTS_DIR / "bench_timings.json"


def record_timing(name: str, seconds: float,
                  meta: Optional[Dict[str, Any]] = None) -> None:
    """Append one timing sample to ``results/bench_timings.json``.

    The file maps bench name to a list of samples (newest last), each
    ``{"seconds": float, "recorded_at": epoch, "python": ..., **meta}``
    — enough to plot a perf trajectory across machines and PRs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        timings = json.loads(TIMINGS_PATH.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        timings = {}
    sample: Dict[str, Any] = {
        "seconds": round(seconds, 6),
        "recorded_at": int(time.time()),
        "python": platform.python_version(),
    }
    if meta:
        sample.update(meta)
    timings.setdefault(name, []).append(sample)
    TIMINGS_PATH.write_text(json.dumps(timings, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    print(f"[timing: {name} = {seconds:.3f}s -> {TIMINGS_PATH}]")
