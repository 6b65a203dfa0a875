"""Turn recorded spans into per-op layer accounting (load-generator
side; imports nothing from repro).

Within an op's wall-clock window, every instant is charged to the
innermost open span: the one that started last, on any thread.  For
nested spans on one thread that is exactly "span minus child spans";
across threads it charges a service request's handler thread, blocked
on the execution pool, to the execution spans that run meanwhile.  The
instants no span covers (interpreter start-up and teardown, the HTTP
client, the socket) are the op's ``unaccounted`` remainder, so the
self times plus the remainder add up to the op wall by construction.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, Any]


def load_spans(path) -> "List[Span]":
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [(names[index], start, end, extra)
            for index, start, end, extra in data["spans"]]


@dataclass
class Breakdown:
    """One op's accounting."""

    wall: float
    self_s: Dict[str, float] = field(default_factory=dict)
    inclusive_s: Dict[str, float] = field(default_factory=dict)
    count: Dict[str, int] = field(default_factory=dict)
    #: Per span name, the sum of each numeric annotation.
    extra: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per span name, the annotation of the last span in the window.
    last: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Workload-specific counts measured outside the spans.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def unaccounted(self) -> float:
        return self.wall - sum(self.self_s.values())


def account(spans: "Sequence[Span]", window: "Tuple[float, float]"
            ) -> Breakdown:
    """The breakdown of ``spans`` clipped to ``window``."""
    w0, w1 = window
    result = Breakdown(wall=w1 - w0)
    clipped = []
    for name, start, end, extra in spans:
        if end <= w0 or start >= w1:
            continue
        start, end = max(start, w0), min(end, w1)
        clipped.append((name, start, end))
        result.inclusive_s[name] = (result.inclusive_s.get(name, 0.0)
                                    + end - start)
        result.count[name] = result.count.get(name, 0) + 1
        if isinstance(extra, dict):
            sums = result.extra.setdefault(name, {})
            for key, value in extra.items():
                sums[key] = sums.get(key, 0) + value
            result.last[name] = extra
    events = []
    for index, (_name, start, end) in enumerate(clipped):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    active: "List[Tuple[float, float, int]]" = []
    ended = set()
    previous = w0
    for moment, kind, index in events:
        while active and active[0][2] in ended:
            heapq.heappop(active)
        if active and moment > previous:
            name = clipped[active[0][2]][0]
            result.self_s[name] = (result.self_s.get(name, 0.0)
                                   + moment - previous)
        previous = moment
        if kind:
            _name, start, end = clipped[index]
            heapq.heappush(active, (-start, end, index))
        else:
            ended.add(index)
    return result


# -- per-layer metrics -----------------------------------------------------------

#: Every span the tracer records, in call-stack order.
SPANS = (
    "cli.import_in_op", "trace.install", "cli.main",
    "experiments.plan", "experiments.execute", "experiments.render",
    "keys.derive", "store.get_many", "store.put", "journal.record",
    "topology.build", "runner.run_single", "simnet.run",
    "inference.observe", "analysis.aggregate", "dispatch.wait",
    "synthesis.score", "service.admit", "service.execute",
    "http.handle", "tier.get_many", "tier.put",
)

#: Self-time metric names that differ from ``<span>_s``.
_SELF_NAMES = {
    "runner.run_single": "runner.run_single_self_s",
    "synthesis.score": "synthesis.score_self_s",
    "service.execute": "service.execute_self_s",
}

#: Spans that run inside pool workers on a parallel op; the traced
#: synthesis run takes them from the same op run serially.
WORKER_SIDE = ("topology.build", "runner.run_single", "simnet.run",
               "inference.observe")

#: (metric, unit) of everything the traced run reports besides the
#: per-span self times and counts.
DERIVED = (
    ("cli.import_s", "s"), ("interp.start_s", "s"),
    ("keys.count", "count"), ("store.lookup_keys", "count"),
    ("store.hit_ratio", "ratio"), ("store.files_written", "count"),
    ("dispatch.tasks", "count"), ("synthesis.candidates", "count"),
    ("service.execute_s", "s"), ("http.overhead_s", "s"),
    ("tier.lru_hit_ratio", "ratio"), ("tier.evictions", "count"),
    ("service.coalesced", "count"),
    ("unaccounted_s", "s"), ("trace.op_wall_s", "s"),
    ("trace.untraced_op_p50_s", "s"), ("trace.overhead_s", "s"),
    ("trace.ops", "count"),
)


def self_metric(span: str) -> str:
    return _SELF_NAMES.get(span, f"{span}_s")


def count_metric(span: str) -> str:
    return f"{span}_count"


def per_layer_units() -> "List[Tuple[str, str]]":
    """Every per-layer metric with its unit, in report order."""
    names = [(self_metric(span), "s") for span in SPANS]
    names += [(count_metric(span), "count") for span in SPANS]
    return names + list(DERIVED)


def _mean(values: "Sequence[float]") -> float:
    return sum(values) / len(values) if values else 0.0


def _extra(ops: "Sequence[Breakdown]", span: str, key: str) -> float:
    return sum(op.extra.get(span, {}).get(key, 0) for op in ops)


def layer_metrics(ops: "Sequence[Breakdown]",
                  worker_ops: "Optional[Sequence[Breakdown]]" = None
                  ) -> "Dict[str, float]":
    """Per-op means over the traced ops.  With ``worker_ops`` (the
    serial op of a parallel workload), the worker-side spans come from
    those instead."""
    n = len(ops)
    metrics: "Dict[str, float]" = {}
    for span in SPANS:
        source = ops
        if worker_ops and span in WORKER_SIDE:
            source = worker_ops
        metrics[self_metric(span)] = _mean(
            [op.self_s.get(span, 0.0) for op in source])
        metrics[count_metric(span)] = _mean(
            [op.count.get(span, 0) for op in source])
    lookups = _extra(ops, "store.get_many", "keys")
    metrics["keys.count"] = _extra(ops, "keys.derive", "keys") / n
    metrics["store.lookup_keys"] = lookups / n
    metrics["store.hit_ratio"] = (
        _extra(ops, "store.get_many", "found") / lookups if lookups else 0.0)
    metrics["dispatch.tasks"] = _extra(ops, "dispatch.wait", "tasks") / n
    metrics["synthesis.candidates"] = _extra(
        ops, "synthesis.score", "candidates") / n
    execute = [op.inclusive_s.get("service.execute", 0.0) for op in ops]
    metrics["service.execute_s"] = _mean(execute)
    served = [op for op in ops if "service.execute" in op.inclusive_s]
    metrics["http.overhead_s"] = _mean(
        [op.wall - op.inclusive_s["service.execute"]
         - op.inclusive_s.get("service.admit", 0.0) for op in served])
    for key in ("store.files_written", "tier.evictions",
                "service.coalesced"):
        metrics[key] = _mean([op.counters.get(key, 0) for op in ops])
    lru_hits = sum(op.counters.get("tier.lru_hits", 0) for op in ops)
    lru_lookups = lru_hits + sum(op.counters.get("tier.lru_misses", 0)
                                 for op in ops)
    metrics["tier.lru_hit_ratio"] = (lru_hits / lru_lookups
                                     if lru_lookups else 0.0)
    metrics["unaccounted_s"] = _mean([op.unaccounted for op in ops])
    metrics["trace.op_wall_s"] = _mean([op.wall for op in ops])
    metrics["trace.ops"] = n
    return metrics


def render(title: str, ops: "Sequence[Breakdown]") -> "List[str]":
    """A human-readable accounting table: mean self time and count per
    span, the remainder, and the check that they sum to the wall."""
    n = len(ops)
    lines = [f"  {title}: {n} traced op(s), mean per op"]
    total = 0.0
    for span in SPANS:
        self_s = sum(op.self_s.get(span, 0.0) for op in ops) / n
        count = sum(op.count.get(span, 0) for op in ops) / n
        if count:
            total += self_s
            lines.append(f"    {span:<22} self {self_s:10.4f} s  "
                         f"count {count:10.1f}")
    unaccounted = _mean([op.unaccounted for op in ops])
    wall = _mean([op.wall for op in ops])
    lines.append(f"    {'unaccounted':<22}      {unaccounted:10.4f} s")
    lines.append(f"    {'sum':<22}      {total + unaccounted:10.4f} s"
                 f"  (op wall {wall:.4f} s)")
    return lines
