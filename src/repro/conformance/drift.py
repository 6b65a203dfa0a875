"""Fingerprint drift: what changed between two measured clients.

The ROADMAP scenario the paper's longitudinal framing implies: probe
two clients (typically two versions of one engine family) with the
same battery and diff their :class:`ClientFingerprint`s into a
per-parameter "what changed" table — implementation status flips,
measured-value drift, and RFC 8305 deviations appearing or
disappearing between releases.  Pure data-to-data: any two
fingerprints diff, whether they came from live probes, the campaign
store, or a results file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.render import render_mark, render_table
from .fingerprint import ClientFingerprint, Deviation, ParameterVerdict
from .report import _ms

#: Measured values within this much of each other count as unchanged —
#: the same capture-granularity tolerance the verdict judges use.
DRIFT_TOLERANCE_MS = 1.0


@dataclass
class DriftRow:
    """One (parameter, scenario) pair compared across two clients."""

    parameter: str
    scenario: str
    verdict_a: Optional[ParameterVerdict] = None
    verdict_b: Optional[ParameterVerdict] = None

    @property
    def measured_delta_ms(self) -> Optional[float]:
        if (self.verdict_a is None or self.verdict_b is None
                or self.verdict_a.measured_ms is None
                or self.verdict_b.measured_ms is None):
            return None
        return self.verdict_b.measured_ms - self.verdict_a.measured_ms

    @property
    def changed(self) -> bool:
        a, b = self.verdict_a, self.verdict_b
        if (a is None) != (b is None):
            return True
        if a is None or b is None:
            return False
        if a.implemented != b.implemented:
            return True
        if (a.measured_ms is None) != (b.measured_ms is None):
            return True
        delta = self.measured_delta_ms
        return delta is not None and abs(delta) > DRIFT_TOLERANCE_MS


@dataclass
class FingerprintDiff:
    """The assembled drift report between two fingerprints."""

    client_a: str
    client_b: str
    rows: List[DriftRow] = field(default_factory=list)
    deviations_added: List[Deviation] = field(default_factory=list)
    deviations_removed: List[Deviation] = field(default_factory=list)

    @property
    def changed_rows(self) -> List[DriftRow]:
        return [row for row in self.rows if row.changed]

    @property
    def has_drift(self) -> bool:
        return bool(self.changed_rows or self.deviations_added
                    or self.deviations_removed)


def diff_fingerprints(a: ClientFingerprint,
                      b: ClientFingerprint) -> FingerprintDiff:
    """Pair up verdicts by (parameter, scenario) and diff them.

    Row order follows ``a``'s verdict order (the battery order), with
    any verdict only ``b`` produced appended — so two fingerprints of
    the same battery diff in a stable, diffable order.
    """
    diff = FingerprintDiff(client_a=a.client, client_b=b.client)
    by_key_b = {(v.parameter, v.scenario): v for v in b.verdicts}
    seen = set()
    for verdict in a.verdicts:
        key = (verdict.parameter, verdict.scenario)
        seen.add(key)
        diff.rows.append(DriftRow(
            parameter=verdict.parameter.short, scenario=verdict.scenario,
            verdict_a=verdict, verdict_b=by_key_b.get(key)))
    for verdict in b.verdicts:
        key = (verdict.parameter, verdict.scenario)
        if key not in seen:
            diff.rows.append(DriftRow(
                parameter=verdict.parameter.short,
                scenario=verdict.scenario, verdict_b=verdict))
    flags_a = {(d.requirement, d.clause, d.description)
               for d in a.deviations}
    flags_b = {(d.requirement, d.clause, d.description)
               for d in b.deviations}
    diff.deviations_added = [d for d in b.deviations
                             if (d.requirement, d.clause, d.description)
                             not in flags_a]
    diff.deviations_removed = [d for d in a.deviations
                               if (d.requirement, d.clause, d.description)
                               not in flags_b]
    return diff


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


def _impl_cell(row: DriftRow) -> str:
    def mark(verdict: "Optional[ParameterVerdict]") -> str:
        return "-" if verdict is None else render_mark(verdict.implemented)

    return f"{mark(row.verdict_a)} -> {mark(row.verdict_b)}"


def _measured_cell(row: DriftRow) -> Optional[str]:
    a = _ms(row.verdict_a.measured_ms) if row.verdict_a else None
    b = _ms(row.verdict_b.measured_ms) if row.verdict_b else None
    if a is None and b is None:
        return None
    return f"{a or '-'} -> {b or '-'}"


def render_fingerprint_diff(diff: FingerprintDiff) -> str:
    """The "what changed" table plus deviation churn."""
    title = (f"Fingerprint drift: {diff.client_a} -> {diff.client_b}")
    headers = ["Scenario", "Parameter", "Impl.", "Measured", "Delta",
               "Changed"]
    rows = []
    for row in diff.rows:
        delta = row.measured_delta_ms
        rows.append([
            row.scenario,
            row.parameter,
            _impl_cell(row),
            _measured_cell(row),
            None if delta is None else f"{delta:+.1f} ms",
            "CHANGED" if row.changed else None,
        ])
    lines = [render_table(headers, rows, title=title), ""]
    if diff.deviations_added:
        lines.append(f"deviations gained by {diff.client_b}:")
        for deviation in diff.deviations_added:
            lines.append(f"  [{deviation.requirement.value}] "
                         f"{deviation.clause} — {deviation.description}")
    if diff.deviations_removed:
        lines.append(f"deviations resolved since {diff.client_a}:")
        for deviation in diff.deviations_removed:
            lines.append(f"  [{deviation.requirement.value}] "
                         f"{deviation.clause} — {deviation.description}")
    if not diff.has_drift:
        lines.append("no behavioural drift: every verdict and "
                     "deviation matches")
    else:
        lines.append(f"{len(diff.changed_rows)} of {len(diff.rows)} "
                     f"verdicts drifted; "
                     f"+{len(diff.deviations_added)}/"
                     f"-{len(diff.deviations_removed)} deviations")
    return "\n".join(lines)


def fingerprint_diff_to_dict(diff: FingerprintDiff) -> dict:
    """Deterministic machine-readable form of the drift report."""
    def verdict_dict(verdict: "Optional[ParameterVerdict]"):
        if verdict is None:
            return None
        return {"implemented": verdict.implemented,
                "measured_ms": verdict.measured_ms,
                "nominal_ms": verdict.nominal_ms}

    return {
        "client_a": diff.client_a,
        "client_b": diff.client_b,
        "rows": [{
            "parameter": row.parameter,
            "scenario": row.scenario,
            "a": verdict_dict(row.verdict_a),
            "b": verdict_dict(row.verdict_b),
            "measured_delta_ms": row.measured_delta_ms,
            "changed": row.changed,
        } for row in diff.rows],
        "deviations_added": [{
            "requirement": d.requirement.value, "clause": d.clause,
            "description": d.description} for d in diff.deviations_added],
        "deviations_removed": [{
            "requirement": d.requirement.value, "clause": d.clause,
            "description": d.description}
            for d in diff.deviations_removed],
        "has_drift": diff.has_drift,
    }
