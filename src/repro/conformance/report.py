"""Rendering of conformance fingerprints (table + machine-readable).

Two faithful views of the same :class:`ClientFingerprint`: a diff-able
text table in the house style of :mod:`repro.analysis.render`, and a
deterministic JSON document (sorted keys, no timestamps, no cache
counters) — the CI smoke diffs cold vs warm output byte-for-byte, so
nothing environment-dependent may leak into either form.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from ..analysis.render import format_ms, render_mark, render_table
from .fingerprint import ClientFingerprint, ParameterVerdict
from .scenarios import Scenario


def _ms(value: "Optional[float]") -> Optional[str]:
    return None if value is None else format_ms(value / 1000.0, digits=1)


def render_fingerprint(fingerprint: ClientFingerprint) -> str:
    """One client's full report: verdict table + deviation flags."""
    title = (f"RFC 8305 fingerprint — {fingerprint.client} "
             f"({fingerprint.engine_family})")
    headers = ["Scenario", "Parameter", "Impl.", "Measured", "Nominal",
               "Delta", "Detail"]
    rows = []
    for verdict in fingerprint.verdicts:
        delta = verdict.delta_ms
        rows.append([
            verdict.scenario,
            verdict.parameter.short,
            render_mark(verdict.implemented),
            _ms(verdict.measured_ms),
            _ms(verdict.nominal_ms),
            None if delta is None else f"{delta:+.1f} ms",
            verdict.detail or None,
        ])
    lines = [render_table(headers, rows, title=title)]
    lines.append("")
    if fingerprint.deviations:
        lines.append("deviations:")
        for deviation in fingerprint.deviations:
            lines.append(f"  [{deviation.requirement.value}] "
                         f"{deviation.clause} — {deviation.description}")
    else:
        lines.append("deviations: (none)")
    return "\n".join(lines)


def render_conformance_summary(
        fingerprints: "Sequence[ClientFingerprint]") -> str:
    """The battery over many clients as one summary table."""
    from .fingerprint import RFC8305Parameter as P

    headers = ["Client", "CAD", "RD", "AAAA first", "v6 blackhole",
               "MUST dev.", "SHOULD dev."]
    rows = []
    for fingerprint in fingerprints:
        cad = fingerprint.verdict_for(P.CONNECTION_ATTEMPT_DELAY,
                                      "v6-delay-sweep")
        rd = fingerprint.verdict_for(P.RESOLUTION_DELAY)
        first = fingerprint.verdict_for(P.FIRST_ADDRESS_FAMILY)
        blackhole = fingerprint.verdict_for(P.FALLBACK, "v6-blackhole")
        rows.append([
            fingerprint.client,
            _ms(cad.measured_ms) if cad is not None else None,
            _ms(rd.measured_ms) if rd is not None else None,
            render_mark(first.implemented) if first is not None else None,
            (("survived" if blackhole.implemented else "FAILED")
             if blackhole is not None else None),
            len(fingerprint.must_deviations) or None,
            len(fingerprint.should_deviations) or None,
        ])
    return render_table(
        headers, rows,
        title="Conformance summary: RFC 8305 across clients")


def render_battery_summary(title: str,
                           fingerprints: "Sequence[ClientFingerprint]",
                           battery: "Sequence[Scenario]") -> str:
    """One scenario battery across clients: per-stage verdict matrix.

    One column per scenario (✓/✗ for the per-stage verdict, the
    measured value when one exists), one row per client — how the
    HEv3/SVCB/sortlist batteries show that the policy stages actually
    discriminate.
    """
    headers = ["Client", "Stage"] + [s.name for s in battery]
    rows = []
    for fingerprint in fingerprints:
        cells = []
        stages = sorted({s.discriminates.stage for s in battery})
        for scenario in battery:
            verdict = fingerprint.verdict_for(scenario.discriminates,
                                              scenario.name)
            if verdict is None:
                cells.append(None)
                continue
            mark = render_mark(verdict.implemented)
            measured = _ms(verdict.measured_ms)
            cells.append(f"{mark} {measured}" if measured else mark)
        rows.append([fingerprint.client, "/".join(stages)] + cells)
    lines = [render_table(headers, rows, title=title), ""]
    for fingerprint in fingerprints:
        relevant = [d for d in fingerprint.deviations]
        for deviation in relevant:
            lines.append(f"  {fingerprint.client}: "
                         f"[{deviation.requirement.value}] "
                         f"{deviation.clause} — {deviation.description}")
    if len(lines) == 2:
        lines.append("deviations: (none)")
    return "\n".join(lines)


def render_scenario_catalog(battery: "Sequence[Scenario]") -> str:
    """The battery as a table (README / ``repro conformance --list``)."""
    headers = ["Scenario", "Discriminates", "Impairment", "Sweep",
               "Adaptive"]
    rows = []
    for scenario in battery:
        values = scenario.case.sweep.values_ms
        if len(values) == 1:
            sweep = f"{values[0]} ms"
        else:
            sweep = (f"{values[0]}-{values[-1]} ms "
                     f"({len(values)} values)")
        if scenario.case.repetitions > 1:
            sweep += f" x{scenario.case.repetitions}"
        rows.append([
            scenario.name,
            scenario.discriminates.short,
            scenario.impairment_label,
            sweep,
            f"fine {scenario.fine_step_ms} ms" if scenario.adaptive
            else None,
        ])
    return render_table(headers, rows,
                        title="Conformance scenario battery")


# --------------------------------------------------------------------------
# machine-readable form
# --------------------------------------------------------------------------


def verdict_to_dict(verdict: ParameterVerdict) -> dict:
    return {
        "parameter": verdict.parameter.value,
        "scenario": verdict.scenario,
        "implemented": verdict.implemented,
        "measured_ms": verdict.measured_ms,
        "nominal_ms": verdict.nominal_ms,
        "delta_ms": verdict.delta_ms,
        "detail": verdict.detail,
    }


def fingerprint_to_dict(fingerprint: ClientFingerprint) -> dict:
    return {
        "client": fingerprint.client,
        "engine_family": fingerprint.engine_family,
        "scenarios_run": list(fingerprint.scenarios_run),
        "verdicts": [verdict_to_dict(v) for v in fingerprint.verdicts],
        "deviations": [{
            "requirement": d.requirement.value,
            "clause": d.clause,
            "description": d.description,
        } for d in fingerprint.deviations],
    }


def fingerprints_to_json(fingerprints: "Sequence[ClientFingerprint]",
                         indent: int = 2) -> str:
    """Deterministic JSON: stable key order, content only — identical
    across serial/parallel/warm-cache runs by construction."""
    return json.dumps([fingerprint_to_dict(f) for f in fingerprints],
                      indent=indent, sort_keys=True)
