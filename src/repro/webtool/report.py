"""Web tool reporting: CAD intervals, consistency marks, Figure 4 art.

Turns sessions into what the tool's result page (App. Figure 4) shows
and into the "Consistency" column of Table 2.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .campaign import BrowserAggregate
    from .session import SessionResult


class ConsistencyMark(enum.Enum):
    """Table 2's consistency-between-methods column."""

    CONSISTENT = "observed as defined"           # "●"
    DEVIATION = "observed with RFC deviation"    # half mark (Firefox)
    INCONSISTENT = "not observed / inconsistent" # "○" (Safari)
    NOT_TESTED = "no web validation"

    @property
    def symbol(self) -> str:
        return {
            ConsistencyMark.CONSISTENT: "●",
            ConsistencyMark.DEVIATION: "◐",
            ConsistencyMark.INCONSISTENT: "○",
            ConsistencyMark.NOT_TESTED: "-",
        }[self]


def classify_consistency(aggregate: BrowserAggregate,
                         local_cad_ms: Optional[float]
                         ) -> ConsistencyMark:
    """Compare web behaviour against the local result (§5.1 criteria).

    * Safari-style: a majority of sessions non-monotonic, or widely
      varying CAD intervals → inconsistent.
    * Firefox-style: a small share of sessions with flips/outliers →
      deviation.
    * otherwise: the web CAD interval brackets the local CAD →
      consistent.
    """
    if aggregate.repetitions == 0:
        return ConsistencyMark.NOT_TESTED
    inconsistent_share = (aggregate.inconsistent_sessions
                          / aggregate.repetitions)
    intervals = aggregate.cad_interval_spread()
    uppers = [high for _, high in intervals if high is not None]
    # A dynamic-CAD client's interval wanders across the whole ladder;
    # a fixed-CAD client's stays within a couple of adjacent rungs.
    upper_spread = (max(uppers) - min(uppers)) if uppers else 0
    if inconsistent_share >= 0.5 or upper_spread > 500:
        return ConsistencyMark.INCONSISTENT
    if inconsistent_share > 0.2:
        return ConsistencyMark.DEVIATION
    if local_cad_ms is not None:
        # Ladder steps quantize the web CAD; allow half-step tolerance
        # so a CAD exactly on a rung (Chrome's 300 ms) stays consistent.
        tolerance = 25.0
        low, high = aggregate.modal_cad_interval()
        if low is not None and local_cad_ms <= low - tolerance:
            return ConsistencyMark.DEVIATION
        if high is not None and local_cad_ms > high + tolerance:
            return ConsistencyMark.DEVIATION
    if inconsistent_share > 0.0:
        return ConsistencyMark.DEVIATION
    return ConsistencyMark.CONSISTENT


def format_cad_interval(interval: "Tuple[Optional[int], Optional[int]]"
                        ) -> str:
    """Render like the paper: ``CAD ∈ (200, 250]``."""
    low, high = interval
    if low is None and high is None:
        return "CAD unknown (no outcomes)"
    if high is None:
        return f"CAD > {low} ms (IPv6 on every step)"
    if low is None:
        return f"CAD <= {high} ms (IPv4 from the first step)"
    return f"CAD in ({low}, {high}] ms"


def render_session_ladder(session: SessionResult) -> str:
    """ASCII version of the tool's result page (App. Figure 4a)."""
    lines = [f"{session.browser} on {session.os_name} "
             f"(repetition {session.repetition})",
             f"{'delay':>9}  outcome"]
    for outcome in sorted(session.outcomes, key=lambda o: o.delay_ms):
        if outcome.used_ipv6 is None:
            mark = "FAILED"
        elif outcome.used_ipv6:
            mark = "IPv6  ######"
        else:
            mark = "IPv4  ......"
        lines.append(f"{outcome.delay_ms:>6} ms  {mark}")
    lines.append(format_cad_interval(session.cad_interval()))
    if not session.is_monotonic():
        lines.append("note: inconsistent run (IPv6 after IPv4)")
    return "\n".join(lines)
