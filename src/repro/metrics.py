"""The one list of counters the harness reports, and their renderer.

An invocation counts into its :class:`~repro.experiments.Session`'s
:class:`Metrics` (its store's, when it has one); the campaign service
keeps one lifetime object.  A misspelled counter raises
``AttributeError`` instead of quietly starting a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .testbed.resilience import FailureEntry

#: The ``GET /stats`` sections and their counters, in order (the
#: service appends its gauges: LRU size, claims in flight).
STATS_SECTIONS = {
    "service": ("submissions", "completed", "failed", "rejected",
                "coalesced", "keys_planned", "keys_executed",
                "keys_waited"),
    "tier": ("hits", "misses", "stores"),
    "flight": ("claims", "waits"),
}
#: The fault-tolerant runtime's counters: any of them set prints
#: ``[faults]``.
FAULTS = ("failures", "dispatched", "retries", "pool_breaks", "respawns",
          "hang_timeouts", "store_write_errors", "journaled", "resumed",
          "journal_stale")
FAILURE_LINES = 20


@dataclass(slots=True)
class Metrics:
    """Every counter one invocation (or one service lifetime) keeps.

    Pickles; ``a += b`` merges ``b`` into ``a`` field by field."""

    # Store lookups and writes.  ``invalid``: bytes there but no valid
    # entry; ``quarantined`` (a subset): copied aside to .quarantine/.
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    quarantined: int = 0
    # One gc sweep.
    kept: int = 0
    kept_bytes: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    removed_tmp: int = 0
    # The fault-tolerant runtime.  ``failures``: entries out of retry
    # budget; ``dispatched``: entries run under a degrading policy;
    # ``respawns``: pools replaced (breaks + watchdog abandonments);
    # ``resumed``/``journal_stale``: journaled keys the store served or
    # had lost under ``--resume``.
    failures: int = 0
    dispatched: int = 0
    retries: int = 0
    pool_breaks: int = 0
    respawns: int = 0
    hang_timeouts: int = 0
    store_write_errors: int = 0
    journaled: int = 0
    resumed: int = 0
    journal_stale: int = 0
    # The campaign service.  ``claims``/``waits``: single-flight keys
    # granted and wait rounds; ``waited``: a submission's keys that
    # resolved only after waiting on another's claim.
    submissions: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    coalesced: int = 0
    keys_planned: int = 0
    keys_executed: int = 0
    keys_waited: int = 0
    claims: int = 0
    waits: int = 0
    waited: int = 0

    def __iadd__(self, other: "Metrics") -> "Metrics":
        for spec in fields(self):
            name = spec.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def summary_lines(self, root: Optional[object] = None,
                      failures: "Optional[Sequence[FailureEntry]]" = None
                      ) -> "List[str]":
        """``[cache]`` when the store at ``root`` was touched; with
        ``failures`` (None: resilience was not asked for), a line per
        failure and ``[faults]`` when the runtime observed anything."""
        lines = []
        if root is not None and (self.hits or self.misses or self.stores):
            lines.append(
                f"[cache] hits={self.hits} misses={self.misses} "
                f"stores={self.stores} entries_invalid={self.invalid} "
                f"quarantined={self.quarantined} root={root}")
        if failures is None:
            return lines
        lines.extend(f"[faults] failed {entry.label} "
                     f"attempts={entry.attempts} "
                     f"elapsed={entry.elapsed_s:.3f}s error={entry.error}"
                     for entry in failures[:FAILURE_LINES])
        if len(failures) > FAILURE_LINES:
            lines.append(f"[faults] ... and {len(failures) - FAILURE_LINES} "
                         f"more failures")
        if any(getattr(self, name) for name in FAULTS):
            lines.append(
                f"[faults] failures={self.failures} retries={self.retries} "
                f"pool-breaks={self.pool_breaks} respawns={self.respawns} "
                f"hangs={self.hang_timeouts} "
                f"store-write-errors={self.store_write_errors} "
                f"journaled={self.journaled} resumed={self.resumed} "
                f"stale={self.journal_stale}")
        return lines

    def gc_line(self, root: object, dry_run: bool = False) -> str:
        prefix = "[cache gc] (dry run) " if dry_run else "[cache gc] "
        return (f"{prefix}kept={self.kept} ({self.kept_bytes} B) "
                f"removed={self.removed} tmp={self.removed_tmp} "
                f"reclaimed={self.reclaimed_bytes} B root={root}")

    def stats_sections(self, **gauges: "Mapping[str, int]"
                       ) -> "Dict[str, Dict[str, int]]":
        """The ``GET /stats`` sections, each followed by its gauges."""
        sections = {name: {counter: getattr(self, counter)
                           for counter in counters}
                    for name, counters in STATS_SECTIONS.items()}
        for name, values in gauges.items():
            sections[name].update(values)
        return sections
