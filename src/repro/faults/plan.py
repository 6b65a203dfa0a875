"""Deterministic fault plans: seeded chaos at the testbed seam.

Simulator-centric testing argues that faults should be injected
*compositionally* at the seam between the system under test and its
testbed, so the same battery validates both the system and its failure
handling.  A :class:`FaultPlan` is that seam for the campaign runtime:
a seeded, declarative description of which runs crash their worker,
which hang, and which store operations tear or error — all pure
functions of the plan seed and the run coordinates, so a chaos
campaign replays exactly (and its headline invariant is testable:
with retries enabled, a faulted campaign's records are byte-identical
to the fault-free run).

Two injection seams:

* **entry faults** (:meth:`FaultPlan.entry_fault`) fire where a run
  executes — :data:`FaultKind.WORKER_CRASH` kills the worker process
  mid-run (serial execution simulates the crash as a raised
  :class:`InjectedFault`, since killing the parent would be the
  campaign abort we are defending against), and
  :data:`FaultKind.ENTRY_HANG` wedges the entry longer than the
  per-entry watchdog allows.  Targeting is per ``(coords, attempt)``:
  a spec with ``attempts=1`` fires on the first attempt only, so a
  retrying campaign heals deterministically.
* **store faults** (:meth:`FaultPlan.store_fault`) fire inside
  :class:`~repro.testbed.store.CampaignStore` —
  :data:`FaultKind.CORRUPT_WRITE` / :data:`FaultKind.PARTIAL_WRITE`
  tear an entry on disk (the *next* campaign must quarantine and
  re-execute it), and :data:`FaultKind.IO_ERROR` raises a transient
  ``OSError`` on reads.  Store faults happen parent-side only (the
  parent is the single store writer), so a per-key occurrence counter
  is deterministic: each targeted key faults ``attempts`` times, then
  heals.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..seeding import SeedPart, digest_unit


class FaultKind(enum.Enum):
    """The injectable fault vocabulary."""

    #: Kill the worker process mid-entry (``BrokenProcessPool`` in the
    #: parent); serial execution raises :class:`InjectedFault` instead.
    WORKER_CRASH = "crash"
    #: Wedge the entry (sleep ``hang_s``, then fail) — exercises the
    #: per-entry watchdog, or degrades to a slow transient failure.
    ENTRY_HANG = "hang"
    #: Replace an entry write with truncated garbage bytes.
    CORRUPT_WRITE = "corrupt"
    #: Write the entry without its completeness marker (a torn write).
    PARTIAL_WRITE = "partial"
    #: Raise a transient ``OSError`` on an entry read or write.
    IO_ERROR = "io-error"


#: Kinds injected at the run-execution seam.
ENTRY_KINDS = frozenset({FaultKind.WORKER_CRASH, FaultKind.ENTRY_HANG})
#: Kinds injected inside the campaign store.
STORE_KINDS = frozenset({FaultKind.CORRUPT_WRITE, FaultKind.PARTIAL_WRITE,
                         FaultKind.IO_ERROR})
#: Store kinds that fire on writes (the rest fire on reads).
WRITE_KINDS = frozenset({FaultKind.CORRUPT_WRITE, FaultKind.PARTIAL_WRITE})


class InjectedFault(RuntimeError):
    """A fault fired by a :class:`FaultPlan` (always transient: the
    retry machinery treats it exactly like a real harness failure)."""


class FaultPlanError(ValueError):
    """A fault-plan specification is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault stream within a plan."""

    kind: FaultKind
    #: Fraction of coordinates targeted (deterministic per-coordinate
    #: draw, not a global quota).
    rate: float = 0.25
    #: Entry faults fire while ``attempt < attempts``; store faults
    #: fire on the first ``attempts`` occurrences per key.  A plan is
    #: *recoverable* when every spec's ``attempts`` <= the campaign's
    #: retry budget.
    attempts: int = 1
    #: How long an injected hang wedges the entry, in seconds.
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"rate must be in [0, 1]: {self.rate}")
        if self.attempts < 1:
            raise FaultPlanError(f"attempts must be >= 1: {self.attempts}")
        if self.hang_s < 0:
            raise FaultPlanError(f"hang_s must be >= 0: {self.hang_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault streams, consulted at the two seams.

    Frozen so it travels by value (pickled into pool workers alongside
    the runner); the store-occurrence counter is deliberately excluded
    from equality and only meaningful parent-side, where all store
    traffic happens.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    #: Parent-side occurrence counters for store faults, keyed by
    #: ``(kind, key)`` — mutation on a frozen dataclass is fine for a
    #: dict field, and worker copies never consult it.
    _occurrences: Dict[Tuple[FaultKind, str], int] = field(
        default_factory=dict, compare=False, repr=False)

    # -- construction ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind[:rate[:attempts[:hang_s]]]`` streams, comma
        separated — e.g. ``"crash:0.3,corrupt:0.5,hang:0.2:1:0.4"``.
        """
        specs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = chunk.split(":")
            try:
                kind = FaultKind(fields[0].strip())
            except ValueError as exc:
                valid = sorted(k.value for k in FaultKind)
                raise FaultPlanError(
                    f"unknown fault kind {fields[0]!r} "
                    f"(valid: {valid})") from exc
            if len(fields) > 4:
                raise FaultPlanError(
                    f"too many fields in fault spec {chunk!r} "
                    "(kind[:rate[:attempts[:hang_s]]])")
            try:
                spec = FaultSpec(
                    kind=kind,
                    rate=float(fields[1]) if len(fields) > 1 else 0.25,
                    attempts=int(fields[2]) if len(fields) > 2 else 1,
                    hang_s=float(fields[3]) if len(fields) > 3 else 0.25)
            except ValueError as exc:
                raise FaultPlanError(
                    f"bad fault spec {chunk!r}: {exc}") from exc
            specs.append(spec)
        if not specs:
            raise FaultPlanError(f"empty fault plan: {text!r}")
        return cls(seed=seed, specs=tuple(specs))

    # -- targeting -------------------------------------------------------------

    def targets(self, spec: FaultSpec, *coords: SeedPart) -> bool:
        """Whether ``spec`` targets ``coords`` — a pure function of the
        plan seed, the spec kind, and the coordinates, so serial and
        parallel execution (and every replay) agree exactly.  The draw
        is a SHA-256 digest, so the kinds of one plan target
        independent sets of coordinates and listing order only breaks
        ties where two store kinds target the same key."""
        return digest_unit(self.seed, spec.kind.value, *coords) < spec.rate

    def entry_fault(self, coords: "Sequence[SeedPart]",
                    attempt: int) -> Optional[FaultSpec]:
        """The entry fault to inject for ``coords`` at ``attempt``, or
        None.  Bounded per coordinate: once ``attempt`` reaches the
        spec's ``attempts`` the stream is exhausted and the entry runs
        clean — which is what makes a retrying campaign heal."""
        for spec in self.specs:
            if (spec.kind in ENTRY_KINDS and attempt < spec.attempts
                    and self.targets(spec, *coords)):
                return spec
        return None

    def store_fault(self, op: str, key: str) -> Optional[FaultSpec]:
        """The store fault to inject for this ``op`` (``"read"`` or
        ``"write"``) on ``key``, or None.  Consumes one occurrence:
        each targeted key faults ``attempts`` times, then heals."""
        for spec in self.specs:
            if spec.kind not in STORE_KINDS:
                continue
            # Torn writes fire on writes only; io-error is transient
            # I/O and can hit either side of the store.
            if op == "write" and not (spec.kind in WRITE_KINDS
                                      or spec.kind is FaultKind.IO_ERROR):
                continue
            if op == "read" and spec.kind in WRITE_KINDS:
                continue
            if not self.targets(spec, key):
                continue
            slot = (spec.kind, key)
            seen = self._occurrences.get(slot, 0)
            self._occurrences[slot] = seen + 1
            if seen < spec.attempts:
                return spec
        return None


def inject_entry_fault(spec: FaultSpec) -> None:
    """Fire an entry fault at the execution seam.

    In a pool worker (a process with a parent) a crash really kills
    the process, producing a genuine ``BrokenProcessPool`` parent-side.
    In the campaign process itself the crash is simulated as a raised
    :class:`InjectedFault` — killing the parent would abort the
    campaign, which is exactly the failure mode the fault-tolerant
    runtime exists to prevent.
    """
    if spec.kind is FaultKind.ENTRY_HANG:
        time.sleep(spec.hang_s)
        raise InjectedFault(
            f"injected entry hang ({spec.hang_s:.3f}s)")
    if spec.kind is FaultKind.WORKER_CRASH:
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            import os

            os._exit(70)  # hard kill: no atexit, no cleanup, no mercy
        raise InjectedFault("injected worker crash (serial simulation)")
    raise FaultPlanError(
        f"{spec.kind} is not an entry fault")  # pragma: no cover
