"""Structured event trace of a Happy Eyeballs run.

Every phase of a connection establishment — queries out, answers in,
resolution-delay timers, staggered attempts, the winner — is recorded
as a timestamped event.  The trace is what the analysis layer and the
quickstart example read; rendering it reproduces the Figure 1 message
sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class HEEventKind(enum.Enum):
    CONNECT_REQUESTED = "connect-requested"
    CACHE_HIT = "cache-hit"
    QUERY_SENT = "query-sent"
    ANSWER_RECEIVED = "answer-received"
    RESOLUTION_DELAY_STARTED = "resolution-delay-started"
    RESOLUTION_DELAY_CANCELLED = "resolution-delay-cancelled"
    RESOLUTION_DELAY_EXPIRED = "resolution-delay-expired"
    ADDRESSES_SELECTED = "addresses-selected"
    LATE_ADDRESSES_ADDED = "late-addresses-added"
    ATTEMPT_STARTED = "attempt-started"
    ATTEMPT_SUCCEEDED = "attempt-succeeded"
    ATTEMPT_FAILED = "attempt-failed"
    ATTEMPT_ABORTED = "attempt-aborted"
    CONNECTION_WON = "connection-won"
    CONNECT_FAILED = "connect-failed"


@dataclass(frozen=True)
class HEEvent:
    """One timestamped step of an HE run."""

    timestamp: float
    kind: HEEventKind
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extras = " ".join(f"{key}={value}" for key, value
                          in sorted(self.detail.items()))
        return f"{self.timestamp * 1000:9.3f} ms  {self.kind.value:28s} {extras}"


class HETrace:
    """Append-only event log for one or more HE runs."""

    def __init__(self) -> None:
        self.events: List[HEEvent] = []

    def record(self, timestamp: float, kind: HEEventKind,
               **detail: Any) -> HEEvent:
        event = HEEvent(timestamp, kind, dict(detail))
        self.events.append(event)
        return event

    def of_kind(self, kind: HEEventKind) -> List[HEEvent]:
        return [event for event in self.events if event.kind is kind]

    def first_of(self, kind: HEEventKind) -> Optional[HEEvent]:
        for event in self.events:
            if event.kind is kind:
                return event
        return None

    def attempts(self) -> List[HEEvent]:
        return self.of_kind(HEEventKind.ATTEMPT_STARTED)

    def clear(self) -> None:
        self.events.clear()

    def render(self) -> str:
        """Human-readable sequence, Figure-1 style."""
        return "\n".join(event.describe() for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
