"""Packet capture — the testbed's measurement primitive.

The local testbed infers every Happy Eyeballs parameter from packet
captures on the client node (§4.3): the CAD is the time between the
first IPv6 and the first IPv4 connection-attempt packet.  This module is
the simulated ``tcpdump``: a tap attached to an interface records
timestamped frames in both directions and offers the query helpers the
inference code needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

from .addr import Family
from .packet import Packet


class Direction(enum.Enum):
    """Direction of a captured frame relative to the capturing host."""

    OUT = "out"
    IN = "in"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class CapturedFrame:
    """One timestamped frame in a capture.

    ``slots=True`` matters: captures record every frame of every run,
    so per-frame ``__dict__`` allocation was measurable campaign-wide.
    """

    timestamp: float
    direction: Direction
    packet: Packet

    @property
    def family(self) -> Family:
        return self.packet.family

    def describe(self) -> str:
        arrow = "->" if self.direction is Direction.OUT else "<-"
        return f"{self.timestamp:10.6f} {arrow} {self.packet.describe()}"


FrameFilter = Callable[[CapturedFrame], bool]


class PacketCapture:
    """An in-memory pcap with simple query helpers.

    Captures can be stopped and restarted; the testbed starts a fresh
    capture per test-run configuration, mirroring the framework's
    ``start capture.sh`` / ``stop capture.sh`` stages (App. Figure 3).
    """

    def __init__(self, name: str = "capture") -> None:
        self.name = name
        self._frames: List[CapturedFrame] = []
        self._running = True

    # -- recording -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        self._running = True

    def stop(self) -> None:
        self._running = False

    def clear(self) -> None:
        self._frames.clear()

    def record(self, timestamp: float, direction: Direction,
               packet: Packet) -> None:
        if self._running:
            self._frames.append(CapturedFrame(timestamp, direction, packet))

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[CapturedFrame]:
        return iter(self._frames)

    @property
    def frames(self) -> List[CapturedFrame]:
        return list(self._frames)

    def filter(self, predicate: FrameFilter) -> List[CapturedFrame]:
        return [frame for frame in self._frames if predicate(frame)]

    def first(self, predicate: FrameFilter) -> Optional[CapturedFrame]:
        for frame in self._frames:
            if predicate(frame):
                return frame
        return None

    def connection_attempts(self, family: Optional[Family] = None,
                            direction: Direction = Direction.OUT
                            ) -> List[CapturedFrame]:
        """Outgoing TCP SYNs / QUIC Initials, optionally one family."""
        return self.filter(lambda frame: (
            frame.direction is direction
            and frame.packet.is_connection_attempt
            and (family is None or frame.family is family)))

    def first_connection_attempt(self, family: Family
                                 ) -> Optional[CapturedFrame]:
        attempts = self.connection_attempts(family=family)
        return attempts[0] if attempts else None

    def count(self, predicate: FrameFilter) -> int:
        return sum(1 for frame in self._frames if predicate(frame))

    def timespan(self) -> Optional["tuple[float, float]"]:
        if not self._frames:
            return None
        return self._frames[0].timestamp, self._frames[-1].timestamp

    def render(self, limit: Optional[int] = None) -> str:
        """tcpdump-like text rendering, for examples and debugging."""
        frames: Iterable[CapturedFrame] = self._frames
        if limit is not None:
            frames = self._frames[:limit]
        lines = [frame.describe() for frame in frames]
        if limit is not None and len(self._frames) > limit:
            lines.append(f"... {len(self._frames) - limit} more frames")
        return "\n".join(lines)
