"""Network interfaces.

An interface joins a host to a network segment.  It owns the host's
addresses on that segment, the egress/ingress traffic shapers (where
netem attaches, like ``tc qdisc add dev eth0 root netem ...``), and the
packet taps used for capturing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from .addr import Family, IPAddress, family_of, parse_address
from .capture import Direction, PacketCapture
from .netem import TrafficShaper
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .host import Host
    from .network import NetworkSegment


class Interface:
    """A host's attachment point to a segment."""

    def __init__(self, host: "Host", name: str) -> None:
        self.host = host
        self.name = name
        self.segment: Optional["NetworkSegment"] = None
        self._addresses: List[IPAddress] = []
        rng = host.sim.derive_rng(f"shaper:{host.name}:{name}")
        self.egress = TrafficShaper(rng)
        self.ingress = TrafficShaper(rng)
        self._captures: List[PacketCapture] = []

    # -- addressing --------------------------------------------------------

    @property
    def addresses(self) -> List[IPAddress]:
        return list(self._addresses)

    def add_address(self, address: Union[str, IPAddress]) -> IPAddress:
        addr = parse_address(address)
        if addr in self._addresses:
            raise ValueError(f"{addr} already configured on {self}")
        self._addresses.append(addr)
        if self.segment is not None:
            self.segment.register_address(addr, self)
        self.host.address_added(addr, self)
        return addr

    def remove_address(self, address: Union[str, IPAddress]) -> None:
        addr = parse_address(address)
        self._addresses.remove(addr)
        if self.segment is not None:
            self.segment.unregister_address(addr)
        self.host.address_removed(addr, self)

    def addresses_of(self, family: Family) -> List[IPAddress]:
        return [a for a in self._addresses if family_of(a) is family]

    # -- capturing -----------------------------------------------------------

    def attach_capture(self, capture: PacketCapture) -> PacketCapture:
        self._captures.append(capture)
        return capture

    def detach_capture(self, capture: PacketCapture) -> None:
        self._captures.remove(capture)

    def _tap(self, direction: Direction, packet: Packet) -> None:
        captures = self._captures
        if not captures:
            return  # no tap attached: skip the clock read entirely
        now = self.host.sim.now
        for capture in captures:
            capture.record(now, direction, packet)

    # -- data path -----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` onto the attached segment."""
        if self.segment is None:
            raise RuntimeError(f"{self} is not attached to a segment")
        self._tap(Direction.OUT, packet)
        self.segment.transmit(packet, self)

    def deliver(self, packet: Packet) -> None:
        """Called by the segment when a packet arrives for this interface."""
        self._tap(Direction.IN, packet)
        self.host.receive(packet, self)

    def __repr__(self) -> str:
        return f"<Interface {self.host.name}:{self.name}>"
