"""Network fabric: segments connecting interfaces.

A :class:`NetworkSegment` is an L2-ish broadcast domain that forwards a
packet to whichever attached interface owns the destination address.
Unknown destinations are silently dropped — this is how the paper's
"addresses that do not respond at all" (§4.1(iii)) are modeled: an
address nobody configured is a blackhole, the client's SYN simply
vanishes and its retransmission/abort behaviour becomes observable.

:class:`Network` is the top-level container tying simulator, hosts and
segments together, the equivalent of the testbed topology in
App. Figure 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .addr import Family, IPAddress
from .iface import Interface
from .packet import Packet
from .scheduler import Simulator


class NetworkSegment:
    """A broadcast domain forwarding by destination address."""

    def __init__(self, sim: Simulator, name: str,
                 propagation_delay: float = 0.0001) -> None:
        if propagation_delay < 0:
            raise ValueError(
                f"negative propagation delay: {propagation_delay!r}")
        self.sim = sim
        self.name = name
        self.propagation_delay = propagation_delay
        self._interfaces: List[Interface] = []
        self._by_address: Dict[IPAddress, Interface] = {}
        # Integer-keyed mirrors of _by_address, per family: the
        # forwarding hot path avoids ipaddress's hex-string __hash__.
        self._by_ip_v4: Dict[int, Interface] = {}
        self._by_ip_v6: Dict[int, Interface] = {}
        self.dropped_unknown_destination = 0
        self.forwarded = 0

    # -- attachment ---------------------------------------------------------

    def attach(self, interface: Interface) -> None:
        if interface.segment is not None:
            raise RuntimeError(f"{interface} already attached")
        interface.segment = self
        self._interfaces.append(interface)
        for address in interface.addresses:
            self.register_address(address, interface)

    def register_address(self, address: IPAddress,
                         interface: Interface) -> None:
        existing = self._by_address.get(address)
        if existing is not None and existing is not interface:
            raise ValueError(
                f"{address} already owned by {existing} on segment {self.name}")
        self._by_address[address] = interface
        (self._by_ip_v6 if address.version == 6
         else self._by_ip_v4)[int(address)] = interface

    def unregister_address(self, address: IPAddress) -> None:
        self._by_address.pop(address, None)
        (self._by_ip_v6 if address.version == 6
         else self._by_ip_v4).pop(int(address), None)

    @property
    def interfaces(self) -> List[Interface]:
        return list(self._interfaces)

    # -- forwarding -----------------------------------------------------------

    def transmit(self, packet: Packet, source: Interface) -> None:
        """Shape at egress, propagate, then deliver (or blackhole)."""
        departure = source.egress.plan(packet, self.sim.now)
        if departure is None:
            return  # dropped by the sender's qdisc
        arrival = departure + self.propagation_delay
        self.sim.schedule_at(arrival, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        by_ip = (self._by_ip_v6 if packet.family is Family.V6
                 else self._by_ip_v4)
        target = by_ip.get(packet.dst._ip)
        if target is None:
            self.dropped_unknown_destination += 1
            return  # blackholed: unresponsive address
        now = self.sim.now
        delivery = target.ingress.plan(packet, now)
        if delivery is None:
            return  # dropped by the receiver's qdisc
        self.forwarded += 1
        if delivery <= now:
            # Unshaped ingress (the overwhelming common case): deliver
            # in the same callback instead of burning a scheduler entry
            # on a zero-delay hop.  Receive-side effects still dispatch
            # through the scheduler (socket events schedule their
            # callbacks), so cross-packet FIFO ordering is preserved.
            target.deliver(packet)
        else:
            self.sim.schedule_at(delivery, target.deliver, packet)


class Network:
    """Container for a topology: simulator + hosts + segments."""

    def __init__(self, sim: Optional[Simulator] = None, seed: int = 0) -> None:
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.hosts: Dict[str, "Host"] = {}
        self.segments: Dict[str, NetworkSegment] = {}

    def add_segment(self, name: str,
                    propagation_delay: float = 0.0001) -> NetworkSegment:
        if name in self.segments:
            raise ValueError(f"segment {name!r} already exists")
        segment = NetworkSegment(self.sim, name, propagation_delay)
        self.segments[name] = segment
        return segment

    def add_host(self, name: str) -> "Host":
        from .host import Host  # local import: host imports this module

        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.sim, name)
        self.hosts[name] = host
        return host

    def connect(self, host: "Host", segment: NetworkSegment,
                addresses: Optional[List[Union[str, IPAddress]]] = None,
                iface_name: Optional[str] = None) -> Interface:
        """Create an interface on ``host`` and attach it to ``segment``."""
        name = iface_name or f"eth{len(host.interfaces)}"
        interface = host.add_interface(name)
        segment.attach(interface)
        for address in addresses or []:
            interface.add_address(address)
        return interface
