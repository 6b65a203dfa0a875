"""Discrete-event network simulator (the testbed substrate).

The paper's local testbed is two directly connected hosts with
``tc-netem`` traffic shaping and packet captures (§4.3, App. Fig. 3).
This package provides the equivalent substrate in simulation:

* :class:`Simulator` — deterministic event loop with SimPy-style
  generator processes,
* :class:`Network` / :class:`NetworkSegment` / :class:`Host` /
  :class:`Interface` — topology with address-based forwarding where
  unknown destinations blackhole (the paper's unresponsive addresses),
* :class:`TrafficShaper` + :class:`NetemSpec` — tc-netem emulation,
* :class:`PacketCapture` — the tcpdump equivalent all inference reads.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "addr": ("AddressAllocator", "DualStackAllocator", "Family", "IPAddress",
             "family_of", "is_v6", "parse_address", "split_by_family"),
    "capture": ("CapturedFrame", "Direction", "PacketCapture"),
    "clock": ("SimClock",),
    "events": ("AllOf", "AnyOf", "ConditionValue", "Event",
               "EventAlreadyTriggered", "SimulationError", "Timeout"),
    "host": ("Host", "NoRouteError"),
    "iface": ("Interface",),
    "netem": ("NetemFilter", "NetemQdisc", "NetemRule", "NetemSpec",
              "TrafficShaper"),
    "network": ("Network", "NetworkSegment"),
    "packet": ("Packet", "Protocol", "QUICPacketType", "TCPFlags"),
    "process": ("Interrupt", "Process"),
    "scheduler": ("ScheduledCall", "Simulator"),
})
