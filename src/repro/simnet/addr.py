"""IP address helpers used across the simulator.

The whole study is about the choice between two address families, so the
:class:`Family` enum appears in nearly every observable: packets,
netem filters, capture queries, Happy Eyeballs attempt records, and all
of the paper's tables.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Iterable, Iterator, List, Union

from ..memo import BoundedMemo

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


class Family(enum.Enum):
    """IP address family."""

    V4 = 4
    V6 = 6

    @property
    def label(self) -> str:
        return "IPv4" if self is Family.V4 else "IPv6"

    @property
    def other(self) -> "Family":
        return Family.V6 if self is Family.V4 else Family.V4

    def __str__(self) -> str:
        return self.label


# Simulations parse the same handful of address literals millions of
# times (every packet hop, route lookup, and capture query goes through
# here), so these helpers memoize.  A simulation uses a few hundred
# distinct addresses; the memo bound only stops pathological inputs
# from growing memory.
_PARSE_CACHE = BoundedMemo()
_FAMILY_CACHE = BoundedMemo()
_STR_CACHE = BoundedMemo()


def parse_address(value: Union[str, IPAddress]) -> IPAddress:
    """Parse ``value`` into an IPv4 or IPv6 address object (memoized)."""
    if type(value) is not str:
        if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            return value
        return ipaddress.ip_address(value)
    cached = _PARSE_CACHE.get(value)
    if cached is not None:
        return cached
    return _PARSE_CACHE.put(value, ipaddress.ip_address(value))


def family_of(address: Union[str, IPAddress]) -> Family:
    """Address family of ``address`` (memoized for strings).

    Address *objects* answer via an isinstance check — cheaper than a
    cache lookup, because :mod:`ipaddress` hashing is Python-level.
    """
    if isinstance(address, ipaddress.IPv4Address):
        return Family.V4
    if isinstance(address, ipaddress.IPv6Address):
        return Family.V6
    cached = _FAMILY_CACHE.get(address)
    if cached is not None:
        return cached
    family = Family.V4 if parse_address(address).version == 4 else Family.V6
    if type(address) is str:
        _FAMILY_CACHE.put(address, family)
    return family


def address_str(address: Union[str, IPAddress]) -> str:
    """``str(address)``, memoized (IPv6 compression is not cheap)."""
    if type(address) is str:
        return address
    cached = _STR_CACHE.get(address)
    if cached is None:
        cached = _STR_CACHE.put(address, str(address))
    return cached


def is_v6(address: Union[str, IPAddress]) -> bool:
    return family_of(address) is Family.V6


def split_by_family(addresses: Iterable[Union[str, IPAddress]]
                    ) -> "tuple[List[IPAddress], List[IPAddress]]":
    """Split ``addresses`` into ``(v4_list, v6_list)`` preserving order."""
    v4: List[IPAddress] = []
    v6: List[IPAddress] = []
    for value in addresses:
        addr = parse_address(value)
        (v6 if addr.version == 6 else v4).append(addr)
    return v4, v6


class AddressAllocator:
    """Hands out unique addresses from a prefix.

    The web-based tool assigns *dedicated* IPv4 and IPv6 addresses to
    every delay step (§4.3(ii)); testbeds allocate per-test server
    addresses the same way.  The allocator skips the network and
    broadcast addresses of IPv4 prefixes.
    """

    def __init__(self, network: Union[str, IPNetwork]) -> None:
        if isinstance(network, str):
            network = ipaddress.ip_network(network, strict=True)
        self._network = network
        self._hosts: Iterator[IPAddress] = network.hosts()
        self._handed_out: List[IPAddress] = []

    @property
    def network(self) -> IPNetwork:
        return self._network

    @property
    def family(self) -> Family:
        return Family.V4 if self._network.version == 4 else Family.V6

    @property
    def handed_out(self) -> List[IPAddress]:
        return list(self._handed_out)

    def allocate(self) -> IPAddress:
        """Next unused host address in the prefix."""
        try:
            address = next(self._hosts)
        except StopIteration:
            raise RuntimeError(
                f"address pool {self._network} exhausted "
                f"after {len(self._handed_out)} allocations") from None
        self._handed_out.append(address)
        return address

    def allocate_many(self, count: int) -> List[IPAddress]:
        return [self.allocate() for _ in range(count)]


class DualStackAllocator:
    """Paired IPv4 + IPv6 allocation for dual-stack services."""

    def __init__(self, v4_network: Union[str, IPNetwork],
                 v6_network: Union[str, IPNetwork]) -> None:
        self.v4 = AddressAllocator(v4_network)
        self.v6 = AddressAllocator(v6_network)
        if self.v4.family is not Family.V4:
            raise ValueError(f"{v4_network!r} is not an IPv4 prefix")
        if self.v6.family is not Family.V6:
            raise ValueError(f"{v6_network!r} is not an IPv6 prefix")

    def allocate_pair(self) -> "tuple[IPAddress, IPAddress]":
        """One fresh (IPv4, IPv6) address pair."""
        return self.v4.allocate(), self.v6.allocate()

    def allocate(self, family: Family) -> IPAddress:
        return (self.v4 if family is Family.V4 else self.v6).allocate()
