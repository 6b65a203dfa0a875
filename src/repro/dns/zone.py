"""Authoritative zone data with delegation, glue, and wildcards.

The measurement design needs three zone features:

* **wildcards** — the test-parameter encoding puts a fresh nonce in
  every query name (§4.1(ii)), so zones answer synthesized names via
  RFC 1034 §4.3.3 wildcard matching;
* **delegation + glue** — the resolver study walks real delegation
  chains, with unique zone apexes and name-server names per measured
  delay (§4.2);
* **IPv6-only delegation** — the capability probe that disqualified
  Hurricane Electric, Level3, Dyn, and G-Core (§5.3) needs zones whose
  name servers only have AAAA records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..simnet.addr import IPAddress
from .errors import DNSError
from .name import DNSName
from .rdata import (NS, Rdata, RdataType, SOA, address_rdata)

DEFAULT_TTL = 60


class NotInZoneError(DNSError):
    """Query name is outside this zone's bailiwick."""


@dataclass
class RRset:
    """All records of one (name, type), sharing a TTL."""

    name: DNSName
    rtype: RdataType
    ttl: int
    rdatas: List[Rdata] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rdatas)

    def __len__(self) -> int:
        return len(self.rdatas)

    def copy_at(self, name: DNSName) -> "RRset":
        """The same data owned by ``name`` (wildcard synthesis)."""
        return RRset(name, self.rtype, self.ttl, list(self.rdatas))


class LookupKind(enum.Enum):
    ANSWER = "answer"
    CNAME = "cname"
    REFERRAL = "referral"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


@dataclass
class ZoneLookupResult:
    """Outcome of a zone lookup, ready to map onto a response."""

    kind: LookupKind
    answers: List[RRset] = field(default_factory=list)
    authority: List[RRset] = field(default_factory=list)
    glue: List[RRset] = field(default_factory=list)


class Zone:
    """One authoritative zone."""

    def __init__(self, origin: Union[str, DNSName],
                 soa: Optional[SOA] = None) -> None:
        self.origin = (origin if isinstance(origin, DNSName)
                       else DNSName.from_text(origin))
        self._nodes: Dict[DNSName, Dict[RdataType, RRset]] = {}
        # Deterministic content fingerprint: a canonical byte string
        # over the add() log, built lazily on first use and invalidated
        # by further adds.  Two zones built by the same construction
        # sequence compare equal, letting response caches key on zone
        # content across otherwise-independent simulation runs.  Bytes
        # hash in one C pass, unlike a tuple of rdatas.
        self._content_log: list = []
        self._content_key_cache: Optional[bytes] = None
        self.soa = soa or SOA(
            mname=DNSName.from_text("ns1").concatenate(self.origin),
            rname=DNSName.from_text("hostmaster").concatenate(self.origin))
        self.add(self.origin, self.soa)

    # -- building -------------------------------------------------------------

    def _as_name(self, name: Union[str, DNSName]) -> DNSName:
        if isinstance(name, str):
            parsed = DNSName.from_text(name)
            if not parsed.is_subdomain_of(self.origin):
                # Treat as relative to the origin.
                parsed = parsed.concatenate(self.origin)
            return parsed
        return name

    def add(self, name: Union[str, DNSName], rdata: Rdata,
            ttl: int = DEFAULT_TTL) -> "Zone":
        """Add one record; ``name`` may be relative to the origin."""
        owner = self._as_name(name)
        if not owner.is_subdomain_of(self.origin):
            raise NotInZoneError(f"{owner} is outside {self.origin}")
        rtype = RdataType(rdata.rtype)
        node = self._nodes.setdefault(owner, {})
        rrset = node.get(rtype)
        if rrset is None:
            node[rtype] = RRset(owner, rtype, ttl, [rdata])
        else:
            rrset.rdatas.append(rdata)
        self._content_log.append((owner, rtype, ttl, rdata))
        self._content_key_cache = None
        return self

    @property
    def _content_key(self) -> bytes:
        key = self._content_key_cache
        if key is None:
            parts = [b"zone"]
            for owner, rtype, ttl, rdata in self._content_log:
                rdata_wire = rdata.to_wire(None, 0)
                parts += (owner.encode(),
                          int(rtype).to_bytes(2, "big"),
                          ttl.to_bytes(4, "big"),
                          len(rdata_wire).to_bytes(2, "big"), rdata_wire)
            self._content_key_cache = key = b"".join(parts)
        return key

    def add_address(self, name: Union[str, DNSName],
                    address: Union[str, IPAddress],
                    ttl: int = DEFAULT_TTL) -> "Zone":
        """Add an A or AAAA record depending on the address family."""
        return self.add(name, address_rdata(address), ttl)

    def add_addresses(self, name: Union[str, DNSName],
                      addresses: Iterable[Union[str, IPAddress]],
                      ttl: int = DEFAULT_TTL) -> "Zone":
        for address in addresses:
            self.add_address(name, address, ttl)
        return self

    def delegate(self, child: Union[str, DNSName],
                 ns_names: Iterable[Union[str, DNSName]],
                 glue: Optional[Dict[str, Iterable[Union[str, IPAddress]]]]
                 = None) -> "Zone":
        """Create a delegation (NS at the cut, optional glue addresses)."""
        child_name = self._as_name(child)
        for ns in ns_names:
            ns_name = self._as_name(ns) if isinstance(ns, str) else ns
            self.add(child_name, NS(ns_name))
        for ns_text, addresses in (glue or {}).items():
            glue_name = self._as_name(ns_text)
            if not glue_name.is_subdomain_of(child_name):
                raise NotInZoneError(
                    f"glue {glue_name} does not belong under {child_name}")
            for address in addresses:
                # Glue is stored at the node; lookup() only surfaces it
                # in the additional section of referrals.
                self.add_address(glue_name, address)
        return self

    # -- introspection -----------------------------------------------------------

    @property
    def names(self) -> List[DNSName]:
        return sorted(self._nodes)

    def rrset(self, name: Union[str, DNSName],
              rtype: RdataType) -> Optional[RRset]:
        return self._nodes.get(self._as_name(name), {}).get(rtype)

    def _delegation_cut(self, qname: DNSName) -> Optional[DNSName]:
        """Deepest delegation point strictly between origin and qname."""
        # Walk down from just below the apex toward qname.
        relative = qname.relativize(self.origin)
        current = self.origin
        for label in reversed(relative):
            current = current.prepend(label)
            if current == qname:
                node = self._nodes.get(current, {})
                if RdataType.NS in node and current != self.origin:
                    return current
                break
            node = self._nodes.get(current, {})
            if RdataType.NS in node and current != self.origin:
                return current
        return None

    def _has_descendants(self, qname: DNSName) -> bool:
        return any(name != qname and name.is_subdomain_of(qname)
                   for name in self._nodes)

    def _find_wildcard(self, qname: DNSName) -> Optional[Dict[RdataType,
                                                               RRset]]:
        """Closest-encloser wildcard node for ``qname``, if any."""
        candidate = qname
        while candidate != self.origin:
            candidate = candidate.parent()
            wildcard = candidate.prepend(b"*")
            node = self._nodes.get(wildcard)
            if node is not None:
                return node
            if candidate in self._nodes:
                # A closer non-wildcard ancestor exists; RFC 1034 stops
                # wildcard synthesis at the closest encloser.
                return None
        return None

    # -- lookup -------------------------------------------------------------------

    def lookup(self, qname: DNSName, qtype: RdataType) -> ZoneLookupResult:
        """Authoritative lookup per RFC 1034 §4.3.2 (simplified)."""
        if not qname.is_subdomain_of(self.origin):
            raise NotInZoneError(f"{qname} is not in zone {self.origin}")

        cut = self._delegation_cut(qname)
        if cut is not None and not (cut == qname and qtype is RdataType.NS):
            ns_rrset = self._nodes[cut][RdataType.NS]
            glue = self._collect_glue(ns_rrset)
            return ZoneLookupResult(LookupKind.REFERRAL,
                                    authority=[ns_rrset], glue=glue)

        node = self._nodes.get(qname)
        if node is None and not self._has_descendants(qname):
            node = self._find_wildcard(qname)
            if node is not None:
                node = {rtype: rrset.copy_at(qname)
                        for rtype, rrset in node.items()}

        if node is None:
            if self._has_descendants(qname):
                return self._nodata()
            return ZoneLookupResult(LookupKind.NXDOMAIN,
                                    authority=[self._soa_rrset()])

        cname = node.get(RdataType.CNAME)
        if cname is not None and qtype not in (RdataType.CNAME,
                                               RdataType.ANY):
            return ZoneLookupResult(LookupKind.CNAME, answers=[cname])

        if qtype is RdataType.ANY:
            rrsets = [rrset for rrset in node.values()]
            if rrsets:
                return ZoneLookupResult(LookupKind.ANSWER, answers=rrsets)
            return self._nodata()

        rrset = node.get(qtype)
        if rrset is None:
            return self._nodata()
        return ZoneLookupResult(LookupKind.ANSWER, answers=[rrset])

    def _nodata(self) -> ZoneLookupResult:
        return ZoneLookupResult(LookupKind.NODATA,
                                authority=[self._soa_rrset()])

    def _soa_rrset(self) -> RRset:
        return RRset(self.origin, RdataType.SOA, DEFAULT_TTL, [self.soa])

    def _collect_glue(self, ns_rrset: RRset) -> List[RRset]:
        glue: List[RRset] = []
        for ns_rdata in ns_rrset:
            target = ns_rdata.target  # type: ignore[attr-defined]
            node = self._nodes.get(target)
            if node is None:
                continue
            for rtype in (RdataType.A, RdataType.AAAA):
                rrset = node.get(rtype)
                if rrset is not None:
                    glue.append(rrset)
        return glue

    def __repr__(self) -> str:
        return f"<Zone {self.origin} nodes={len(self._nodes)}>"
