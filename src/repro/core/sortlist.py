"""Destination address ordering, RFC 6724 sortlists, connection history.

RFC 8305 §4 orders resolved addresses with the host's address selection
policy (RFC 6724) and allows clients to fold in "knowledge about
historical TCP round-trip times and previously used addresses"; this
module provides all three pieces:

* :class:`HistoryStore` — per-destination smoothed RTTs and last-used
  addresses with expiry (also feeds dynamic CAD, Safari-style),
* :func:`order_addresses` — family preference + history-aware ordering
  that keeps DNS order as the tiebreaker, optionally driven by an
  explicit RFC 6724 :class:`PolicyTable`,
* the per-OS policy tables themselves (:data:`POLICY_TABLES`) with
  scope comparison (:func:`scope_of`) and source selection
  (:func:`select_source`) — the machinery the ``SortingStage`` of a
  :class:`~repro.core.policy.PolicyStack` declares by name.

Documented per-table orderings (asserted by the regression tests) for
destinations answered in the order ULA, site-local, Teredo, 6to4,
global v6, IPv4 — equal precedences keep that answer order:

===========  ========================================================
Table        Ordering (first attempted → last)
===========  ========================================================
rfc6724      global v6 · v4 · 6to4 · Teredo · ULA · site-local
linux        global v6 · v4 · 6to4 · Teredo · ULA · site-local
windows      global v6 · v4 · 6to4 · Teredo · ULA · site-local
macos        global v6 · v4 · ULA · 6to4 · Teredo · site-local
rfc3484      ULA · site-local · Teredo · global v6 · 6to4 · v4
===========  ========================================================

RFC 3484's table has no ULA/site-local/Teredo entries, so they match
``::/0`` (precedence 40) and sort *above* IPv4 (whose mapped prefix
has precedence 10 there) — the classic pre-RFC 6724 behaviour the
sortlist scenario battery discriminates.  macOS demotes the
transitional 6to4/Teredo prefixes below native space ("avoid
transition technologies when native works").
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..memo import BoundedMemo
from ..simnet.addr import Family, IPAddress, family_of, parse_address

SRTT_SMOOTHING = 0.25  # weight of a fresh sample, TCP-style


@dataclass
class AddressHistory:
    """What a client remembers about one destination address."""

    srtt: Optional[float] = None
    successes: int = 0
    failures: int = 0
    last_outcome_at: float = 0.0

    def record_success(self, rtt: float, now: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
        else:
            self.srtt = ((1 - SRTT_SMOOTHING) * self.srtt
                         + SRTT_SMOOTHING * rtt)
        self.successes += 1
        self.last_outcome_at = now

    def record_failure(self, now: float) -> None:
        self.failures += 1
        self.last_outcome_at = now


class HistoryStore:
    """RTT and outcome history across destinations.

    ``max_age`` bounds how long an entry influences decisions; stale
    entries are treated as absent (the paper's clients reset state per
    test run, so tests exercise both fresh and expired paths).
    """

    def __init__(self, max_age: float = 600.0) -> None:
        self.max_age = max_age
        self._entries: Dict[IPAddress, AddressHistory] = {}

    def record_success(self, address: Union[str, IPAddress], rtt: float,
                       now: float) -> None:
        entry = self._entries.setdefault(parse_address(address),
                                         AddressHistory())
        entry.record_success(rtt, now)

    def record_failure(self, address: Union[str, IPAddress],
                       now: float) -> None:
        entry = self._entries.setdefault(parse_address(address),
                                         AddressHistory())
        entry.record_failure(now)

    def lookup(self, address: Union[str, IPAddress],
               now: float) -> Optional[AddressHistory]:
        entry = self._entries.get(parse_address(address))
        if entry is None:
            return None
        if now - entry.last_outcome_at > self.max_age:
            return None
        return entry

    def srtt(self, address: Union[str, IPAddress],
             now: float) -> Optional[float]:
        entry = self.lookup(address, now)
        return entry.srtt if entry is not None else None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------------
# RFC 6724 policy tables (per-OS sortlists)
# --------------------------------------------------------------------------


def _as_v6(address: IPAddress) -> "ipaddress.IPv6Address":
    """The RFC 6724 view of an address: IPv4 becomes IPv4-mapped."""
    if address.version == 4:
        return ipaddress.IPv6Address(b"\x00" * 10 + b"\xff\xff"
                                     + address.packed)
    return address  # type: ignore[return-value]


@dataclass(frozen=True)
class PolicyEntry:
    """One row of an RFC 6724 §2.1 policy table."""

    prefix: str
    precedence: int
    label: int

    @property
    def network(self) -> "ipaddress.IPv6Network":
        # Parsed once per entry: the sort runs per simulated connect,
        # so re-parsing the prefix string per match would dominate.
        # (__dict__ assignment is legal on a frozen dataclass and
        # invisible to field-based equality and canonical digests.)
        cached = self.__dict__.get("_network")
        if cached is None:
            cached = ipaddress.IPv6Network(self.prefix)
            self.__dict__["_network"] = cached
        return cached

    def matches(self, address: IPAddress) -> bool:
        return _as_v6(address) in self.network

    @property
    def prefix_len(self) -> int:
        return self.network.prefixlen


@dataclass(frozen=True)
class PolicyTable:
    """A named RFC 6724 policy table: longest-prefix entry lookup.

    Per-OS sortlists are instances of this class; a client's
    ``SortingStage`` names one, and :func:`order_addresses` consults it
    for destination precedence.  An unmatched address (impossible with
    the standard tables, which all carry a catch-all) ranks below every
    matched one.
    """

    name: str
    entries: Tuple[PolicyEntry, ...]

    def lookup(self, address: Union[str, IPAddress]) -> Optional[PolicyEntry]:
        """Longest-prefix match, RFC 6724 §2.1 (memoized per address —
        campaigns look the same few destinations up per connect)."""
        parsed = parse_address(address)
        memo = self.__dict__.get("_lookup_memo")
        if memo is None:
            memo = self.__dict__["_lookup_memo"] = BoundedMemo()
        if parsed in memo:
            return memo[parsed]
        best: Optional[PolicyEntry] = None
        for entry in self.entries:
            if entry.matches(parsed) and (
                    best is None or entry.prefix_len > best.prefix_len):
                best = entry
        return memo.put(parsed, best)

    def precedence(self, address: Union[str, IPAddress]) -> int:
        entry = self.lookup(address)
        return entry.precedence if entry is not None else -1

    def label(self, address: Union[str, IPAddress]) -> int:
        entry = self.lookup(address)
        return entry.label if entry is not None else -1

    def with_overrides(self, name: str,
                       *entries: PolicyEntry) -> "PolicyTable":
        """A derived table whose ``entries`` replace (by prefix) or
        extend this table's rows — the ``gai.conf``/"netsh prefixpolicy"
        override mechanism."""
        replaced = {entry.prefix: entry for entry in entries}
        merged = tuple(replaced.pop(row.prefix, row)
                       for row in self.entries) + tuple(replaced.values())
        return PolicyTable(name=name, entries=merged)


#: RFC 6724 §2.1 default policy table.
RFC6724_TABLE = PolicyTable("rfc6724", (
    PolicyEntry("::1/128", 50, 0),
    PolicyEntry("::/0", 40, 1),
    PolicyEntry("::ffff:0:0/96", 35, 4),
    PolicyEntry("2002::/16", 30, 2),
    PolicyEntry("2001::/32", 5, 5),
    PolicyEntry("fc00::/7", 3, 13),
    PolicyEntry("::/96", 1, 3),
    PolicyEntry("fec0::/10", 1, 11),
    PolicyEntry("3ffe::/16", 1, 12),
))

#: RFC 3484 §2.1 — the pre-2012 table legacy stacks still ship: no
#: ULA/site-local/Teredo rows (they match ``::/0``) and IPv4-mapped
#: space at precedence 10, i.e. below almost all IPv6.
RFC3484_TABLE = PolicyTable("rfc3484", (
    PolicyEntry("::1/128", 50, 0),
    PolicyEntry("::/0", 40, 1),
    PolicyEntry("2002::/16", 30, 2),
    PolicyEntry("::/96", 20, 3),
    PolicyEntry("::ffff:0:0/96", 10, 4),
))

#: glibc's default matches RFC 6724 row for row.
LINUX_TABLE = PolicyTable("linux", RFC6724_TABLE.entries)

#: Windows ships the RFC 6724 rows without the deprecated-space tail
#: (compatible-v4, site-local, 6bone fall back to the catch-all at
#: precedence 40 is *not* wanted, so the two low rows are kept).
WINDOWS_TABLE = PolicyTable("windows", (
    PolicyEntry("::1/128", 50, 0),
    PolicyEntry("::/0", 40, 1),
    PolicyEntry("::ffff:0:0/96", 35, 4),
    PolicyEntry("2002::/16", 30, 2),
    PolicyEntry("2001::/32", 5, 5),
    PolicyEntry("fc00::/7", 3, 13),
    PolicyEntry("fec0::/10", 1, 11),
    PolicyEntry("::/96", 1, 3),
))

#: Apple demotes transition technologies (6to4, Teredo) below native
#: and ULA space, and parks site-local at the very bottom.
MACOS_TABLE = RFC6724_TABLE.with_overrides(
    "macos",
    PolicyEntry("2002::/16", 2, 2),
    PolicyEntry("2001::/32", 1, 5),
    PolicyEntry("fec0::/10", 0, 11),
)

#: The registry of per-OS sortlists a ``SortingStage`` can name.
POLICY_TABLES: Dict[str, PolicyTable] = {
    table.name: table
    for table in (RFC6724_TABLE, RFC3484_TABLE, LINUX_TABLE,
                  WINDOWS_TABLE, MACOS_TABLE)
}


def policy_table(name: str) -> PolicyTable:
    """The named per-OS policy table, or KeyError listing the options."""
    try:
        return POLICY_TABLES[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_TABLES))
        raise KeyError(f"no policy table named {name!r} (known: {known})")


# -- scope comparison and source selection (RFC 6724 §3.1, §5) -------------

#: RFC 4007 scope values RFC 6724 compares.
SCOPE_INTERFACE_LOCAL = 0x1
SCOPE_LINK_LOCAL = 0x2
SCOPE_SITE_LOCAL = 0x5
SCOPE_GLOBAL = 0xE


def scope_of(address: Union[str, IPAddress]) -> int:
    """The RFC 6724 §3.1 scope of an address (IPv4 per its mapping
    rules: loopback and link-local 169.254/16 are link-local, the
    rest global)."""
    parsed = parse_address(address)
    if parsed.version == 4:
        if parsed in ipaddress.IPv4Network("169.254.0.0/16") \
                or parsed in ipaddress.IPv4Network("127.0.0.0/8"):
            return SCOPE_LINK_LOCAL
        return SCOPE_GLOBAL
    v6 = parsed
    if v6 == ipaddress.IPv6Address("::1"):
        return SCOPE_LINK_LOCAL  # RFC 6724 §3.1: loopback is link-local
    if v6 in ipaddress.IPv6Network("fe80::/10"):
        return SCOPE_LINK_LOCAL
    if v6 in ipaddress.IPv6Network("fec0::/10"):
        return SCOPE_SITE_LOCAL
    if v6.is_multicast:
        return int(v6.packed[1]) & 0x0F
    return SCOPE_GLOBAL


def common_prefix_len(a: Union[str, IPAddress],
                      b: Union[str, IPAddress]) -> int:
    """Length of the longest common prefix (RFC 6724 rule 8/9 input)."""
    left = int(_as_v6(parse_address(a)))
    right = int(_as_v6(parse_address(b)))
    return 128 - (left ^ right).bit_length()


def select_source(destination: Union[str, IPAddress],
                  sources: Sequence[Union[str, IPAddress]],
                  table: PolicyTable = RFC6724_TABLE
                  ) -> Optional[IPAddress]:
    """RFC 6724 §5 source selection (the rules the testbed exercises).

    Applied rules, in order: same family only; Rule 1 (prefer the
    destination itself), Rule 2 (prefer an appropriate scope — a
    source whose scope is >= the destination's, smallest such scope
    first), Rule 6 (prefer a source whose label matches the
    destination's — what keeps ULA talking to ULA while global space
    talks to global space), Rule 8 (longest common prefix), original
    order as the final tiebreaker.
    """
    dst = parse_address(destination)
    candidates = [parse_address(s) for s in sources
                  if family_of(parse_address(s)) is family_of(dst)]
    if not candidates:
        return None
    dst_scope = scope_of(dst)
    dst_label = table.label(dst)

    def rank(indexed):
        index, source = indexed
        src_scope = scope_of(source)
        scope_rank = ((0, src_scope) if src_scope >= dst_scope
                      else (1, -src_scope))
        return (
            0 if source == dst else 1,                      # rule 1
            scope_rank,                                     # rule 2
            0 if table.label(source) == dst_label else 1,   # rule 6
            -common_prefix_len(source, dst),                # rule 8
            index,
        )

    return min(enumerate(candidates), key=rank)[1]


# --------------------------------------------------------------------------
# destination ordering
# --------------------------------------------------------------------------


def order_addresses(addresses: Iterable[Union[str, IPAddress]],
                    preferred_family: Family = Family.V6,
                    history: Optional[HistoryStore] = None,
                    now: float = 0.0,
                    policy: Optional[PolicyTable] = None,
                    biased_family: Optional[Family] = None
                    ) -> List[IPAddress]:
    """Order candidate addresses for connection attempts.

    Without a ``policy`` table (the legacy family-preference sortlist),
    the rules in priority order are:

    1. addresses of ``preferred_family`` before the other family;
    2. within a family, addresses with a known-good history (lower
       smoothed RTT) first;
    3. addresses with recent failures last within their family;
    4. original DNS order as the final tiebreaker (stable sort).

    With a ``policy`` table the family-preference rule is replaced by
    RFC 6724 destination precedence (higher first; IPv4 ranks via its
    mapped prefix), with the same history rules and DNS-order
    tiebreaker below it.  ``biased_family`` — the RFC 6555 §4.1
    outcome-cache bias toward the family that last won — outranks the
    table in that mode, exactly as it overrides ``preferred_family``
    in the legacy mode.
    """
    parsed = [parse_address(a) for a in addresses]

    def history_key(address):
        srtt = None
        failures = 0
        if history is not None:
            entry = history.lookup(address, now)
            if entry is not None:
                srtt = entry.srtt
                failures = entry.failures if entry.successes == 0 else 0
        return (failures > 0, (1 if srtt is None else 0, srtt or 0.0))

    if policy is None:
        def sort_key(indexed):
            index, address = indexed
            family_rank = 0 if family_of(address) is preferred_family else 1
            failed, history_rank = history_key(address)
            return (family_rank, failed, history_rank, index)
    else:
        def sort_key(indexed):
            index, address = indexed
            biased_rank = (0 if biased_family is not None
                           and family_of(address) is biased_family else 1)
            failed, history_rank = history_key(address)
            return (biased_rank, -policy.precedence(address), failed,
                    history_rank, index)

    return [address for _, address in
            sorted(enumerate(parsed), key=sort_key)]
