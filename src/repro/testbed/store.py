"""Content-addressed on-disk cache for campaign runs.

The paper's methodology is brute-force scale — thousands of isolated
``(case, client, value_ms, repetition)`` runs per figure — and every
run is a *pure function* of its coordinates and configuration: the
testbed is rebuilt from a stable seed, the client profile and test
case are frozen dataclasses, and the simulator is deterministic.  That
purity makes runs perfectly cacheable: re-rendering a figure with an
unchanged configuration can skip every run it already executed.

:class:`CampaignStore` is that cache.  Entries are addressed by a
SHA-256 digest over the *content* of everything that can influence a
run — the stable run seed, the full test-case and client-profile
configuration (via :func:`canonical`), and the run coordinates — so
any configuration change, however small, misses cleanly instead of
serving stale results.  Entries are newline-delimited JSON records,
appended to one pack file per shard (``root/<key[:2]>.pack``) with a
single ``O_APPEND`` write that carries the completeness marker, and
validated on read; torn, corrupted or partial records are treated as
misses and fall back to fresh execution.

The cache is derived data.  A directory written by the retired
one-JSON-file-per-entry layout (``root/<xx>/<key>.json``) simply reads
as all misses, and :meth:`CampaignStore.gc` reclaims its files.

Cache hits are **byte-identical** to fresh execution: records
round-trip through JSON exactly (Python's ``repr``-based float
serialization round-trips), which the store tests enforce the same
way the serial==parallel identity is enforced today.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, TYPE_CHECKING, Tuple, TypeVar, Union)

from .. import __version__
from ..seeding import render_part
from ..simnet.addr import Family
from ..simnet.packet import Protocol
from .config import TestCaseKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import RunRecord

#: Bump when the entry layout or record encoding changes; old entries
#: then read as invalid and re-execute instead of mis-decoding.
#: Format 2: records carry the policy-stage observables
#: (winning_protocol, queried_https, attempts_quic, first_attempt_port).
STORE_FORMAT = 2

#: Bump when the sidecar offset index layout changes; old sidecars then
#: read as unusable and the pack is rescanned (the packs remain the
#: source of truth either way).  Sidecars are only trusted when their
#: stamped generation matches the shard's counter, which every pack
#: rewrite (compaction, gc) bumps.
INDEX_FORMAT = 2

#: Folded into every cache key alongside the configuration digest:
#: caching is only sound while the *code* producing a run is unchanged,
#: so a package upgrade (which may change simulator or client-model
#: behavior) must miss instead of serving the old model's results.
BEHAVIOR_VERSION = __version__

Decoded = TypeVar("Decoded")


#: One renderer per concrete type, built on first sight of the type.
_RENDERERS: "Dict[type, Callable[[Any], str]]" = {}


def canonical(obj: Any) -> str:
    """A deterministic, content-complete rendering of ``obj``.

    Like :func:`repro.seeding.stable_run_seed`'s canonical form, but
    recursive: dataclasses render field-by-field, enums by class and
    member name, containers element-wise, and primitives type-tagged —
    so two configurations render identically iff every field that can
    influence a run is identical.  Store keys are digests of this
    text, so it is a persistence format: it must never change.
    """
    render = _RENDERERS.get(type(obj))
    if render is None:
        render = _RENDERERS[type(obj)] = _renderer_for(type(obj))
    return render(obj)


def _renderer_for(cls: type) -> "Callable[[Any], str]":
    """The renderer of ``cls``'s instances, in precedence order:
    class objects, enums, dataclasses, sequences, mappings, sets,
    primitives."""
    if issubclass(cls, type):
        return render_part
    if issubclass(cls, enum.Enum):
        names = {member: f"{cls.__name__}.{member.name}"
                 for member in cls.__members__.values()}
        return lambda member: (names.get(member)
                               or f"{cls.__name__}.{member.name}")
    if dataclasses.is_dataclass(cls):
        head = f"{cls.__name__}("
        labels = tuple((f.name, f"{f.name}=")
                       for f in dataclasses.fields(cls))
        return lambda obj: head + ",".join(
            [label + canonical(getattr(obj, name))
             for name, label in labels]) + ")"
    if issubclass(cls, (list, tuple)):
        return lambda items: "[" + ",".join(map(canonical, items)) + "]"
    if issubclass(cls, dict):
        return lambda mapping: "{" + ",".join(
            f"{k}:{v}" for k, v in sorted(
                (canonical(k), canonical(v))
                for k, v in mapping.items())) + "}"
    if issubclass(cls, (set, frozenset)):
        # Sorted by element rendering: a set's repr order follows
        # string hashes, which PYTHONHASHSEED salts per interpreter.
        head = f"{cls.__name__}{{"
        return lambda items: head + ",".join(
            sorted(map(canonical, items))) + "}"
    return render_part


def config_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    blob = canonical(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- record (de)serialization --------------------------------------------------


def encode_record(record: "RunRecord") -> dict:
    """A JSON-shaped dict from which :func:`decode_record` rebuilds
    an identical (``==``) :class:`~repro.testbed.runner.RunRecord`."""
    return {
        "case": record.case,
        "kind": record.kind.value,
        "client": record.client,
        "value_ms": record.value_ms,
        "repetition": record.repetition,
        "completed": record.completed,
        "error": record.error,
        "winning_family": (record.winning_family.name
                           if record.winning_family is not None else None),
        "winning_protocol": (record.winning_protocol.value
                             if record.winning_protocol is not None
                             else None),
        "cad_s": record.cad_s,
        "rd_s": record.rd_s,
        "time_to_first_attempt_s": record.time_to_first_attempt_s,
        "aaaa_first": record.aaaa_first,
        "queried_https": record.queried_https,
        "attempts": [[timestamp, family.name]
                     for timestamp, family in record.attempts],
        "attempts_v4": record.attempts_v4,
        "attempts_v6": record.attempts_v6,
        "attempts_quic": record.attempts_quic,
        "first_attempt_port": record.first_attempt_port,
        "duration_s": record.duration_s,
    }


def decode_record(data: dict) -> "RunRecord":
    """Rebuild a :class:`RunRecord`; raises on any malformed entry."""
    from .runner import RunRecord

    def opt_float(value: Any) -> Optional[float]:
        return None if value is None else float(value)

    return RunRecord(
        case=data["case"],
        kind=TestCaseKind(data["kind"]),
        client=data["client"],
        value_ms=int(data["value_ms"]),
        repetition=int(data["repetition"]),
        completed=bool(data["completed"]),
        error=data["error"],
        winning_family=(Family[data["winning_family"]]
                        if data["winning_family"] is not None else None),
        winning_protocol=(Protocol(data["winning_protocol"])
                          if data.get("winning_protocol") is not None
                          else None),
        cad_s=opt_float(data["cad_s"]),
        rd_s=opt_float(data["rd_s"]),
        time_to_first_attempt_s=opt_float(data["time_to_first_attempt_s"]),
        aaaa_first=data["aaaa_first"],
        queried_https=bool(data.get("queried_https", False)),
        attempts=[(float(timestamp), Family[family])
                  for timestamp, family in data["attempts"]],
        attempts_v4=int(data["attempts_v4"]),
        attempts_v6=int(data["attempts_v6"]),
        attempts_quic=int(data.get("attempts_quic", 0)),
        first_attempt_port=(int(data["first_attempt_port"])
                            if data.get("first_attempt_port") is not None
                            else None),
        duration_s=opt_float(data["duration_s"]),
    )


# -- the store -----------------------------------------------------------------


@dataclass
class CacheStats:
    """Lookup counters for one store handle (reset per handle)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    #: Content-invalid records copied aside to ``.quarantine/`` (a
    #: subset of ``invalid``: an unreadable pack proves nothing).
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def entries_invalid(self) -> int:
        """Corrupt/partial entries rejected on read (alias of
        ``invalid`` under the name the ``[cache]`` line reports)."""
        return self.invalid

    def merge(self, other: "CacheStats") -> None:
        """Fold counters from another handle in (e.g. a worker's
        pickled store copy) so campaign totals stay truthful."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.invalid += other.invalid
        self.quarantined += other.quarantined

    def summary(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"stores={self.stores} entries_invalid={self.invalid} "
                f"quarantined={self.quarantined}")


@dataclass
class GCStats:
    """Outcome of one :meth:`CampaignStore.gc` sweep."""

    kept: int = 0
    kept_bytes: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    removed_tmp: int = 0
    removed_index: int = 0

    def summary(self) -> str:
        return (f"kept={self.kept} ({self.kept_bytes} B) "
                f"removed={self.removed} tmp={self.removed_tmp} "
                f"reclaimed={self.reclaimed_bytes} B")


#: ``sort_keys`` puts ``"key"`` right after the complete/format markers,
#: so it always lands in the first ~60 bytes of a record line; searching
#: a bounded prefix keeps the scan O(entries), not O(bytes).
_PACK_KEY_RE = re.compile(rb'"key": "([0-9a-f]{64})"')
_PACK_KEY_WINDOW = 160

_INVALID = object()  # "bytes present but not a valid entry"

#: Appends go through a read-write descriptor so the writer can probe
#: a foreign torn tail (``pread``) on the descriptor that heals it.
_APPEND_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT


def _parse_line(raw: bytes) -> Any:
    try:
        return json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return _INVALID


def _entry_payload(key: str, data: Any) -> Any:
    """The payload of a complete, current-format record for ``key``."""
    if (isinstance(data, dict) and data.get("format") == STORE_FORMAT
            and data.get("complete") is True
            and data.get("key") == key and "payload" in data):
        return data["payload"]
    return _INVALID


def _decode_entry(key: str, data: Any,
                  decode: "Callable[[Any], Decoded]") -> Any:
    payload = _entry_payload(key, data)
    if payload is _INVALID:
        return _INVALID
    try:
        return decode(payload)
    except Exception:
        return _INVALID


def _atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temp file in the same
    directory (created when missing): readers see the old bytes or the
    new ones, never a torn file."""
    try:
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        prefix=".tmp-", suffix=path.suffix)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CampaignStore:
    """Content-addressed cache of campaign run results, packed per shard.

    An entry's key is :meth:`key` over the run seed, configuration
    digest and run coordinates; its shard is the key's first two hex
    digits.  Each shard is one append-only ``root/<shard>.pack`` of
    newline-delimited entry records, so a million entries are 256
    files, not a million.  A handle keeps an in-memory ``key ->
    (offset, length)`` map per shard, and a sidecar offset index
    (``root/.index/<shard>.json``) lets a fresh handle warm up with one
    index read instead of a full scan.

    Durability model: records are appended with the completeness marker
    in the same single ``write``; a writer that dies mid-append leaves a
    *torn tail* — a final line with no newline — which the scanner
    refuses to index and the next append heals by prefixing a newline
    (the torn bytes become one dead, never-indexed line).  Superseding
    writes and quarantined records leave dead bytes behind; they are
    tracked per shard and reclaimed by :meth:`compact_shard` or
    :meth:`gc`.

    Handles are not internally locked: callers that share one handle
    across threads must serialize access (the campaign service's tiered
    store does).  Cross-process appends are safe — ``O_APPEND`` writes
    are atomic for record-sized lines, each record's offset is read back
    from its own descriptor, and every read reconciles the in-memory
    map with whatever bytes other writers appended.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        #: Chaos harness hook (:class:`~repro.faults.FaultPlan`): when
        #: set, targeted reads raise-as-miss and targeted writes tear,
        #: exactly as crashing hardware would.  None in production.
        self.fault_plan = None
        #: Full pack scans for want of a usable sidecar index.
        self.index_rebuilds = 0
        #: Per-shard scan state: ``offsets`` (key -> (offset, length)),
        #: ``scanned`` (bytes covered by complete lines), ``size`` (the
        #: known end of the pack; ``[scanned, size)`` never holds a
        #: newline, so it is empty or a torn tail), ``dead``
        #: (superseded/quarantined bytes), ``generation`` (counter at
        #: scan time), ``dirty`` (offsets ahead of the sidecar index).
        self._packs: "Dict[str, dict]" = {}
        self._prefix = os.path.join(os.fspath(self.root), "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignStore({str(self.root)!r}, {self.stats.summary()})"

    # -- addressing ------------------------------------------------------------

    @staticmethod
    def key(*parts: Any) -> str:
        """The content address of an entry: a digest over ``parts``
        plus the store format and package behavior version."""
        return config_digest(STORE_FORMAT, BEHAVIOR_VERSION, *parts)

    @staticmethod
    def keyer(*prefix: Any) -> "Callable[..., str]":
        """:meth:`key` for keys sharing ``prefix``, rendered once; the
        function returned takes the canonical texts of the other parts:
        ``keyer(*prefix)(*map(canonical, rest)) == key(*prefix, *rest)``
        for a non-empty ``rest``."""
        # The canonical text of the full tuple, minus its closing "]".
        head = canonical((STORE_FORMAT, BEHAVIOR_VERSION) + prefix)[:-1]

        def key(*rendered: str) -> str:
            text = f"{head},{','.join(rendered)}]"
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        return key

    def _pack_path(self, shard: str) -> str:
        return f"{self._prefix}{shard}.pack"

    def _index_path(self, shard: str) -> Path:
        """Sidecar offset index of one shard, next to the shard's
        generation counter (``root/.index/<shard>.gen``)."""
        return self.root / ".index" / f"{shard}.json"

    def _generation_path(self, shard: str) -> Path:
        return self.root / ".index" / f"{shard}.gen"

    def shards(self) -> "List[str]":
        """Every shard that currently has a pack."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.pack")
                      if not path.name.startswith(".tmp-"))

    # -- generation counter ----------------------------------------------------

    def _generation(self, shard: str) -> int:
        """The shard's current generation (0 before any rewrite)."""
        try:
            return int(self._generation_path(shard)
                       .read_text(encoding="ascii"))
        except (OSError, ValueError):
            return 0

    def _bump_generation(self, shard: str) -> int:
        """Advance the shard's generation counter (pack rewrites), so
        every sidecar and every other handle's scan state reads as
        stale.  Persisted atomically: never a torn read.
        """
        generation = self._generation(shard) + 1
        try:
            _atomic_write(self._generation_path(shard),
                          str(generation).encode("ascii"))
        except OSError:
            pass  # an unbumped counter degrades to an offset check
        return generation

    # -- scan / reconcile ------------------------------------------------------

    @staticmethod
    def _fresh_state(generation: int) -> dict:
        return {"offsets": {}, "scanned": 0, "size": 0, "dead": 0,
                "generation": generation, "dirty": False}

    def _scan_pack(self, shard: str, state: dict, start: int) -> None:
        """Index every complete line from byte ``start`` to EOF.

        Lines without an extractable key (healed torn tails, corrupt
        appends) become dead bytes; duplicate keys keep the *last*
        occurrence (append order is supersede order).  A trailing
        fragment with no newline is left unscanned — ``scanned`` stops
        at the last complete line, so the fragment is retried on the
        next reconcile and healed by the next append.
        """
        try:
            with open(self._pack_path(shard), "rb") as handle:
                handle.seek(start)
                data = handle.read()
        except OSError:
            return
        offsets = state["offsets"]
        pos = 0
        while True:
            newline = data.find(b"\n", pos)
            if newline < 0:
                break
            length = newline + 1 - pos
            match = _PACK_KEY_RE.search(
                data, pos, min(newline, pos + _PACK_KEY_WINDOW))
            if match is not None:
                key = match.group(1).decode("ascii")
                span = (start + pos, length)
                old = offsets.get(key)
                # A rescan of this handle's own append finds the span
                # it already holds: not a supersede.
                if old is not None and old != span:
                    state["dead"] += old[1]
                offsets[key] = span
            else:
                state["dead"] += length
            pos = newline + 1
        state["scanned"] = start + pos
        state["size"] = start + len(data)

    def _load_pack_index(self, shard: str, generation: int,
                         size: int) -> Optional[dict]:
        """The sidecar offset index, when it is provably usable.

        ``generation`` must match the shard's counter (compaction and
        gc bump it) and the stamped ``pack_size`` must not exceed the
        actual file (appends since the stamp are fine — the scanner
        resumes from ``pack_size``; a *shorter* file means a rewrite
        the counter somehow missed, so the index is ignored)."""
        try:
            data = json.loads(self._index_path(shard)
                              .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(data, dict)
                or data.get("index_format") != INDEX_FORMAT
                or data.get("store_format") != STORE_FORMAT
                or data.get("layout") != "packed"
                or data.get("generation") != generation
                or not isinstance(data.get("pack_size"), int)
                or data["pack_size"] > size
                or not isinstance(data.get("offsets"), dict)):
            return None
        return data

    def _ensure_shard(self, shard: str) -> Optional[dict]:
        """Reconcile the in-memory state with the pack file; None when
        the shard has no pack."""
        try:
            size = os.stat(self._pack_path(shard)).st_size
        except OSError:
            self._packs.pop(shard, None)
            return None
        generation = self._generation(shard)
        state = self._packs.get(shard)
        if state is not None and state["generation"] == generation:
            if size < state["scanned"]:
                state = None  # rewritten out-of-band: full rescan
            elif size > state["scanned"]:
                scanned = state["scanned"]
                self._scan_pack(shard, state, scanned)
                if state["scanned"] != scanned:
                    state["dirty"] = True
                return state
            else:
                state["size"] = size
                return state
        state = self._fresh_state(generation)
        sidecar = self._load_pack_index(shard, generation, size)
        if sidecar is not None:
            state["offsets"] = {
                key: (int(span[0]), int(span[1]))
                for key, span in sidecar["offsets"].items()}
            state["scanned"] = state["size"] = sidecar["pack_size"]
            state["dead"] = int(sidecar.get("dead", 0))
        if state["scanned"] < size:
            if state["scanned"] == 0:
                self.index_rebuilds += 1  # a full scan is the rebuild
            self._scan_pack(shard, state, state["scanned"])
            state["dirty"] = True
        self._packs[shard] = state
        return state

    def _flush_pack_index(self, shard: str, state: dict) -> None:
        """Persist a dirty shard's offsets (once per batch read, not
        once per write) so later handles skip the scan."""
        if not state["dirty"]:
            return
        index = {"index_format": INDEX_FORMAT,
                 "store_format": STORE_FORMAT,
                 "layout": "packed",
                 "generation": state["generation"],
                 "pack_size": state["scanned"],
                 "dead": state["dead"],
                 "offsets": state["offsets"]}
        try:
            # One-shot dumps runs the C encoder; json.dump would not.
            _atomic_write(self._index_path(shard),
                          json.dumps(index, sort_keys=True).encode("ascii"))
        except OSError:
            return  # an unwritable index is a perf loss, not an error
        state["dirty"] = False

    # -- reads -----------------------------------------------------------------

    def has(self, key: str) -> bool:
        """Whether the shard's offset map holds ``key`` — it does
        **not** validate the record or touch the counters.  Use for
        planning only; :meth:`get` remains the authority."""
        state = self._ensure_shard(key[:2])
        return state is not None and key in state["offsets"]

    def _maybe_read_fault(self, key: str) -> bool:
        """Chaos-only: whether an injected transient read error fires
        for ``key`` (the caller counts it as an invalid miss)."""
        plan = self.fault_plan
        if plan is None:
            return False
        return plan.store_fault("read", key) is not None

    def get(self, key: str,
            decode: "Callable[[Any], Decoded]") -> Optional[Decoded]:
        """Decoded payload for ``key``, or None (counted as a miss);
        :meth:`get_many` of one key."""
        return self.get_many((key,), decode).get(key)

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        """Batch lookup: decoded payloads for every key that hits.

        Keys are grouped by shard; each touched shard reconciles its
        offset map once (sidecar index, then a scan of any bytes
        appended since) and resolves its keys from the pack.  Keys
        absent from the result are misses.  Unreadable packs count as
        ``invalid`` misses; records whose *content* is bad (torn JSON,
        wrong format or key, no completeness marker, undecodable
        payload) are additionally quarantined: copied to
        ``root/.quarantine/<shard>/<key>.json`` and dropped from the
        offset map, so the slot frees up for the re-executed append and
        the bytes survive for forensics.
        """
        out: "Dict[str, Decoded]" = {}
        by_shard: "Dict[str, List[str]]" = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        for shard, shard_keys in by_shard.items():
            state = self._ensure_shard(shard)
            if state is None:
                state = self._fresh_state(0)
            else:
                self._flush_pack_index(shard, state)
            self._resolve_shard(shard, state, shard_keys, decode, out)
        return out

    def _resolve_shard(self, shard: str, state: dict, keys: "List[str]",
                       decode: "Callable[[Any], Decoded]",
                       out: "Dict[str, Decoded]") -> None:
        stats = self.stats
        offsets = state["offsets"]
        wanted = sum(offsets[key][1] for key in keys if key in offsets)
        buffer: bytes = b""
        rows: "Dict[int, Any]" = {}
        if wanted and wanted * 2 >= state["size"]:
            # Dense: the wanted records are at least half of the pack,
            # so one read and one bulk parse beat a seek and a parse
            # per key.
            buffer, rows = self._read_pack(shard)
        handle: Any = None
        try:
            for key in keys:
                if self._maybe_read_fault(key):
                    stats.invalid += 1
                    stats.misses += 1
                    continue
                span = offsets.get(key)
                if span is None:
                    stats.misses += 1
                    continue
                start, length = span
                if start + length <= len(buffer):
                    raw = buffer[start:start + length]
                else:
                    try:
                        if handle is None:
                            handle = open(self._pack_path(shard), "rb")
                        handle.seek(start)
                        raw = handle.read(length)
                    except OSError:
                        stats.invalid += 1
                        stats.misses += 1
                        continue
                value = _decode_entry(
                    key, rows[start] if start in rows else _parse_line(raw),
                    decode)
                if value is _INVALID:
                    self._quarantine(key, shard, raw, state)
                    stats.invalid += 1
                    stats.misses += 1
                    continue
                stats.hits += 1
                out[key] = value
        finally:
            if handle is not None:
                handle.close()

    def _read_pack(self, shard: str) -> "Tuple[bytes, Dict[int, Any]]":
        """The whole pack and, when it parses cleanly as one JSON array
        (2-3x cheaper than a ``json.loads`` per line), each line's
        record keyed by its start offset.  Canonical lines never contain
        raw newline bytes (``json.dumps`` escapes them), so newline
        really is the record separator.  Any anomaly — torn tail, healed
        junk, foreign bytes — fails the array parse (or the one record
        per line count) and leaves the rows empty: the caller then
        parses each wanted slice on its own."""
        try:
            with open(self._pack_path(shard), "rb") as handle:
                buffer = handle.read()
        except OSError:
            return b"", {}
        stripped = buffer.rstrip(b"\n")
        if not stripped or buffer[-1:] != b"\n":
            return buffer, {}
        lines = stripped.split(b"\n")
        try:
            parsed = json.loads(b"[" + b",".join(lines) + b"]")
        except ValueError:
            return buffer, {}
        if len(parsed) != len(lines):
            return buffer, {}
        rows: "Dict[int, Any]" = {}
        position = 0
        for line, record in zip(lines, parsed):
            rows[position] = record
            position += len(line) + 1
        return buffer, rows

    def _quarantine(self, key: str, shard: str, raw: bytes,
                    state: dict) -> None:
        """Copy a content-invalid record to ``root/.quarantine/``.

        Leaving it indexed would make every future campaign re-reject
        it; dropping it silently would destroy the evidence.  The bytes
        cannot move out of the pack, so they are *copied* to quarantine
        and dropped from the offset map — the slot frees up for the
        re-executed append and the dead bytes wait for compaction.  GC
        never touches quarantine, so the evidence outlives sweeps until
        an operator removes it.
        """
        dest = self.root / ".quarantine" / shard / f"{key}.json"
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(raw)
        except OSError:
            return  # can't copy it: degrade to a plain invalid miss
        self.stats.quarantined += 1
        span = state["offsets"].pop(key, None)
        if span is not None:
            state["dead"] += span[1]
        state["dirty"] = True

    def get_many_records(self, keys: "Iterable[str]"
                         ) -> "Dict[str, RunRecord]":
        return self.get_many(keys, decode_record)

    # -- RunRecord convenience -------------------------------------------------

    def get_record(self, key: str) -> "Optional[RunRecord]":
        return self.get(key, decode_record)

    def put_record(self, key: str, record: "RunRecord") -> None:
        self.put(key, encode_record(record))

    # -- writes ----------------------------------------------------------------

    def _open_pack(self, shard: str) -> int:
        path = self._pack_path(shard)
        try:
            return os.open(path, _APPEND_FLAGS, 0o644)
        except FileNotFoundError:
            # The root: created on a handle's first write (again if
            # something removed it since).
            os.makedirs(self.root, exist_ok=True)
            return os.open(path, _APPEND_FLAGS, 0o644)

    def put(self, key: str, payload: Any) -> None:
        """Persist ``payload`` (JSON-serializable) under ``key``: one
        ``O_APPEND`` write of the record line, completeness marker
        included, so a torn write can never read as a valid entry.

        The hot path does not reconcile with the pack: the descriptor's
        size tells whether another writer appended since this handle
        last looked, and only then is the last byte read to see if a
        torn tail needs healing.  Reads reconcile the rest.
        """
        plan = self.fault_plan
        if plan is not None:
            spec = plan.store_fault("write", key)
            if spec is not None:
                self._faulted_write(key, spec, payload)
                return
        shard = key[:2]
        state = self._packs.get(shard)
        if state is None:
            # First write to this shard through this handle: index what
            # the pack already holds (nothing, on a cold campaign).
            state = self._ensure_shard(shard)
            if state is None:
                state = self._packs[shard] = self._fresh_state(
                    self._generation(shard))
        line = (json.dumps({"complete": True, "format": STORE_FORMAT,
                            "key": key, "payload": payload},
                           sort_keys=True) + "\n").encode("utf-8")
        fd = self._open_pack(shard)
        try:
            size = os.fstat(fd).st_size
            if size == state["size"]:
                torn = size > state["scanned"]
            else:
                torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
            buf = b"\n" + line if torn else line
            if os.write(fd, buf) != len(buf):
                raise OSError(f"short store write ({key[:12]}...)")
            # O_APPEND leaves the fd positioned at the end of *our*
            # write even when another process appended in between, so
            # the record's true offset is exact, not assumed.
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        start = end - len(line)
        offsets = state["offsets"]
        old = offsets.get(key)
        if old is not None:
            state["dead"] += old[1]
        offsets[key] = (start, len(line))
        if size == state["size"] and start == size + torn:
            # Nobody slipped in: the healed torn bytes (if any) are one
            # dead line and the scan frontier advances past us.
            state["dead"] += start - state["scanned"]
            state["scanned"] = state["size"] = end
        else:
            # Foreign bytes precede the record: the next read's
            # reconcile scans them (and re-finds this record).
            state["size"] = state["scanned"]
        state["dirty"] = True
        self.stats.stores += 1

    def _faulted_write(self, key: str, spec, payload: Any) -> None:
        """Chaos-only: what a dying writer leaves behind.

        ``io-error`` raises before touching disk (a full filesystem, a
        yanked mount).  ``corrupt`` appends a truncated record with
        **no newline** — a torn tail, healed by the next append and
        never indexed, so it reads as a plain miss.  ``partial``
        appends a structurally valid line with no completeness marker,
        which scans into the offset map and is quarantined on first
        read.  Neither touches this handle's scan state: the next write
        detects the foreign bytes like anyone else's.
        """
        from ..faults import FaultKind

        if spec.kind is FaultKind.IO_ERROR:
            raise OSError(f"injected store write error ({key[:12]}...)")
        if spec.kind is FaultKind.CORRUPT_WRITE:
            buf = b'{"complete": tru'
        else:  # PARTIAL_WRITE
            buf = (json.dumps({"format": STORE_FORMAT, "key": key,
                               "payload": payload}, sort_keys=True)
                   + "\n").encode("utf-8")
        fd = self._open_pack(key[:2])
        try:
            os.write(fd, buf)
        finally:
            os.close(fd)
        # The writer believed it stored the entry — count it so the
        # chaos battery can see the lie in the counters.
        self.stats.stores += 1

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> "Iterator[Tuple[str, Path]]":
        """Every indexed ``(key, pack path)``, in shard then key order."""
        for shard in self.shards():
            state = self._ensure_shard(shard)
            if state is None:
                continue
            path = Path(self._pack_path(shard))
            for key in sorted(state["offsets"]):
                yield key, path

    def shard_payloads(self, shard: str) -> "Dict[str, Any]":
        """Every valid payload of one shard, keyed by entry key — the
        bulk-preload primitive hot-shard rebalancing uses.  Does not
        touch the lookup counters."""
        state = self._ensure_shard(shard)
        if state is None:
            return {}
        buffer, rows = self._read_pack(shard)
        out: "Dict[str, Any]" = {}
        for key, (start, length) in sorted(state["offsets"].items()):
            data = (rows[start] if start in rows
                    else _parse_line(buffer[start:start + length]))
            payload = _entry_payload(key, data)
            if payload is not _INVALID:
                out[key] = payload
        return out

    def dead_bytes(self, shard: str) -> int:
        state = self._ensure_shard(shard)
        return 0 if state is None else state["dead"]

    def pack_size(self, shard: str) -> int:
        state = self._ensure_shard(shard)
        return 0 if state is None else state["size"]

    def _rewrite_pack(self, shard: str, keys: "List[str]",
                      state: dict) -> "Tuple[int, int]":
        """Rewrite one pack keeping exactly ``keys`` (slice-for-slice,
        so surviving records stay byte-identical); returns
        ``(old_size, new_size)``.  An empty keep-set unlinks the pack.
        The rewrite is atomic (temp + replace) and bumps the shard
        generation so every sidecar and foreign handle rescans."""
        path = self._pack_path(shard)
        old_size = state["size"]
        if not keys:
            try:
                os.unlink(path)
            except OSError:
                pass
            self._packs.pop(shard, None)
            self._bump_generation(shard)
            return old_size, 0
        with open(path, "rb") as handle:
            buffer = handle.read()
        new_state = self._fresh_state(0)
        slices: "List[bytes]" = []
        offset = 0
        for key in keys:
            start, length = state["offsets"][key]
            slices.append(buffer[start:start + length])
            new_state["offsets"][key] = (offset, length)
            offset += length
        _atomic_write(Path(path), b"".join(slices))
        new_state["generation"] = self._bump_generation(shard)
        new_state["scanned"] = new_state["size"] = offset
        new_state["dirty"] = True
        self._packs[shard] = new_state
        self._flush_pack_index(shard, new_state)
        return old_size, offset

    def compact_shard(self, shard: str) -> int:
        """Drop a shard's dead bytes (superseded and quarantined
        records, healed torn tails); returns the bytes reclaimed.
        This is the background half of hot-shard rebalancing."""
        state = self._ensure_shard(shard)
        if state is None or (state["dead"] == 0
                             and state["scanned"] == state["size"]):
            return 0
        keys = sorted(state["offsets"])
        old_size, new_size = self._rewrite_pack(shard, keys, state)
        return old_size - new_size

    def gc(self, live_keys: "Iterable[str]",
           dry_run: bool = False) -> GCStats:
        """Drop every entry whose key is not in ``live_keys``.

        Content-addressed entries accumulate forever: any sweep, seed,
        profile, or package-version change strands the old digests.  GC
        is a mark-and-sweep — the caller enumerates the keys its current
        campaigns reference (see ``TestRunner.store_keys``) and each
        pack is *rewritten* keeping only live records (byte-identical
        slices); a shard whose records are all live and dead-byte-free
        is left untouched.  Stale ``.tmp-*`` droppings go, and so do
        sidecars that can no longer be served (their pack is gone, or
        they are stale, corrupt, or in another layout's shape).  What
        the retired one-file-per-entry layout left behind is reclaimed
        too: ``<xx>/<key>.json`` entries (counted as removed) and their
        ``.tmp-*`` files.  ``.quarantine`` and ``.journal`` survive:
        quarantined evidence and resume state are not cache entries.
        Run it offline: a writer racing the sweep would only lose cache
        entries (and re-execute), never correctness.

        ``dry_run=True`` returns the same accounting without touching
        anything: a rewrite emits exactly the live slices, so the
        reclaimable bytes of an unclean shard are computable as
        ``current pack size - live slice bytes`` up front.  The only
        divergence from a real sweep is sidecars of packs the sweep
        *would have* emptied — counted by the real pass only.
        """
        live = set(live_keys)
        stats = GCStats()
        if not self.root.is_dir():
            return stats
        for shard in self.shards():
            state = self._ensure_shard(shard)
            if state is None:
                continue
            offsets = state["offsets"]
            kept_keys = sorted(key for key in offsets if key in live)
            removed = len(offsets) - len(kept_keys)
            kept_bytes = sum(offsets[key][1] for key in kept_keys)
            stats.kept += len(kept_keys)
            stats.kept_bytes += kept_bytes
            if (removed == 0 and state["dead"] == 0
                    and state["scanned"] == state["size"]):
                continue
            stats.removed += removed
            if dry_run:
                stats.reclaimed_bytes += state["size"] - kept_bytes
                continue
            old_size, new_size = self._rewrite_pack(shard, kept_keys, state)
            stats.reclaimed_bytes += old_size - new_size
        for child in sorted(self.root.iterdir()):
            if child.name.startswith(".tmp-") and child.is_file():
                self._sweep_file(child, stats, dry_run)
                stats.removed_tmp += 1
            elif len(child.name) == 2 and child.is_dir():
                self._sweep_legacy_shard(child, stats, dry_run)
        index_dir = self.root / ".index"
        if index_dir.is_dir():
            for index_file in sorted(index_dir.iterdir()):
                shard, _, suffix = index_file.name.partition(".")
                if not shard:  # a crashed index writer's temp file
                    self._sweep_file(index_file, stats, dry_run)
                    stats.removed_tmp += 1
                elif not os.path.isfile(self._pack_path(shard)) or (
                        suffix == "json" and not self._sidecar_usable(shard)):
                    self._sweep_file(index_file, stats, dry_run)
                    stats.removed_index += 1
            if not dry_run:
                try:
                    index_dir.rmdir()  # only succeeds when emptied
                except OSError:
                    pass
        return stats

    def _sidecar_usable(self, shard: str) -> bool:
        state = self._ensure_shard(shard)
        return state is not None and self._load_pack_index(
            shard, state["generation"], state["size"]) is not None

    @staticmethod
    def _sweep_file(path: Path, stats: GCStats, dry_run: bool) -> None:
        stats.reclaimed_bytes += path.stat().st_size
        if not dry_run:
            path.unlink()

    def _sweep_legacy_shard(self, shard_dir: Path, stats: GCStats,
                            dry_run: bool) -> None:
        """Reclaim one ``<xx>/`` directory of the retired
        one-file-per-entry layout: its ``<key>.json`` entries and
        crashed writers' ``.tmp-*`` files.  Anything else stays, and so
        does the directory unless that emptied it."""
        for path in sorted(shard_dir.iterdir()):
            if not path.is_file():
                continue
            if path.name.startswith(".tmp-"):
                self._sweep_file(path, stats, dry_run)
                stats.removed_tmp += 1
            elif path.suffix == ".json":
                self._sweep_file(path, stats, dry_run)
                stats.removed += 1
        if not dry_run:
            try:
                shard_dir.rmdir()
            except OSError:
                pass


#: The one layout under its historical second name.
PackedCampaignStore = CampaignStore


def open_store(root: Union[str, Path], layout: str = "auto"
               ) -> CampaignStore:
    """Open the campaign store at ``root``.

    There is one on-disk layout, packed shards.  ``layout`` accepts
    ``"auto"`` and ``"packed"`` (both mean that layout) and rejects
    anything else.  A directory written by the retired
    one-file-per-entry layout opens as an empty store — every lookup
    misses and re-executes into packs — and ``gc`` reclaims its files.
    """
    if layout not in ("auto", "packed"):
        raise ValueError(f"unknown store layout: {layout!r}")
    return CampaignStore(root)
