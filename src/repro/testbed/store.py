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
misses and fall back to fresh execution.  Each record's payload is a
row: a JSON array of its result's fields in dataclass order.

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
from operator import index
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, TYPE_CHECKING, Tuple, TypeVar,
                    Union)

from .. import __version__
from ..metrics import Metrics
from ..seeding import render_part
from ..simnet.addr import Family
from ..simnet.packet import Protocol
from .config import TestCaseKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import RunRecord

#: Bump when the entry layout or record encoding changes: it is hashed
#: into every key, so old entries are never looked up again (the next
#: gc drops them) instead of mis-decoding.
#: Format 3: every payload is a positional row (a JSON array in its
#: dataclass's field order), not an object of named fields.
STORE_FORMAT = 3

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


def encode_record(record: "RunRecord") -> list:
    """The record's row: its fields in :class:`RunRecord` order, enums
    by name (families) or value (kind, protocol), ``attempts`` as
    ``[[t, "V6"], ...]``.  :func:`decode_record` rebuilds an identical
    (``==``) :class:`~repro.testbed.runner.RunRecord` from it."""
    winner = record.winning_family
    protocol = record.winning_protocol
    return [
        record.case, record.kind.value, record.client, record.value_ms,
        record.repetition, record.completed, record.error,
        winner.name if winner is not None else None,
        protocol.value if protocol is not None else None,
        record.cad_s, record.rd_s, record.time_to_first_attempt_s,
        record.aaaa_first, record.queried_https,
        [[timestamp, family.name] for timestamp, family in record.attempts],
        record.attempts_v4, record.attempts_v6, record.attempts_quic,
        record.first_attempt_port, record.duration_s,
    ]


#: Enum members by their encoded form, built once: a dict lookup is
#: cheaper than an enum call, and an unknown value still raises
#: (``KeyError``), so the entry reads as invalid.
_KINDS = {kind.value: kind for kind in TestCaseKind}
_FAMILIES = dict(Family.__members__)
_OPT_FAMILIES: "Dict[Optional[str], Optional[Family]]" = {
    **_FAMILIES, None: None}
_OPT_PROTOCOLS: "Dict[Optional[str], Optional[Protocol]]" = {
    None: None, **{protocol.value: protocol for protocol in Protocol}}

#: :class:`~repro.testbed.runner.RunRecord`, resolved on the first
#: decode: the runner imports this module, so it cannot be imported
#: at load time.
_RunRecord: "Optional[type]" = None


def decode_record(row: "Sequence[Any]") -> "RunRecord":
    """Rebuild a :class:`RunRecord` from its row, a list or a tuple.

    Raises on any malformed row: a wrong length (the unpacking), an
    unknown enum name (the lookups) or a string where a number belongs
    (``index`` and ``* 1.0`` accept numbers only, where ``int()`` and
    ``float()`` would parse a string), so the entry reads as invalid.
    """
    global _RunRecord
    if _RunRecord is None:
        from .runner import RunRecord as _RunRecord
    (case, kind, client, value_ms, repetition, completed, error, family,
     protocol, cad_s, rd_s, first_s, aaaa_first, queried_https, attempts,
     attempts_v4, attempts_v6, attempts_quic, port, duration_s) = row
    return _RunRecord(
        case, _KINDS[kind], client, index(value_ms), index(repetition),
        bool(completed), error, _OPT_FAMILIES[family],
        _OPT_PROTOCOLS[protocol],
        None if cad_s is None else cad_s * 1.0,
        None if rd_s is None else rd_s * 1.0,
        None if first_s is None else first_s * 1.0,
        aaaa_first, bool(queried_https),
        [(timestamp * 1.0, _FAMILIES[name]) for timestamp, name in attempts],
        index(attempts_v4), index(attempts_v6), index(attempts_quic),
        None if port is None else index(port),
        None if duration_s is None else duration_s * 1.0,
    )


# -- the store -----------------------------------------------------------------


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
    files, not a million.  The pack is the shard's only index: a handle
    builds an in-memory ``key -> (offset, length)`` map by scanning a
    pack the first time it touches the shard, then extends it — its own
    appends advance the map, foreign appends are scanned from the old
    frontier.  A per-shard generation counter
    (``root/.index/<shard>.gen``), bumped by every pack rewrite, tells a
    handle its map is stale.  Reads write nothing but quarantine copies.

    Durability model: records are appended with the completeness marker
    in the same single ``write``; a writer that dies mid-append leaves a
    *torn tail* — a final line with no newline — which the scanner
    refuses to index and the next append heals by prefixing a newline
    (the torn bytes become one dead, never-indexed line).  Superseding
    writes and quarantined records leave dead bytes behind; they are
    tracked per shard and reclaimed by :meth:`gc`.

    Handles are not internally locked: callers that share one handle
    across threads must serialize access (the campaign service's tiered
    store does).  Cross-process appends are safe — ``O_APPEND`` writes
    are atomic for record-sized lines, each record's offset is read back
    from its own descriptor, and every read reconciles the in-memory
    map with whatever bytes other writers appended.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: This handle's counters (a Session with this store counts
        #: into the same object).
        self.metrics = Metrics()
        #: Chaos harness hook (:class:`~repro.faults.FaultPlan`): when
        #: set, targeted reads raise-as-miss and targeted writes tear,
        #: exactly as crashing hardware would.  None in production.
        self.fault_plan = None
        #: Per-shard scan state: ``offsets`` (key -> (offset, length)),
        #: ``scanned`` (bytes covered by complete lines), ``size`` (the
        #: known end of the pack; ``[scanned, size)`` never holds a
        #: newline, so it is empty or a torn tail), ``dead``
        #: (superseded/quarantined bytes), ``generation`` (counter at
        #: scan time).
        self._packs: "Dict[str, dict]" = {}
        self._prefix = os.path.join(os.fspath(self.root), "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignStore({str(self.root)!r})"

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
        every other handle's scan state reads as stale.  Persisted atomically: never a torn read.
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
                "generation": generation}

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

    def _ensure_shard(self, shard: str) -> Optional[dict]:
        """Reconcile the in-memory state with the pack file; None when
        the shard has no pack.  A first touch, a generation mismatch or
        a pack shorter than the scanned frontier (rewritten out of band)
        rescans from byte 0; otherwise only appended bytes are
        scanned."""
        try:
            size = os.stat(self._pack_path(shard)).st_size
        except OSError:
            self._packs.pop(shard, None)
            return None
        generation = self._generation(shard)
        state = self._packs.get(shard)
        if (state is None or state["generation"] != generation
                or size < state["scanned"]):
            state = self._packs[shard] = self._fresh_state(generation)
        if size > state["scanned"]:
            self._scan_pack(shard, state, state["scanned"])
        else:
            state["size"] = size
        return state

    # -- reads -----------------------------------------------------------------

    def _maybe_read_fault(self, key: str) -> bool:
        """Chaos-only: whether an injected transient read error fires
        for ``key`` (the caller counts it as an invalid miss)."""
        plan = self.fault_plan
        if plan is None:
            return False
        return plan.store_fault("read", key) is not None

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        """Batch lookup: decoded payloads for every key that hits.

        Keys are grouped by shard; each touched shard reconciles its
        offset map once (a full scan on first touch, else a scan of any
        bytes appended since) and resolves its keys from the pack.  Keys
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
            state = self._ensure_shard(shard) or self._fresh_state(0)
            self._resolve_shard(shard, state, shard_keys, decode, out)
        return out

    def _resolve_shard(self, shard: str, state: dict, keys: "List[str]",
                       decode: "Callable[[Any], Decoded]",
                       out: "Dict[str, Decoded]") -> None:
        metrics = self.metrics
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
                    metrics.invalid += 1
                    metrics.misses += 1
                    continue
                span = offsets.get(key)
                if span is None:
                    metrics.misses += 1
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
                        metrics.invalid += 1
                        metrics.misses += 1
                        continue
                value = _decode_entry(
                    key, rows[start] if start in rows else _parse_line(raw),
                    decode)
                if value is _INVALID:
                    self._quarantine(key, shard, raw, state)
                    metrics.invalid += 1
                    metrics.misses += 1
                    continue
                metrics.hits += 1
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
        self.metrics.quarantined += 1
        span = state["offsets"].pop(key, None)
        if span is not None:
            state["dead"] += span[1]

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
        self.metrics.stores += 1

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
        self.metrics.stores += 1

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

    def _rewrite_pack(self, shard: str, keys: "List[str]",
                      state: dict) -> "Tuple[int, int]":
        """Rewrite one pack keeping exactly ``keys`` (slice-for-slice,
        so surviving records stay byte-identical); returns
        ``(old_size, new_size)``.  An empty keep-set unlinks the pack.
        The rewrite is atomic (temp + replace) and bumps the shard
        generation so every foreign handle rescans."""
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
        self._packs[shard] = new_state
        return old_size, offset

    def gc(self, live_keys: "Iterable[str]",
           dry_run: bool = False) -> Metrics:
        """Drop every entry whose key is not in ``live_keys``.

        Content-addressed entries accumulate forever: any sweep, seed,
        profile, or package-version change strands the old digests.  GC
        is a mark-and-sweep — the caller enumerates the keys its current
        campaigns reference (every registered experiment's plan keys)
        and each
        pack is *rewritten* keeping only live records (byte-identical
        slices); a shard whose records are all live and dead-byte-free
        is left untouched.  Crashed writers' ``.tmp-*`` files go, in the
        root and in ``.index/``.  Every shard's generation counter
        stays, its pack gone or not (at most 256 small files): a counter
        that restarted at 0 would let a handle holding the shard's old
        map trust its stale frontier once a new pack appears.
        ``.quarantine`` and ``.journal`` survive: quarantined evidence
        and resume state are not cache entries.
        Run it offline: a writer racing the sweep would only lose cache
        entries (and re-execute), never correctness.

        Returns the sweep's gc counters, which are also added to
        :attr:`metrics`.  ``dry_run=True`` returns the same accounting
        without touching anything: a rewrite emits exactly the live
        slices, so the reclaimable bytes of an unclean shard are
        computable as ``current pack size - live slice bytes`` up front.
        """
        live = set(live_keys)
        stats = Metrics()
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
        index_dir = self.root / ".index"
        for folder in (self.root, index_dir):
            if not folder.is_dir():
                continue
            for child in sorted(folder.glob(".tmp-*")):
                if child.is_file():
                    self._sweep_file(child, stats, dry_run)
                    stats.removed_tmp += 1
        self.metrics += stats
        return stats

    @staticmethod
    def _sweep_file(path: Path, stats: Metrics, dry_run: bool) -> None:
        stats.reclaimed_bytes += path.stat().st_size
        if not dry_run:
            path.unlink()


#: The one layout under its historical second name.
PackedCampaignStore = CampaignStore


def open_store(root: Union[str, Path], layout: str = "auto"
               ) -> CampaignStore:
    """Open the campaign store at ``root``.

    There is one on-disk layout, packed shards.  ``layout`` accepts
    ``"auto"`` and ``"packed"`` (both mean that layout) and rejects
    anything else.
    """
    if layout not in ("auto", "packed"):
        raise ValueError(f"unknown store layout: {layout!r}")
    return CampaignStore(root)
