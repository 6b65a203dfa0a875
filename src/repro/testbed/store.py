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
serving stale results.  Entries are JSON files written atomically
(temp file + ``rename``) and validated on read; corrupted or partial
entries are treated as misses and fall back to fresh execution.

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

#: Bump when the sidecar index layout changes; old index files then
#: read as invalid and batch lookups fall back to per-key reads (the
#: entry files remain the source of truth either way).
#: Format 2: freshness is a per-shard *generation counter* stamped into
#: the index and bumped on every entry write/remove — not the shard
#: directory mtime, which every write used to invalidate wholesale.
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
    #: Content-invalid entries moved aside to ``.quarantine/`` (a
    #: subset of ``invalid``: unreadable-but-maybe-fine files stay put).
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


class CampaignStore:
    """Content-addressed cache of campaign run results on disk.

    Entries live at ``root/<key[:2]>/<key>.json`` where ``key`` is
    :meth:`key` over the run seed, configuration digest, and run
    coordinates.  Writes are atomic (temp file in the same directory,
    then ``os.replace``), so concurrent writers — e.g. several worker
    pools sharing one cache directory — can never leave a torn entry
    behind; a reader either sees a complete entry or none.  Reads
    validate the format version and completeness marker and fall back
    to fresh execution on anything unexpected.
    """

    def __init__(self, root: Union[str, Path],
                 use_index: bool = True) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        #: Chaos harness hook (:class:`~repro.faults.FaultPlan`): when
        #: set, targeted reads raise-as-miss and targeted writes tear,
        #: exactly as crashing hardware would.  None in production.
        self.fault_plan = None
        #: Batch lookups (:meth:`get_many`) consult the per-shard
        #: sidecar index when True; False forces per-key reads (the
        #: benchmark baseline, and an escape hatch).
        self.use_index = use_index
        #: Per-shard in-memory index mirror kept generation-consistent
        #: by this handle's own writes, so hot mixed read/write
        #: campaigns never rebuild an index they just extended.
        self._mem_index: "Dict[str, dict]" = {}
        #: Shards whose in-memory index is ahead of the sidecar file.
        self._dirty_index: "set[str]" = set()
        #: Full index rebuild passes (every entry of a shard re-read);
        #: the generation counter exists to keep this flat under mixed
        #: read/write load, which the store benchmark asserts.
        self.index_rebuilds = 0

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

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` — a cheap ``stat``
        that does **not** validate the entry or touch the counters.
        Use for planning only; :meth:`get` remains the authority."""
        return self._path(key).is_file()

    # -- generic payloads ------------------------------------------------------

    def get(self, key: str,
            decode: "Callable[[Any], Decoded]") -> Optional[Decoded]:
        """Decoded payload for ``key``, or None (counted as a miss).

        Unreadable files, bad JSON, format mismatches, missing
        completeness markers, and decoder failures all count as
        ``invalid`` misses — the caller re-executes and overwrites.
        Entries whose *content* is provably bad (torn JSON, wrong
        format, no completeness marker, undecodable payload) are
        additionally quarantined: moved to ``root/.quarantine/`` so
        they stop shadowing the slot and stay available for forensics.
        Unreadable files (transient ``OSError``) are left in place —
        the next read may succeed.
        """
        if self._maybe_read_fault(key):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        path = self._path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        except ValueError:
            self._quarantine(key, path)
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        if (isinstance(data, dict) and data.get("format") == STORE_FORMAT
                and data.get("complete") is True and "payload" in data):
            try:
                decoded = decode(data["payload"])
            except Exception:
                pass
            else:
                self.stats.hits += 1
                return decoded
        self._quarantine(key, path)
        self.stats.invalid += 1
        self.stats.misses += 1
        return None

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a content-invalid entry to ``root/.quarantine/<shard>/``.

        Leaving a corrupt entry at its addressed path makes every
        future campaign re-reject it (an ``invalid`` miss per lookup,
        forever, since the re-executed write may land elsewhere first
        or the campaign may be read-only); deleting it destroys the
        evidence.  Quarantine does neither: the slot frees up for the
        re-executed write and the bytes survive for inspection.  GC
        never enters dot-directories, so quarantined entries outlive
        sweeps until an operator removes them.
        """
        shard = key[:2]
        dest = self.root / ".quarantine" / shard / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return  # can't move it: degrade to a plain invalid miss
        self.stats.quarantined += 1
        # The shard changed out from under any index: drop our mirror
        # and bump the generation so sidecars read as stale.
        self._mem_index.pop(shard, None)
        self._dirty_index.discard(shard)
        self._bump_generation(shard)

    def _maybe_read_fault(self, key: str) -> bool:
        """Chaos-only: whether an injected transient read error fires
        for ``key`` (the caller counts it as an invalid miss)."""
        plan = self.fault_plan
        if plan is None:
            return False
        return plan.store_fault("read", key) is not None

    def put(self, key: str, payload: Any) -> None:
        """Atomically persist ``payload`` (JSON-serializable) under
        ``key``; the ``complete`` marker goes in with the same write,
        so a torn write can never read as a valid entry.

        Every write bumps the shard's generation counter and — when
        this handle holds the shard's index in memory — extends that
        index in place, so a warm campaign that interleaves writes
        keeps batch-lookup speed instead of rebuilding per batch.
        """
        plan = self.fault_plan
        if plan is not None:
            spec = plan.store_fault("write", key)
            if spec is not None:
                self._faulted_write(key, spec, payload)
                return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"format": STORE_FORMAT, "complete": True, "key": key,
                 "payload": payload}
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        shard = key[:2]
        cached = self._mem_index.get(shard)
        if cached is not None:
            # Extend the tracked index in place; the generation-file
            # write is deferred to the next batch flush, so the hot
            # write path costs one dir stat, not a counter rename.
            cached["entries"][key] = payload
            cached["pending"] += 1
            cached["dir_mtime_ns"] = self._dir_mtime_ns(shard)
            self._dirty_index.add(shard)
        elif self._index_path(shard).is_file():
            # Someone else's sidecar covers this shard: invalidate it
            # the cheap way (its stamped generation falls behind).
            self._bump_generation(shard)
        # else: no index exists anywhere for this shard — nothing to
        # invalidate or extend; cold campaigns pay one stat per write.

    def _faulted_write(self, key: str, spec, payload: Any) -> None:
        """Chaos-only: replace an entry write with what a dying writer
        leaves behind.

        ``io-error`` raises before touching disk (a full filesystem, a
        yanked mount).  ``corrupt`` writes truncated garbage and
        ``partial`` a structurally valid entry with no completeness
        marker — both written *directly*, no temp file, no rename, no
        generation bump, no index extension: the precise disk state a
        writer killed mid-write produces, which is what the quarantine
        path and the resume machinery must recover from.
        """
        from ..faults import FaultKind

        if spec.kind is FaultKind.IO_ERROR:
            raise OSError(f"injected store write error ({key[:12]}...)")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if spec.kind is FaultKind.CORRUPT_WRITE:
            text = f'{{"format": {STORE_FORMAT}, "complete": tru'
        else:  # PARTIAL_WRITE: valid JSON, incomplete entry
            text = json.dumps({"format": STORE_FORMAT, "key": key,
                               "payload": payload}, sort_keys=True)
        path.write_text(text, encoding="utf-8")
        # The writer believed it stored the entry — count it so the
        # chaos battery can see the lie in the counters.
        self.stats.stores += 1

    # -- batch lookup + sidecar index ------------------------------------------

    def _index_path(self, shard: str) -> Path:
        """Sidecar index for one shard, kept *outside* the shard
        directory (``root/.index/<shard>.json``) next to the shard's
        generation counter (``<shard>.gen``)."""
        return self.root / ".index" / f"{shard}.json"

    def _generation_path(self, shard: str) -> Path:
        return self.root / ".index" / f"{shard}.gen"

    def _dir_mtime_ns(self, shard: str) -> Optional[int]:
        try:
            return (self.root / shard).stat().st_mtime_ns
        except OSError:
            return None

    def _generation(self, shard: str) -> int:
        """The shard's current generation (0 before any counted write)."""
        try:
            return int(self._generation_path(shard)
                       .read_text(encoding="ascii"))
        except (OSError, ValueError):
            return 0

    def _write_generation(self, shard: str, generation: int) -> None:
        """Persist the counter (atomic rename: never a torn read)."""
        path = self._generation_path(shard)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                            prefix=".tmp-", suffix=".gen")
            try:
                with os.fdopen(fd, "w", encoding="ascii") as handle:
                    handle.write(str(generation))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # an uncounted write degrades to an index rebuild
        return None

    def _bump_generation(self, shard: str) -> int:
        """Advance the shard's generation counter (entry write/remove).

        Concurrent writers may collapse a bump (read-modify-write
        race); that can only make an index *look* fresh while missing
        a key — and keys absent from an index always fall back to
        per-key reads, so lookups stay correct either way.
        """
        generation = self._generation(shard) + 1
        self._write_generation(shard, generation)
        return generation

    def _load_index(self, shard: str) -> Optional[dict]:
        """The shard's indexed payloads, or None.

        An index is served only when it is *provably current* on two
        independent signals: its stamped ``generation`` must equal the
        shard's counter (every entry write/remove through the store
        bumps it — but a writer that holds the index in memory
        re-stamps it as it extends it, which is how hot mixed
        read/write campaigns keep batch-lookup speed without rebuild
        churn), and its recorded ``dir_mtime_ns`` must equal the shard
        directory's (which catches *out-of-band* entry additions and
        deletions that never touched the counter — manual pruning,
        partial cache syncs).  A stale, corrupt, missing, or
        format-mismatched index is simply ignored — the entry files
        stay the source of truth and per-key reads take over.
        """
        current = self._generation(shard)
        dir_mtime_ns = self._dir_mtime_ns(shard)
        if dir_mtime_ns is None:
            return None
        cached = self._mem_index.get(shard)
        if (cached is not None and cached["generation"] == current
                and cached["dir_mtime_ns"] == dir_mtime_ns):
            # ``generation`` is the last *flushed* value; our own
            # unflushed writes live in ``pending`` and are already in
            # ``entries``, so a matching file counter means nobody
            # else wrote and the mirror is complete.
            return cached["entries"]
        try:
            data = json.loads(self._index_path(shard)
                              .read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(data, dict)
                or data.get("index_format") != INDEX_FORMAT
                or data.get("store_format") != STORE_FORMAT
                or not isinstance(data.get("entries"), dict)
                or data.get("generation") != current
                or data.get("dir_mtime_ns") != dir_mtime_ns):
            return None
        self._mem_index[shard] = {"generation": current, "pending": 0,
                                  "dir_mtime_ns": dir_mtime_ns,
                                  "entries": data["entries"]}
        self._dirty_index.discard(shard)
        return data["entries"]

    def _build_index(self, shard: str) -> Optional[dict]:
        """Read every valid entry of a shard once and persist the
        sidecar index; returns the payload mapping (or None when the
        shard does not exist).  Invalid entries are skipped — absent
        from the index, they keep falling back to per-key reads,
        which count them truthfully.  The stamped generation is
        sampled *before* listing, so a concurrent writer can only make
        the index look stale, never serve missing entries as misses.
        """
        shard_dir = self.root / shard
        if not shard_dir.is_dir():
            return None
        # Both freshness markers are sampled *before* listing, so a
        # concurrent writer can only make the index look stale, never
        # serve missing entries as misses.
        generation = self._generation(shard)
        dir_mtime_ns = self._dir_mtime_ns(shard)
        if dir_mtime_ns is None:
            return None
        entries: dict = {}
        for path in shard_dir.glob("*.json"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if (isinstance(data, dict)
                    and data.get("format") == STORE_FORMAT
                    and data.get("complete") is True
                    and "payload" in data):
                entries[path.stem] = data["payload"]
        self.index_rebuilds += 1
        self._mem_index[shard] = {"generation": generation, "pending": 0,
                                  "dir_mtime_ns": dir_mtime_ns,
                                  "entries": entries}
        self._dirty_index.discard(shard)
        self._write_index(shard, generation, dir_mtime_ns, entries)
        return entries

    def _write_index(self, shard: str, generation: int,
                     dir_mtime_ns: int, entries: dict) -> None:
        index = {"index_format": INDEX_FORMAT,
                 "store_format": STORE_FORMAT,
                 "generation": generation, "dir_mtime_ns": dir_mtime_ns,
                 "entries": entries}
        index_path = self._index_path(shard)
        try:
            index_path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(index_path.parent),
                                            prefix=".tmp-",
                                            suffix=".json")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(index, handle, sort_keys=True)
                os.replace(tmp_name, index_path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # an unwritable index is a perf loss, not an error

    def _flush_index(self, shard: str) -> None:
        """Persist a put-extended in-memory index (once per batch, not
        once per write) so other handles inherit the warm index too.
        The deferred counter bumps land in the same flush: the file
        advances by ``pending`` and the sidecar is stamped to match."""
        cached = self._mem_index.get(shard)
        if cached is None or shard not in self._dirty_index:
            return
        if cached["generation"] != self._generation(shard):
            return  # someone else wrote meanwhile; let them rebuild
        if cached["pending"]:
            cached["generation"] += cached["pending"]
            cached["pending"] = 0
            self._write_generation(shard, cached["generation"])
        self._write_index(shard, cached["generation"],
                          cached["dir_mtime_ns"], cached["entries"])
        self._dirty_index.discard(shard)

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        """Batch lookup: decoded payloads for every key that hits.

        Keys are grouped by shard and each touched shard resolves
        through its sidecar index — one index read (or one rebuild
        pass) per shard instead of one ``stat`` + JSON read per key,
        which is what makes warm million-run campaigns resolve their
        hits at directory speed, not entry speed.  Keys the index
        cannot vouch for fall back to :meth:`get` one at a time, so
        counters (hits / misses / invalid) are identical to a pure
        per-key resolution; keys absent from the result are misses.
        """
        out: "Dict[str, Decoded]" = {}
        by_shard: "Dict[str, List[str]]" = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        for shard, shard_keys in by_shard.items():
            indexed: Optional[dict] = None
            if self.use_index:
                self._flush_index(shard)
                indexed = self._load_index(shard)
                if indexed is None and any(
                        self.has(key) for key in shard_keys):
                    # Build only when the shard can actually serve a
                    # requested key: a miss-heavy campaign over a big
                    # store must not read (and duplicate) every entry
                    # just to conclude its own keys are new.  The
                    # existence probe is one stat per requested key —
                    # exactly the old per-spec planning cost, paid
                    # only on shards with no fresh index.
                    indexed = self._build_index(shard)
            for key in shard_keys:
                if self._maybe_read_fault(key):
                    self.stats.invalid += 1
                    self.stats.misses += 1
                    continue
                if indexed is not None and key in indexed:
                    try:
                        decoded = decode(indexed[key])
                    except Exception:
                        pass  # undecodable: per-key read settles it
                    else:
                        self.stats.hits += 1
                        out[key] = decoded
                        continue
                value = self.get(key, decode)
                if value is not None:
                    out[key] = value
        return out

    def get_many_records(self, keys: "Iterable[str]"
                         ) -> "Dict[str, RunRecord]":
        return self.get_many(keys, decode_record)

    # -- RunRecord convenience -------------------------------------------------

    def get_record(self, key: str) -> "Optional[RunRecord]":
        return self.get(key, decode_record)

    def put_record(self, key: str, record: "RunRecord") -> None:
        self.put(key, encode_record(record))

    # -- compaction ------------------------------------------------------------

    def shards(self) -> "List[str]":
        """Every shard that currently holds entries."""
        if not self.root.is_dir():
            return []
        return sorted(path.name for path in self.root.iterdir()
                      if path.is_dir() and len(path.name) == 2)

    def shard_payloads(self, shard: str) -> "Dict[str, Any]":
        """Every valid payload of one shard, keyed by entry key — the
        bulk-preload primitive hot-shard rebalancing uses.  Does not
        touch the lookup counters."""
        shard_dir = self.root / shard
        out: "Dict[str, Any]" = {}
        if not shard_dir.is_dir():
            return out
        for path in sorted(shard_dir.glob("*.json")):
            if path.name.startswith(".tmp-"):
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if (isinstance(data, dict)
                    and data.get("format") == STORE_FORMAT
                    and data.get("complete") is True
                    and "payload" in data):
                out[path.stem] = data["payload"]
        return out

    def entries(self) -> "Iterator[Tuple[str, Path]]":
        """Every ``(key, path)`` currently on disk, in sorted order.

        Walks the two-hex shard directories; anything that does not
        look like an entry file (temp files from in-flight writes,
        stray droppings) is not reported here — :meth:`gc` handles
        leftover temp files separately.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in sorted(shard.glob("*.json")):
                if not path.name.startswith(".tmp-"):
                    yield path.stem, path

    def gc(self, live_keys: "Iterable[str]",
           dry_run: bool = False) -> "GCStats":
        """Drop every entry whose key is not in ``live_keys``.

        Content-addressed entries accumulate forever: any sweep,
        seed, profile, or package-version change strands the old
        digests.  GC is a mark-and-sweep over the directory — the
        caller enumerates the keys its current campaigns reference
        (see ``TestRunner.store_keys``), everything else is deleted,
        and stale ``.tmp-*`` droppings from crashed writers go too.
        Run it offline: a writer racing the sweep would only lose
        cache entries (and re-execute), never correctness.

        ``dry_run=True`` walks the same mark phase and returns the
        same kept/removed/reclaimable accounting without deleting
        anything (indexes stay warm, entries stay served).  The only
        divergence from a real sweep is ``.gen`` sidecars of shards
        the sweep *would have* emptied — they are counted only by the
        real pass, a few bytes of undercount.
        """
        live = set(live_keys)
        stats = GCStats()
        dirty_shards: "set[str]" = set()
        if not dry_run:
            self._mem_index.clear()
            self._dirty_index.clear()
        for key, path in self.entries():
            size = path.stat().st_size
            if key in live:
                stats.kept += 1
                stats.kept_bytes += size
                continue
            if not dry_run:
                path.unlink()
            stats.removed += 1
            stats.reclaimed_bytes += size
            dirty_shards.add(path.parent.name)
        if self.root.is_dir():
            for shard in self.root.iterdir():
                # Dot-directories are off limits to the sweep: .index
                # is handled below, and .quarantine/.journal must
                # survive gc (quarantined evidence and resume state
                # are not cache entries).
                if not shard.is_dir() or shard.name.startswith("."):
                    continue
                for stale in shard.glob(".tmp-*"):
                    stats.reclaimed_bytes += stale.stat().st_size
                    if not dry_run:
                        stale.unlink()
                    stats.removed_tmp += 1
                    dirty_shards.add(shard.name)
                if not dry_run:
                    try:
                        shard.rmdir()  # only succeeds when emptied
                    except OSError:
                        pass
            # Every sweep-touched shard gets a generation bump so any
            # index built before the sweep — on disk, or in another
            # handle's memory — reads as stale rather than serving
            # removed entries.
            if not dry_run:
                for shard in dirty_shards:
                    if (self.root / shard).is_dir():
                        self._bump_generation(shard)
            # Sidecar indexes are derived data: drop the ones whose
            # shard changed (or vanished) in this sweep — staleness
            # detection would ignore them anyway — and keep the still
            # fresh ones warm.  Generation counters survive for
            # surviving shards (they are the staleness authority) and
            # go with their shard otherwise.
            index_dir = self.root / ".index"
            if index_dir.is_dir():
                for index_file in index_dir.iterdir():
                    shard = index_file.name.split(".")[0]
                    if not shard:
                        # .tmp-* dropping from a crashed index writer.
                        stats.reclaimed_bytes += \
                            index_file.stat().st_size
                        if not dry_run:
                            index_file.unlink()
                        stats.removed_tmp += 1
                        continue
                    shard_gone = not (self.root / shard).is_dir()
                    if index_file.suffix == ".gen":
                        if shard_gone:
                            stats.reclaimed_bytes += \
                                index_file.stat().st_size
                            if not dry_run:
                                index_file.unlink()
                            stats.removed_index += 1
                    elif shard in dirty_shards or shard_gone:
                        stats.reclaimed_bytes += \
                            index_file.stat().st_size
                        if not dry_run:
                            index_file.unlink()
                        stats.removed_index += 1
                if not dry_run:
                    try:
                        index_dir.rmdir()  # only succeeds when emptied
                    except OSError:
                        pass
        return stats


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


# -- packed per-shard layout ---------------------------------------------------


#: ``sort_keys`` puts ``"key"`` right after the complete/format markers,
#: so it always lands in the first ~60 bytes of a record line; searching
#: a bounded prefix keeps the scan O(entries), not O(bytes).
_PACK_KEY_RE = re.compile(rb'"key": "([0-9a-f]{64})"')
_PACK_KEY_WINDOW = 160

_INVALID = object()  # decode sentinel: "slice present but not a valid entry"
_BROKEN = object()   # read sentinel: "pack unreadable this pass"


class PackedCampaignStore(CampaignStore):
    """The same content-addressed cache, packed many-entries-per-file.

    One JSON file per entry hits inode and ``stat`` limits long before a
    million entries; at population scale the store must be a handful of
    big files, not a million small ones.  This layout keeps everything
    the per-file store promises — same keys, same record payload bytes,
    same hit/miss/invalid/quarantine semantics — but stores each shard
    as a single append-only ``root/<shard>.pack`` of newline-delimited
    entry records with an in-memory ``key -> (offset, length)`` map and
    a sidecar offset index (``root/.index/<shard>.json``) so a fresh
    handle warms up with one index read instead of a full scan.

    Durability model: records are appended with the completeness marker
    in the same single ``write``; a writer that dies mid-append leaves a
    *torn tail* — a final line with no newline — which the scanner
    refuses to index and the next append heals by prefixing a newline
    (the torn bytes become one dead, never-indexed line).  Superseding
    writes and quarantined slices leave dead bytes behind; they are
    tracked per shard and reclaimed by :meth:`compact_shard` or
    :meth:`gc` (which rewrites packs instead of unlinking entry files).

    Handles are not internally locked: callers that share one handle
    across threads must serialize access (the campaign service's tiered
    store does).  Cross-process appends are safe — ``O_APPEND`` writes
    are atomic for record-sized lines and reconciliation rescans any
    bytes another writer slipped in.
    """

    def __init__(self, root: Union[str, Path],
                 use_index: bool = True) -> None:
        super().__init__(root, use_index=use_index)
        #: Per-shard scan state: ``offsets`` (key -> (offset, length)),
        #: ``scanned`` (bytes covered by complete lines), ``size`` (file
        #: size at last reconcile), ``dead`` (superseded/quarantined
        #: bytes), ``generation`` (counter at scan time), ``dirty``
        #: (offsets ahead of the sidecar index).
        self._packs: "Dict[str, dict]" = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PackedCampaignStore({str(self.root)!r}, "
                f"{self.stats.summary()})")

    # -- layout ----------------------------------------------------------------

    def _pack_path(self, shard: str) -> Path:
        return self.root / f"{shard}.pack"

    def shards(self) -> "List[str]":
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.pack")
                      if not path.name.startswith(".tmp-"))

    @staticmethod
    def _encode_line(key: str, payload: Any) -> bytes:
        entry = {"format": STORE_FORMAT, "complete": True, "key": key,
                 "payload": payload}
        return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")

    # -- scan / reconcile ------------------------------------------------------

    def _fresh_state(self, generation: int) -> dict:
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
                old = offsets.get(key)
                if old is not None:
                    state["dead"] += old[1]
                offsets[key] = (start + pos, length)
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
            size = self._pack_path(shard).stat().st_size
        except OSError:
            self._packs.pop(shard, None)
            return None
        generation = self._generation(shard)
        state = self._packs.get(shard)
        if state is not None and state["generation"] == generation:
            if size < state["scanned"]:
                state = None  # rewritten out-of-band: full rescan
            elif size > state["scanned"]:
                self._scan_pack(shard, state, state["scanned"])
                state["dirty"] = True
                return state
            else:
                state["size"] = size
                return state
        state = self._fresh_state(generation)
        if self.use_index:
            sidecar = self._load_pack_index(shard, generation, size)
            if sidecar is not None:
                state["offsets"] = {
                    key: (int(span[0]), int(span[1]))
                    for key, span in sidecar["offsets"].items()}
                state["scanned"] = sidecar["pack_size"]
                state["size"] = sidecar["pack_size"]
                state["dead"] = int(sidecar.get("dead", 0))
        if state["scanned"] < size:
            if state["scanned"] == 0 and size > 0:
                self.index_rebuilds += 1  # a full scan is the rebuild
            self._scan_pack(shard, state, state["scanned"])
            state["dirty"] = True
        self._packs[shard] = state
        return state

    def _flush_pack_index(self, shard: str, state: dict) -> None:
        if not state["dirty"]:
            return
        index = {"index_format": INDEX_FORMAT,
                 "store_format": STORE_FORMAT,
                 "layout": "packed",
                 "generation": state["generation"],
                 "pack_size": state["scanned"],
                 "dead": state["dead"],
                 "offsets": {key: list(span)
                             for key, span in state["offsets"].items()}}
        index_path = self._index_path(shard)
        try:
            index_path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(index_path.parent),
                                            prefix=".tmp-",
                                            suffix=".json")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(index, handle, sort_keys=True)
                os.replace(tmp_name, index_path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return  # an unwritable index is a perf loss, not an error
        state["dirty"] = False

    # -- reads -----------------------------------------------------------------

    def has(self, key: str) -> bool:
        state = self._ensure_shard(key[:2])
        return state is not None and key in state["offsets"]

    def _read_slice(self, shard: str, span: "Tuple[int, int]"
                    ) -> Optional[bytes]:
        try:
            with open(self._pack_path(shard), "rb") as handle:
                handle.seek(span[0])
                return handle.read(span[1])
        except OSError:
            return None

    def _decode_slice(self, key: str, raw: bytes,
                      decode: "Callable[[Any], Decoded]") -> Any:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return _INVALID
        return self._decode_obj(key, data, decode)

    @staticmethod
    def _decode_obj(key: str, data: Any,
                    decode: "Callable[[Any], Decoded]") -> Any:
        if (isinstance(data, dict) and data.get("format") == STORE_FORMAT
                and data.get("complete") is True
                and data.get("key") == key and "payload" in data):
            try:
                return decode(data["payload"])
            except Exception:
                return _INVALID
        return _INVALID

    def _parse_pack_bulk(self, buffer: bytes
                         ) -> "Optional[Tuple[List[Any], Dict[int, int]]]":
        """One-shot parse of a clean pack: the whole file as a JSON
        array (2-3x cheaper than a ``json.loads`` per line) plus a map
        from line start offset to array index.  Canonical lines never
        contain raw newline bytes (``json.dumps`` escapes them), so
        newline really is the record separator.  Any anomaly — torn
        tail, healed junk, foreign bytes — fails the array parse and
        the caller falls back to validated per-slice reads."""
        stripped = buffer.rstrip(b"\n")
        if not stripped or buffer[-1:] != b"\n":
            return None  # empty, or a torn tail the index skips anyway
        try:
            parsed = json.loads(b"[" + stripped.replace(b"\n", b",")
                                + b"]")
        except ValueError:
            return None
        starts: "Dict[int, int]" = {}
        position = 0
        for index, line in enumerate(stripped.split(b"\n")):
            starts[position] = index
            position += len(line) + 1
        return parsed, starts

    def _quarantine_slice(self, key: str, shard: str, raw: bytes,
                          state: dict) -> None:
        """Packed analog of :meth:`CampaignStore._quarantine`: the bad
        bytes cannot be moved out of the pack, so they are *copied* to
        quarantine and dropped from the offset map — the slot frees up
        for the re-executed append and the dead bytes wait for
        compaction."""
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

    def get(self, key: str,
            decode: "Callable[[Any], Decoded]") -> Optional[Decoded]:
        if self._maybe_read_fault(key):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        shard = key[:2]
        state = self._ensure_shard(shard)
        span = None if state is None else state["offsets"].get(key)
        if span is None:
            self.stats.misses += 1
            return None
        raw = self._read_slice(shard, span)
        if raw is None:
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        value = self._decode_slice(key, raw, decode)
        if value is _INVALID:
            self._quarantine_slice(key, shard, raw, state)
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        out: "Dict[str, Decoded]" = {}
        by_shard: "Dict[str, List[str]]" = {}
        for key in keys:
            by_shard.setdefault(key[:2], []).append(key)
        for shard, shard_keys in by_shard.items():
            state = self._ensure_shard(shard)
            if state is not None and self.use_index:
                self._flush_pack_index(shard, state)
            offsets = {} if state is None else state["offsets"]
            # Dense batches slurp the whole pack in one read and slice
            # in memory: a warm dense-grid resolve is then one syscall
            # per shard instead of one seek+read per key.  Sparse
            # batches keep the per-key reads (don't drag a huge pack
            # through memory for three keys).
            wanted = sum(offsets[key][1] for key in shard_keys
                         if key in offsets)
            buffer: Optional[bytes] = None
            parsed: Optional[list] = None
            starts: "Dict[int, int]" = {}
            if (state is not None and wanted * 2 >= state["size"]
                    and sum(key in offsets for key in shard_keys) >= 8):
                try:
                    buffer = self._pack_path(shard).read_bytes()
                except OSError:
                    buffer = None
                if buffer is not None:
                    bulk = self._parse_pack_bulk(buffer)
                    if bulk is not None:
                        parsed, starts = bulk
            handle: Any = None
            try:
                for key in shard_keys:
                    if self._maybe_read_fault(key):
                        self.stats.invalid += 1
                        self.stats.misses += 1
                        continue
                    span = offsets.get(key)
                    if span is None:
                        self.stats.misses += 1
                        continue
                    if parsed is not None and span[0] in starts:
                        value = self._decode_obj(key, parsed[starts[span[0]]],
                                                 decode)
                        if value is _INVALID:
                            raw = buffer[span[0]:span[0] + span[1]]
                            self._quarantine_slice(key, shard, raw, state)
                            self.stats.invalid += 1
                            self.stats.misses += 1
                            continue
                        self.stats.hits += 1
                        out[key] = value
                        continue
                    if buffer is not None and span[0] + span[1] <= len(buffer):
                        raw = buffer[span[0]:span[0] + span[1]]
                    else:
                        if handle is None:
                            try:
                                handle = open(self._pack_path(shard), "rb")
                            except OSError:
                                handle = _BROKEN
                        if handle is _BROKEN:
                            self.stats.invalid += 1
                            self.stats.misses += 1
                            continue
                        try:
                            handle.seek(span[0])
                            raw = handle.read(span[1])
                        except OSError:
                            self.stats.invalid += 1
                            self.stats.misses += 1
                            continue
                    value = self._decode_slice(key, raw, decode)
                    if value is _INVALID:
                        self._quarantine_slice(key, shard, raw, state)
                        self.stats.invalid += 1
                        self.stats.misses += 1
                        continue
                    self.stats.hits += 1
                    out[key] = value
            finally:
                if handle is not None and handle is not _BROKEN:
                    handle.close()
        return out

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        plan = self.fault_plan
        if plan is not None:
            spec = plan.store_fault("write", key)
            if spec is not None:
                self._faulted_pack_write(key, spec, payload)
                return
        shard = key[:2]
        state = self._ensure_shard(shard)
        if state is None:
            state = self._fresh_state(self._generation(shard))
            self._packs[shard] = state
        line = self._encode_line(key, payload)
        torn = state["size"] > state["scanned"]
        buf = b"\n" + line if torn else line
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._pack_path(shard),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, buf)
            # O_APPEND leaves the fd positioned at the end of *our*
            # write even when another process appended in between, so
            # the record's true offset is exact, not assumed.
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        start = end - len(line)
        old = state["offsets"].get(key)
        if old is not None:
            state["dead"] += old[1]
        state["offsets"][key] = (start, len(line))
        expected = state["size"] + (1 if torn else 0)
        if start == expected:
            # Nobody slipped in: the healed torn bytes (if any) are
            # one dead line and the scan frontier advances past us.
            state["dead"] += start - state["scanned"]
            state["scanned"] = end
        # else: a foreign append landed first; leave ``scanned`` where
        # it is and let the next reconcile scan the middle region.
        state["size"] = end
        state["dirty"] = True
        self.stats.stores += 1

    def _faulted_pack_write(self, key: str, spec, payload: Any) -> None:
        """Chaos-only: what a dying packed writer leaves behind.

        ``corrupt`` appends a truncated record with **no newline** — the
        packed layout's torn tail, healed by the next append and never
        indexed.  ``partial`` appends a structurally valid line with no
        completeness marker, which scans into the offset map and is
        quarantined on first read, exactly like the per-file layout's
        partial entry."""
        from ..faults import FaultKind

        if spec.kind is FaultKind.IO_ERROR:
            raise OSError(f"injected store write error ({key[:12]}...)")
        if spec.kind is FaultKind.CORRUPT_WRITE:
            buf = b'{"complete": tru'
        else:  # PARTIAL_WRITE
            buf = (json.dumps({"format": STORE_FORMAT, "key": key,
                               "payload": payload}, sort_keys=True)
                   + "\n").encode("utf-8")
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._pack_path(key[:2]),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, buf)
        finally:
            os.close(fd)
        # The writer believed it stored the entry — count it so the
        # chaos battery can see the lie in the counters.  The stale
        # in-memory state reconciles on the next size check.
        self.stats.stores += 1

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> "Iterator[Tuple[str, Path]]":
        for shard in self.shards():
            state = self._ensure_shard(shard)
            if state is None:
                continue
            path = self._pack_path(shard)
            for key in sorted(state["offsets"]):
                yield key, path

    def shard_payloads(self, shard: str) -> "Dict[str, Any]":
        """Every valid payload of one shard, keyed by entry key — the
        bulk-preload primitive hot-shard rebalancing uses.  Does not
        touch the lookup counters."""
        state = self._ensure_shard(shard)
        if state is None:
            return {}
        out: "Dict[str, Any]" = {}
        try:
            with open(self._pack_path(shard), "rb") as handle:
                for key in sorted(state["offsets"]):
                    span = state["offsets"][key]
                    handle.seek(span[0])
                    raw = handle.read(span[1])
                    try:
                        data = json.loads(raw.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        continue
                    if (isinstance(data, dict)
                            and data.get("format") == STORE_FORMAT
                            and data.get("complete") is True
                            and data.get("key") == key
                            and "payload" in data):
                        out[key] = data["payload"]
        except OSError:
            return out
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
                path.unlink()
            except OSError:
                pass
            self._packs.pop(shard, None)
            self._bump_generation(shard)
            return old_size, 0
        slices: "List[bytes]" = []
        with open(path, "rb") as handle:
            for key in keys:
                span = state["offsets"][key]
                handle.seek(span[0])
                slices.append(handle.read(span[1]))
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root),
                                        prefix=".tmp-", suffix=".pack")
        try:
            with os.fdopen(fd, "wb") as handle:
                for raw in slices:
                    handle.write(raw)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        generation = self._bump_generation(shard)
        new_state = self._fresh_state(generation)
        offset = 0
        for key, raw in zip(keys, slices):
            new_state["offsets"][key] = (offset, len(raw))
            offset += len(raw)
        new_state["scanned"] = offset
        new_state["size"] = offset
        new_state["dirty"] = True
        self._packs[shard] = new_state
        if self.use_index:
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
           dry_run: bool = False) -> "GCStats":
        """Mark-and-sweep for the packed layout.

        Packs are *rewritten* keeping only live records (byte-identical
        slices) instead of unlinking per-entry files; a shard whose
        records are all live and dead-byte-free is left untouched.
        ``.quarantine`` and ``.journal`` survive, stale ``.tmp-*``
        droppings go, and every rewritten shard gets a generation bump
        so stale sidecars are never trusted.

        ``dry_run=True`` returns the same accounting without touching
        any pack: a rewrite emits exactly the live slices, so the
        reclaimable bytes of an unclean shard are computable as
        ``current pack size - live slice bytes`` up front.
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
            clean = (removed == 0 and state["dead"] == 0
                     and state["scanned"] == state["size"])
            stats.kept += len(kept_keys)
            stats.kept_bytes += kept_bytes
            if clean:
                continue
            if dry_run:
                stats.removed += removed
                stats.reclaimed_bytes += state["size"] - kept_bytes
                continue
            old_size, new_size = self._rewrite_pack(
                shard, kept_keys, state)
            stats.removed += removed
            stats.reclaimed_bytes += old_size - new_size
        for stale in self.root.glob(".tmp-*"):
            if stale.is_file():
                stats.reclaimed_bytes += stale.stat().st_size
                if not dry_run:
                    stale.unlink()
                stats.removed_tmp += 1
        index_dir = self.root / ".index"
        if index_dir.is_dir():
            for index_file in index_dir.iterdir():
                shard = index_file.name.split(".")[0]
                if not shard:
                    stats.reclaimed_bytes += index_file.stat().st_size
                    if not dry_run:
                        index_file.unlink()
                    stats.removed_tmp += 1
                    continue
                if not self._pack_path(shard).is_file():
                    stats.reclaimed_bytes += index_file.stat().st_size
                    if not dry_run:
                        index_file.unlink()
                    stats.removed_index += 1
            if not dry_run:
                try:
                    index_dir.rmdir()  # only succeeds when emptied
                except OSError:
                    pass
        return stats


def open_store(root: Union[str, Path], layout: str = "auto",
               use_index: bool = True) -> CampaignStore:
    """Open ``root`` with the right layout.

    ``auto`` detects an existing packed store by its ``*.pack`` files
    and otherwise defaults to the per-file layout (an empty directory is
    a per-file store — the historical default, and what the one-shot CLI
    keeps using).  ``file`` / ``packed`` force a layout; forcing
    ``file`` on a packed root (or vice versa) simply sees an empty
    store, it never mis-reads the other layout's bytes.
    """
    root = Path(root)
    if layout == "auto":
        layout = "packed" if any(root.glob("*.pack")) else "file"
    if layout == "packed":
        return PackedCampaignStore(root, use_index=use_index)
    if layout != "file":
        raise ValueError(f"unknown store layout: {layout!r}")
    return CampaignStore(root, use_index=use_index)
