"""Domain names with RFC 1035 wire encoding and compression.

Names are immutable tuples of label bytes, compared case-insensitively
(RFC 1035 §2.3.3).  The codec supports compression pointers on encode
(shared suffix table) and decode (pointer chasing with loop protection),
which the property-based round-trip tests exercise heavily.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from ..memo import BoundedMemo
from .errors import CompressionLoopError, MessageError, NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
_POINTER_MASK = 0xC0


#: Memo for :meth:`DNSName.from_text`; simulations build the same
#: handful of query names millions of times (every run constructs the
#: same zone and the same queries), and names are immutable, so the
#: instances can be shared freely.
_FROM_TEXT_CACHE = BoundedMemo()


class DNSName:
    """An absolute domain name (always fully qualified)."""

    __slots__ = ("_labels", "_folded", "_wire")

    def __init__(self, labels: Iterable[bytes]) -> None:
        labels = tuple(labels)
        for label in labels:
            if not isinstance(label, bytes):
                raise NameError_(f"label must be bytes, got {label!r}")
            if not label:
                raise NameError_("empty label inside a name")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label exceeds {MAX_LABEL_LENGTH} bytes: {label!r}")
        wire_length = sum(len(l) + 1 for l in labels) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise NameError_(
                f"name exceeds {MAX_NAME_LENGTH} bytes on the wire")
        self._labels = labels
        self._folded = tuple(l.lower() for l in labels)
        self._wire: Optional[bytes] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "DNSName":
        """Parse ``"www.example.com"`` (trailing dot optional, memoized)."""
        cached = _FROM_TEXT_CACHE.get(text)
        if cached is not None:
            return cached
        if text in (".", ""):
            name = cls(())
        else:
            stripped = text.rstrip(".")
            if not stripped:
                raise NameError_(f"bad name text: {text!r}")
            labels = []
            for part in stripped.split("."):
                if not part:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(part.encode("ascii"))
            name = cls(labels)
        return _FROM_TEXT_CACHE.put(text, name)

    @classmethod
    def _from_wire_labels(cls, labels: "list[bytes]") -> "DNSName":
        """Fast constructor for :meth:`decode`.

        The decode loop has already enforced the per-label invariants
        (non-empty, ≤63 bytes — a length byte without pointer bits can
        say nothing else) and the total wire length, so this skips the
        per-label validation pass of ``__init__``.
        """
        self = object.__new__(cls)
        self._labels = tuple(labels)
        self._folded = tuple(l.lower() for l in labels)
        self._wire = None
        return self

    @classmethod
    def root(cls) -> "DNSName":
        return cls(())

    # -- structure -------------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        if self.is_root:
            return "."
        return ".".join(l.decode("ascii", "replace")
                        for l in self._labels) + "."

    @classmethod
    def _compose(cls, labels: "Tuple[bytes, ...]",
                 folded: "Tuple[bytes, ...]") -> "DNSName":
        """Build from already-validated label tuples (no re-validation)."""
        self = object.__new__(cls)
        self._labels = labels
        self._folded = folded
        self._wire = None
        return self

    def parent(self) -> "DNSName":
        if self.is_root:
            raise NameError_("root has no parent")
        return DNSName._compose(self._labels[1:], self._folded[1:])

    def prepend(self, label: Union[str, bytes]) -> "DNSName":
        if isinstance(label, str):
            label = label.encode("ascii")
        if not isinstance(label, bytes):
            raise NameError_(f"label must be bytes, got {label!r}")
        if not label:
            raise NameError_("empty label inside a name")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(
                f"label exceeds {MAX_LABEL_LENGTH} bytes: {label!r}")
        labels = (label,) + self._labels
        if sum(len(l) + 1 for l in labels) + 1 > MAX_NAME_LENGTH:
            raise NameError_(
                f"name exceeds {MAX_NAME_LENGTH} bytes on the wire")
        return DNSName._compose(labels, (label.lower(),) + self._folded)

    def concatenate(self, suffix: "DNSName") -> "DNSName":
        labels = self._labels + suffix._labels
        if sum(len(l) + 1 for l in labels) + 1 > MAX_NAME_LENGTH:
            raise NameError_(
                f"name exceeds {MAX_NAME_LENGTH} bytes on the wire")
        return DNSName._compose(labels, self._folded + suffix._folded)

    def is_subdomain_of(self, other: "DNSName") -> bool:
        """True if self is ``other`` or ends with ``other``'s labels."""
        if len(other._folded) > len(self._folded):
            return False
        if not other._folded:
            return True
        return self._folded[-len(other._folded):] == other._folded

    def relativize(self, origin: "DNSName") -> Tuple[bytes, ...]:
        """Labels of self with ``origin`` stripped from the right."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        count = len(self._labels) - len(origin.labels)
        return self._labels[:count]

    @property
    def first_label(self) -> bytes:
        if self.is_root:
            raise NameError_("root has no labels")
        return self._labels[0]

    def __len__(self) -> int:
        return len(self._labels)

    # -- comparison (case-insensitive) ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNSName):
            return NotImplemented
        return self._folded == other._folded

    def __hash__(self) -> int:
        return hash(self._folded)

    def __lt__(self, other: "DNSName") -> bool:
        # Canonical DNS ordering: compare reversed label sequences.
        return tuple(reversed(self._folded)) < tuple(reversed(other._folded))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"DNSName({self.to_text()!r})"

    # -- wire format -------------------------------------------------------------

    def encode(self, compression: Optional[Dict[Tuple[bytes, ...], int]] = None,
               offset: int = 0) -> bytes:
        """Wire-encode, optionally using/extending a compression table.

        ``compression`` maps folded label suffixes to message offsets;
        ``offset`` is where this name starts in the message.
        """
        if compression is None:
            # Uncompressed wire is offset-independent; cache it on the
            # instance (names are interned and re-encoded constantly).
            wire = self._wire
            if wire is None:
                out = bytearray()
                for label in self._labels:
                    out.append(len(label))
                    out += label
                out.append(0)
                self._wire = wire = bytes(out)
            return wire
        out = bytearray()
        labels = self._labels
        for index in range(len(labels)):
            suffix = self._folded[index:]
            if compression is not None:
                pointer = compression.get(suffix)
                if pointer is not None and pointer < 0x4000:
                    out += bytes(((_POINTER_MASK | (pointer >> 8)),
                                  pointer & 0xFF))
                    return bytes(out)
                if offset + len(out) < 0x4000:
                    compression[suffix] = offset + len(out)
            label = labels[index]
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["DNSName", int]:
        """Decode a name at ``offset``; returns (name, offset-after-name)."""
        labels = []
        jumps = 0
        cursor = offset
        wire_length = 1
        end_offset: Optional[int] = None
        seen_pointers = set()
        size = len(wire)
        while True:
            if cursor >= size:
                raise MessageError("truncated name")
            length = wire[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
                if cursor + 1 >= size:
                    raise MessageError("truncated compression pointer")
                pointer = ((length & ~_POINTER_MASK) << 8) | wire[cursor + 1]
                if end_offset is None:
                    end_offset = cursor + 2
                if pointer in seen_pointers or pointer >= cursor:
                    raise CompressionLoopError(
                        f"bad compression pointer {pointer} at {cursor}")
                seen_pointers.add(pointer)
                jumps += 1
                if jumps > 128:
                    raise CompressionLoopError("too many compression jumps")
                cursor = pointer
                continue
            if length & _POINTER_MASK:
                raise MessageError(f"reserved label type {length:#x}")
            cursor += 1
            if length == 0:
                break
            if cursor + length > size:
                raise MessageError("label runs past end of message")
            wire_length += length + 1
            if wire_length > MAX_NAME_LENGTH:
                raise NameError_(
                    f"name exceeds {MAX_NAME_LENGTH} bytes on the wire")
            labels.append(wire[cursor:cursor + length])
            cursor += length
        if end_offset is None:
            end_offset = cursor
        return cls._from_wire_labels(labels), end_offset
