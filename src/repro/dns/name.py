"""Domain names: text <-> label <-> wire forms, canonical ordering.

Implements the pieces of RFC 1035 (labels, wire encoding, compression
pointers on decode) and RFC 4034 §6 (canonical form and canonical ordering)
that DNSSEC signing, ZONEMD digesting and AXFR serialisation depend on.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Malformed domain name."""


def _unescape(text: str) -> List[bytes]:
    """Split presentation-format text into raw labels, handling ``\\.``."""
    labels: List[bytes] = []
    current = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise NameError_(f"dangling escape in {text!r}")
            nxt = text[i + 1]
            if nxt.isdigit():
                if i + 3 >= len(text) or not text[i + 1 : i + 4].isdigit():
                    raise NameError_(f"bad decimal escape in {text!r}")
                current.append(int(text[i + 1 : i + 4]))
                i += 4
            else:
                current.append(ord(nxt))
                i += 2
        elif ch == ".":
            labels.append(bytes(current))
            current = bytearray()
            i += 1
        else:
            current.append(ord(ch))
            i += 1
    labels.append(bytes(current))
    return labels


def _escape_label(label: bytes) -> str:
    out = []
    for b in label:
        ch = chr(b)
        if ch in ".\\":
            out.append("\\" + ch)
        elif 0x21 <= b <= 0x7E:
            out.append(ch)
        else:
            out.append(f"\\{b:03d}")
    return "".join(out)


class Name:
    """An absolute domain name (always fully qualified).

    Immutable and hashable; comparisons are case-insensitive per RFC 1035
    §2.3.3, and :meth:`canonical_key` provides RFC 4034 §6.1 ordering.
    """

    __slots__ = ("_labels", "_lowered_labels", "_hash")

    def __init__(self, labels: Iterable[bytes]) -> None:
        labels = tuple(labels)
        # Normalise away an explicit root label at the end.
        if labels and labels[-1] == b"":
            labels = labels[:-1]
        for label in labels:
            if not label:
                raise NameError_("empty interior label")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label exceeds 63 octets: {label!r}")
        wire_len = sum(len(l) + 1 for l in labels) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds 255 octets ({wire_len})")
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_lowered_labels", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_args) -> None:  # pragma: no cover - immutability
        raise AttributeError("Name is immutable")

    def __reduce__(self):
        # Slots + the blocked __setattr__ break default pickling;
        # rebuild through the constructor instead.
        return (Name, (self._labels,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format.  ``"."`` is the root."""
        if text in (".", ""):
            return cls(())
        if text.endswith(".") and not text.endswith("\\."):
            text = text[:-1]
        labels = _unescape(text)
        return cls(labels)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int = 0) -> Tuple["Name", int]:
        """Decode from wire format, following compression pointers.

        Returns ``(name, next_offset)`` where ``next_offset`` is the offset
        just past the name *in the original stream* (pointers do not move
        the stream position forward).
        """
        labels: List[bytes] = []
        jumps = 0
        cursor = offset
        end = -1
        while True:
            if cursor >= len(wire):
                raise NameError_("truncated name")
            length = wire[cursor]
            if length & 0xC0 == 0xC0:
                if cursor + 1 >= len(wire):
                    raise NameError_("truncated compression pointer")
                target = ((length & 0x3F) << 8) | wire[cursor + 1]
                if end < 0:
                    end = cursor + 2
                if target >= cursor:
                    raise NameError_("forward compression pointer")
                cursor = target
                jumps += 1
                if jumps > 128:
                    raise NameError_("compression pointer loop")
            elif length & 0xC0:
                raise NameError_(f"reserved label type 0x{length:02x}")
            elif length == 0:
                if end < 0:
                    end = cursor + 1
                return cls(labels), end
            else:
                if cursor + 1 + length > len(wire):
                    raise NameError_("truncated label")
                labels.append(wire[cursor + 1 : cursor + 1 + length])
                cursor += 1 + length

    # -- accessors ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        """Labels from leftmost to rightmost, excluding the root label."""
        return self._labels

    def is_root(self) -> bool:
        """True for ``"."`` — the name this whole study is about."""
        return not self._labels

    def parent(self) -> "Name":
        """Name with the leftmost label removed."""
        if self.is_root():
            raise NameError_("root has no parent")
        return Name(self._labels[1:])

    def is_subdomain_of(self, ancestor: "Name") -> bool:
        """True if *self* equals or falls under *ancestor*."""
        alab = ancestor.lowered()._labels
        slab = self.lowered()._labels
        if len(alab) > len(slab):
            return False
        return slab[len(slab) - len(alab) :] == alab

    def concatenate(self, suffix: "Name") -> "Name":
        """Append *suffix*'s labels after this name's labels."""
        return Name(self._labels + suffix._labels)

    # -- encodings ---------------------------------------------------------

    def to_wire(self) -> bytes:
        """Uncompressed wire form (compression is legal but optional)."""
        out = bytearray()
        for label in self._labels:
            out.append(len(label))
            out.extend(label)
        out.append(0)
        return bytes(out)

    def to_text(self) -> str:
        """Presentation format, always with a trailing dot."""
        if self.is_root():
            return "."
        return ".".join(_escape_label(l) for l in self._labels) + "."

    def _lowered(self) -> Tuple[bytes, ...]:
        """Memoised lowercase labels (names are immutable, so cache)."""
        cached = self._lowered_labels
        if cached is None:
            cached = tuple(label.lower() for label in self._labels)
            object.__setattr__(self, "_lowered_labels", cached)
        return cached

    def lowered(self) -> "Name":
        """Canonical (lowercased) form per RFC 4034 §6.2."""
        return Name(self._lowered())

    def canonical_wire(self) -> bytes:
        """Lowercased, uncompressed wire form (DNSSEC canonical form)."""
        out = bytearray()
        for label in self._lowered():
            out.append(len(label))
            out.extend(label)
        out.append(0)
        return bytes(out)

    def canonical_key(self) -> Tuple[bytes, ...]:
        """Sort key implementing RFC 4034 §6.1 canonical name order.

        Names sort by comparing labels right-to-left (most significant
        last label first), each label as lowercase raw octets.
        """
        return tuple(reversed(self._lowered()))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._lowered() == other._lowered()

    def __hash__(self) -> int:
        # Memoised: zone grouping and lookups hash every owner name.
        cached = self._hash
        if cached is None:
            cached = hash(self._lowered())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __lt__(self, other: "Name") -> bool:
        return self.canonical_key() < other.canonical_key()

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


#: The root name — the subject of the paper.
ROOT_NAME = Name(())
