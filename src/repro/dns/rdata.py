"""RDATA types used by the root zone and the measurement suite.

Each class provides wire encode/decode, presentation-format text, and the
DNSSEC *canonical* wire form (RFC 4034 §6.2: embedded names lowercased and
never compressed) used by RRSIG and ZONEMD digest computation.
"""

from __future__ import annotations

import base64
import ipaddress
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Tuple, Type

from repro.dns.constants import RRType
from repro.dns.name import Name


class RdataError(ValueError):
    """Malformed RDATA."""


class Rdata:
    """Base class for typed RDATA; subclasses register by RR type."""

    rrtype: ClassVar[RRType]
    _registry: ClassVar[Dict[int, Type["Rdata"]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "rrtype"):
            Rdata._registry[int(cls.rrtype)] = cls

    # subclasses implement these -------------------------------------------------
    def to_wire(self) -> bytes:
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError

    # shared ----------------------------------------------------------------------
    def canonical_wire(self) -> bytes:
        """RFC 4034 §6.2 canonical RDATA; overridden where names embed."""
        return self.to_wire()

    @staticmethod
    def parse(rrtype: int, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        """Decode RDATA of *rrtype*; unknown types become :class:`Generic`."""
        cls = Rdata._registry.get(int(rrtype))
        if cls is None:
            return Generic.decode_as(rrtype, wire, offset, rdlength)
        return cls.decode(wire, offset, rdlength)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rdata):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.canonical_wire() == other.canonical_wire()
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.canonical_wire()))


@dataclass(frozen=True, eq=False)
class Generic(Rdata):
    """Opaque RDATA for types we do not interpret (RFC 3597 style)."""

    type_value: int
    data: bytes

    def to_wire(self) -> bytes:
        return self.data

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"

    @classmethod
    def decode_as(cls, rrtype: int, wire: bytes, offset: int, rdlength: int) -> "Generic":
        return cls(type_value=int(rrtype), data=wire[offset : offset + rdlength])

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise RdataError("Generic.decode requires a type; use decode_as")


@dataclass(frozen=True, eq=False)
class A(Rdata):
    """IPv4 address record."""

    rrtype: ClassVar[RRType] = RRType.A
    address: str

    def __post_init__(self) -> None:
        ipaddress.IPv4Address(self.address)  # validates

    def to_wire(self) -> bytes:
        return ipaddress.IPv4Address(self.address).packed

    def to_text(self) -> str:
        return self.address

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "A":
        if rdlength != 4:
            raise RdataError(f"A rdata must be 4 bytes, got {rdlength}")
        return cls(str(ipaddress.IPv4Address(wire[offset : offset + 4])))


@dataclass(frozen=True, eq=False)
class AAAA(Rdata):
    """IPv6 address record."""

    rrtype: ClassVar[RRType] = RRType.AAAA
    address: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "address", str(ipaddress.IPv6Address(self.address))
        )

    def to_wire(self) -> bytes:
        return ipaddress.IPv6Address(self.address).packed

    def to_text(self) -> str:
        return self.address

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise RdataError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return cls(str(ipaddress.IPv6Address(wire[offset : offset + 16])))


@dataclass(frozen=True, eq=False)
class NS(Rdata):
    """Delegation name server."""

    rrtype: ClassVar[RRType] = RRType.NS
    target: Name

    def to_wire(self) -> bytes:
        return self.target.to_wire()

    def canonical_wire(self) -> bytes:
        return self.target.canonical_wire()

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "NS":
        name, _end = Name.from_wire(wire, offset)
        return cls(name)


@dataclass(frozen=True, eq=False)
class CNAME(Rdata):
    """Canonical name alias."""

    rrtype: ClassVar[RRType] = RRType.CNAME
    target: Name

    def to_wire(self) -> bytes:
        return self.target.to_wire()

    def canonical_wire(self) -> bytes:
        return self.target.canonical_wire()

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "CNAME":
        name, _end = Name.from_wire(wire, offset)
        return cls(name)


@dataclass(frozen=True, eq=False)
class PTR(Rdata):
    """Pointer record."""

    rrtype: ClassVar[RRType] = RRType.PTR
    target: Name

    def to_wire(self) -> bytes:
        return self.target.to_wire()

    def canonical_wire(self) -> bytes:
        return self.target.canonical_wire()

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "PTR":
        name, _end = Name.from_wire(wire, offset)
        return cls(name)


@dataclass(frozen=True, eq=False)
class MX(Rdata):
    """Mail exchanger."""

    rrtype: ClassVar[RRType] = RRType.MX
    preference: int
    exchange: Name

    def to_wire(self) -> bytes:
        return struct.pack("!H", self.preference) + self.exchange.to_wire()

    def canonical_wire(self) -> bytes:
        return struct.pack("!H", self.preference) + self.exchange.canonical_wire()

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "MX":
        (pref,) = struct.unpack_from("!H", wire, offset)
        name, _end = Name.from_wire(wire, offset + 2)
        return cls(pref, name)


@dataclass(frozen=True, eq=False)
class SOA(Rdata):
    """Start of authority — carries the zone serial the study tracks."""

    rrtype: ClassVar[RRType] = RRType.SOA
    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def _tail(self) -> bytes:
        return struct.pack(
            "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    def to_wire(self) -> bytes:
        return self.mname.to_wire() + self.rname.to_wire() + self._tail()

    def canonical_wire(self) -> bytes:
        return self.mname.canonical_wire() + self.rname.canonical_wire() + self._tail()

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "SOA":
        mname, pos = Name.from_wire(wire, offset)
        rname, pos = Name.from_wire(wire, pos)
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", wire, pos)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


@dataclass(frozen=True, eq=False)
class TXT(Rdata):
    """Text record; used for CHAOS identity answers (hostname.bind etc.)."""

    rrtype: ClassVar[RRType] = RRType.TXT
    strings: Tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.strings:
            raise RdataError("TXT needs at least one string")
        for s in self.strings:
            if len(s) > 255:
                raise RdataError("TXT string exceeds 255 octets")

    @classmethod
    def from_string(cls, text: str) -> "TXT":
        """Build from one unicode string (split if > 255 octets)."""
        raw = text.encode("utf-8")
        chunks = tuple(raw[i : i + 255] for i in range(0, len(raw), 255)) or (b"",)
        return cls(strings=chunks)

    def single_text(self) -> str:
        """All strings joined and decoded — convenient for identities."""
        return b"".join(self.strings).decode("utf-8", "replace")

    def to_wire(self) -> bytes:
        out = bytearray()
        for s in self.strings:
            out.append(len(s))
            out.extend(s)
        return bytes(out)

    def to_text(self) -> str:
        return " ".join('"' + s.decode("utf-8", "replace") + '"' for s in self.strings)

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "TXT":
        end = offset + rdlength
        strings: List[bytes] = []
        pos = offset
        while pos < end:
            length = wire[pos]
            pos += 1
            if pos + length > end:
                raise RdataError("truncated TXT string")
            strings.append(wire[pos : pos + length])
            pos += length
        if not strings:
            strings = [b""]
        return cls(tuple(strings))


@dataclass(frozen=True, eq=False)
class DS(Rdata):
    """Delegation signer digest."""

    rrtype: ClassVar[RRType] = RRType.DS
    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes

    def to_wire(self) -> bytes:
        return (
            struct.pack("!HBB", self.key_tag, self.algorithm, self.digest_type)
            + self.digest
        )

    def to_text(self) -> str:
        return (
            f"{self.key_tag} {self.algorithm} {self.digest_type} "
            f"{self.digest.hex().upper()}"
        )

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "DS":
        key_tag, alg, dtype = struct.unpack_from("!HBB", wire, offset)
        return cls(key_tag, alg, dtype, wire[offset + 4 : offset + rdlength])


@dataclass(frozen=True, eq=False)
class DNSKEY(Rdata):
    """Zone key (RFC 4034 §2)."""

    rrtype: ClassVar[RRType] = RRType.DNSKEY
    flags: int
    protocol: int
    algorithm: int
    public_key: bytes

    def to_wire(self) -> bytes:
        return (
            struct.pack("!HBB", self.flags, self.protocol, self.algorithm)
            + self.public_key
        )

    def to_text(self) -> str:
        b64 = base64.b64encode(self.public_key).decode("ascii")
        return f"{self.flags} {self.protocol} {self.algorithm} {b64}"

    def key_tag(self) -> int:
        """RFC 4034 Appendix B key-tag computation."""
        wire = self.to_wire()
        acc = 0
        for i, byte in enumerate(wire):
            acc += byte << 8 if i % 2 == 0 else byte
        acc += (acc >> 16) & 0xFFFF
        return acc & 0xFFFF

    def is_sep(self) -> bool:
        """True if the SEP (KSK) flag bit is set."""
        return bool(self.flags & 0x0001)

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "DNSKEY":
        flags, protocol, algorithm = struct.unpack_from("!HBB", wire, offset)
        return cls(flags, protocol, algorithm, wire[offset + 4 : offset + rdlength])


@dataclass(frozen=True, eq=False)
class RRSIG(Rdata):
    """Resource record signature (RFC 4034 §3)."""

    rrtype: ClassVar[RRType] = RRType.RRSIG
    type_covered: int
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer: Name
    signature: bytes

    def _head(self) -> bytes:
        return struct.pack(
            "!HBBIIIH",
            self.type_covered,
            self.algorithm,
            self.labels,
            self.original_ttl,
            self.expiration,
            self.inception,
            self.key_tag,
        )

    def to_wire(self) -> bytes:
        return self._head() + self.signer.to_wire() + self.signature

    def canonical_wire(self) -> bytes:
        # RFC 4034 §6.2: the signer name in RRSIG is *not* lowercased when
        # computing digests covering the RRSIG itself, but for our equality
        # semantics we still use lowercase to keep comparisons stable.
        return self._head() + self.signer.canonical_wire() + self.signature

    def signed_data_prefix(self) -> bytes:
        """RDATA with the Signature field removed — the RRSIG_RDATA input
        to signature computation (RFC 4034 §3.1.8.1)."""
        return self._head() + self.signer.canonical_wire()

    def to_text(self) -> str:
        b64 = base64.b64encode(self.signature).decode("ascii")
        covered = RRType(self.type_covered).name if self.type_covered in RRType._value2member_map_ else str(self.type_covered)
        return (
            f"{covered} {self.algorithm} {self.labels} {self.original_ttl} "
            f"{self.expiration} {self.inception} {self.key_tag} "
            f"{self.signer.to_text()} {b64}"
        )

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "RRSIG":
        (covered, alg, labels, ottl, exp, inc, tag) = struct.unpack_from(
            "!HBBIIIH", wire, offset
        )
        signer, pos = Name.from_wire(wire, offset + 18)
        return cls(covered, alg, labels, ottl, exp, inc, tag, signer, wire[pos : offset + rdlength])


def _encode_type_bitmaps(types: Tuple[int, ...]) -> bytes:
    """NSEC type bitmap encoding (RFC 4034 §4.1.2)."""
    windows: Dict[int, bytearray] = {}
    for t in sorted(set(types)):
        window, low = divmod(t, 256)
        bits = windows.setdefault(window, bytearray(32))
        bits[low // 8] |= 0x80 >> (low % 8)
    out = bytearray()
    for window in sorted(windows):
        bits = windows[window]
        # trim trailing zero octets
        length = len(bits)
        while length > 0 and bits[length - 1] == 0:
            length -= 1
        if length == 0:
            continue
        out.append(window)
        out.append(length)
        out.extend(bits[:length])
    return bytes(out)


def _decode_type_bitmaps(data: bytes) -> Tuple[int, ...]:
    types: List[int] = []
    pos = 0
    while pos < len(data):
        if pos + 2 > len(data):
            raise RdataError("truncated NSEC bitmap header")
        window = data[pos]
        length = data[pos + 1]
        if length == 0 or length > 32:
            raise RdataError(f"bad NSEC bitmap length {length}")
        pos += 2
        if pos + length > len(data):
            raise RdataError("truncated NSEC bitmap")
        for i in range(length):
            byte = data[pos + i]
            for bit in range(8):
                if byte & (0x80 >> bit):
                    types.append(window * 256 + i * 8 + bit)
        pos += length
    return tuple(types)


@dataclass(frozen=True, eq=False)
class NSEC(Rdata):
    """Authenticated denial-of-existence chain link (RFC 4034 §4)."""

    rrtype: ClassVar[RRType] = RRType.NSEC
    next_name: Name
    types: Tuple[int, ...] = field(default_factory=tuple)

    def to_wire(self) -> bytes:
        return self.next_name.to_wire() + _encode_type_bitmaps(self.types)

    def canonical_wire(self) -> bytes:
        # Memoised: the same chain link is signed, sorted and digested in
        # every zone version, and the bitmap encoding dominates.
        cached = self.__dict__.get("_cw")
        if cached is None:
            cached = self.next_name.canonical_wire() + _encode_type_bitmaps(self.types)
            object.__setattr__(self, "_cw", cached)
        return cached

    def to_text(self) -> str:
        mnemonics = []
        for t in sorted(set(self.types)):
            mnemonics.append(
                RRType(t).name if t in RRType._value2member_map_ else f"TYPE{t}"
            )
        return f"{self.next_name.to_text()} {' '.join(mnemonics)}".rstrip()

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "NSEC":
        next_name, pos = Name.from_wire(wire, offset)
        return cls(next_name, _decode_type_bitmaps(wire[pos : offset + rdlength]))


@dataclass(frozen=True, eq=False)
class ZONEMD(Rdata):
    """Zone message digest (RFC 8976) — the record whose roll-out RQ3 studies."""

    rrtype: ClassVar[RRType] = RRType.ZONEMD
    serial: int
    scheme: int
    hash_algorithm: int
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) < 12:
            raise RdataError("ZONEMD digest must be at least 12 octets (RFC 8976 §2.2.3)")

    def to_wire(self) -> bytes:
        return struct.pack("!IBB", self.serial, self.scheme, self.hash_algorithm) + self.digest

    def to_text(self) -> str:
        return f"{self.serial} {self.scheme} {self.hash_algorithm} {self.digest.hex().upper()}"

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "ZONEMD":
        serial, scheme, alg = struct.unpack_from("!IBB", wire, offset)
        return cls(serial, scheme, alg, wire[offset + 6 : offset + rdlength])


@dataclass(frozen=True, eq=False)
class OPT(Rdata):
    """EDNS0 pseudo-record payload (options opaque)."""

    rrtype: ClassVar[RRType] = RRType.OPT
    options: bytes = b""

    def to_wire(self) -> bytes:
        return self.options

    def to_text(self) -> str:
        return f"; EDNS opts={self.options.hex()}"

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "OPT":
        return cls(wire[offset : offset + rdlength])
