"""Resource records and RRsets.

An :class:`RRset` groups records sharing (name, class, type); DNSSEC signs
and ZONEMD digests operate on RRsets in canonical order (RFC 4034 §6.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.dns.constants import RRClass, RRType
from repro.dns.name import Name
from repro.dns.rdata import Rdata


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record."""

    name: Name
    rrtype: RRType
    rrclass: RRClass
    ttl: int
    rdata: Rdata

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 0xFFFFFFFF:
            raise ValueError(f"TTL out of range: {self.ttl}")

    def to_wire(self) -> bytes:
        """Standard wire form (uncompressed owner name)."""
        rdata_wire = self.rdata.to_wire()
        return (
            self.name.to_wire()
            + struct.pack("!HHIH", int(self.rrtype), int(self.rrclass), self.ttl, len(rdata_wire))
            + rdata_wire
        )

    def canonical_wire(self, original_ttl: int = None) -> bytes:
        """RFC 4034 §6.2 canonical form used in digests and signatures.

        *original_ttl* replaces the TTL when digesting under an RRSIG whose
        Original TTL field differs (RFC 4034 §6.2 clause 4).  Results are
        memoised per TTL — records are immutable and the canonical form is
        recomputed millions of times during signing, digesting and AXFR.
        """
        ttl = self.ttl if original_ttl is None else original_ttl
        cache = self.__dict__.get("_cw_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cw_cache", cache)
        cached = cache.get(ttl)
        if cached is None:
            rdata_wire = self.canonical_rdata()
            cached = (
                self.name.canonical_wire()
                + struct.pack(
                    "!HHIH", int(self.rrtype), int(self.rrclass), ttl, len(rdata_wire)
                )
                + rdata_wire
            )
            cache[ttl] = cached
        return cached

    def canonical_rdata(self) -> bytes:
        """The RDATA's RFC 4034 §6.2 canonical wire, memoised: ZONEMD
        and RRset ordering sort every record by it, and an A/AAAA RDATA
        re-parses its address text on each call."""
        cached = self.__dict__.get("_crd")
        if cached is None:
            cached = self.rdata.canonical_wire()
            object.__setattr__(self, "_crd", cached)
        return cached

    @classmethod
    def from_wire(cls, wire: bytes, offset: int) -> Tuple["ResourceRecord", int]:
        """Decode one record; returns (record, next_offset)."""
        name, pos = Name.from_wire(wire, offset)
        rrtype, rrclass, ttl, rdlength = struct.unpack_from("!HHIH", wire, pos)
        pos += 10
        if pos + rdlength > len(wire):
            raise ValueError("truncated RDATA")
        rdata = Rdata.parse(rrtype, wire, pos, rdlength)
        try:
            rrtype_enum = RRType(rrtype)
        except ValueError:
            rrtype_enum = rrtype  # type: ignore[assignment]
        try:
            rrclass_enum = RRClass(rrclass)
        except ValueError:
            rrclass_enum = rrclass  # type: ignore[assignment]
        return cls(name, rrtype_enum, rrclass_enum, ttl, rdata), pos + rdlength

    def to_text(self) -> str:
        """Master-file presentation line."""
        return (
            f"{self.name.to_text()}\t{self.ttl}\t{RRClass(self.rrclass).name}\t"
            f"{RRType(self.rrtype).name}\t{self.rdata.to_text()}"
        )

    def key(self) -> Tuple[Name, int, int]:
        """(owner, class, type) triple identifying this record's RRset."""
        return (self.name, int(self.rrclass), int(self.rrtype))


class RRset:
    """Records sharing (owner name, class, type).

    Maintains records in insertion order; :meth:`canonical_records` yields
    them sorted by canonical RDATA (RFC 4034 §6.3) for signing/digesting.
    """

    def __init__(self, records: Iterable[ResourceRecord]) -> None:
        self.records: List[ResourceRecord] = list(records)
        if not self.records:
            raise ValueError("RRset cannot be empty")
        first = self.records[0]
        for rec in self.records[1:]:
            if rec.key() != first.key():
                raise ValueError(
                    f"mixed RRset: {rec.key()} vs {first.key()}"
                )

    @classmethod
    def from_group(cls, records: List[ResourceRecord]) -> "RRset":
        """An RRset over records a grouping has already keyed alike."""
        rrset = cls.__new__(cls)
        rrset.records = records
        return rrset

    @property
    def name(self) -> Name:
        return self.records[0].name

    @property
    def rrtype(self) -> RRType:
        return self.records[0].rrtype

    @property
    def rrclass(self) -> RRClass:
        return self.records[0].rrclass

    @property
    def ttl(self) -> int:
        return min(r.ttl for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def canonical_records(self, original_ttl: int = None) -> List[ResourceRecord]:
        """Records sorted by canonical RDATA wire form."""
        return sorted(self.records, key=ResourceRecord.canonical_rdata)

    def canonical_wire(self, original_ttl: int = None) -> bytes:
        """Concatenated canonical forms, RDATA-sorted — digest input."""
        return b"".join(
            r.canonical_wire(original_ttl) for r in self.canonical_records()
        )


def group_records(
    records: Iterable[ResourceRecord],
) -> "dict[Tuple[Name, int, int], List[ResourceRecord]]":
    """Records bucketed by (owner, class, type), keys in first-seen order."""
    buckets: "dict[Tuple[Name, int, int], List[ResourceRecord]]" = {}
    for rec in records:
        key = rec.key()
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [rec]
        else:
            bucket.append(rec)
    return buckets


def group_rrsets(records: Iterable[ResourceRecord]) -> List[RRset]:
    """Group records into RRsets, preserving first-seen order of keys."""
    return [RRset.from_group(bucket) for bucket in group_records(records).values()]
