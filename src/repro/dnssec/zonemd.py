"""ZONEMD — Message Digest for DNS Zones (RFC 8976), implemented exactly.

This is the integrity mechanism whose roll-out the paper's RQ3 follows:
a placeholder record with a private hash algorithm appeared in the root
zone on 2023-09-13, and a verifiable SHA-384 digest from 2023-12-06.

Digest computation (RFC 8976 §3.3.1, SIMPLE scheme):

* sort all zone records into RFC 4034 §6 canonical order,
* exclude the apex ZONEMD RRset itself and RRSIGs covering it,
* exclude duplicate RRs,
* concatenate each record's canonical wire form and hash.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Iterable, List, Optional, Tuple

from repro.dns.constants import (
    RRType,
    ZONEMD_ALG_PRIVATE,
    ZONEMD_ALG_SHA384,
    ZONEMD_ALG_SHA512,
    ZONEMD_SCHEME_SIMPLE,
)
from repro.dns.name import Name
from repro.dns.rdata import RRSIG, SOA, ZONEMD
from repro.dns.records import ResourceRecord


class ZonemdStatus(enum.Enum):
    """Outcome of ZONEMD verification (RFC 8976 §4)."""

    VALID = "digest matches"
    MISMATCH = "digest mismatch"
    ABSENT = "no ZONEMD record"
    UNSUPPORTED_ALGORITHM = "unsupported scheme/algorithm"
    SERIAL_MISMATCH = "ZONEMD serial does not match SOA serial"


_HASHERS = {
    ZONEMD_ALG_SHA384: hashlib.sha384,
    ZONEMD_ALG_SHA512: hashlib.sha512,
}


def _digest_input_records(
    records: Iterable[ResourceRecord], apex: Name
) -> List[ResourceRecord]:
    """Records included in the digest, in canonical order, deduplicated."""
    included: List[ResourceRecord] = []
    seen = set()
    for rec in records:
        if rec.rrtype == RRType.ZONEMD and rec.name == apex:
            continue  # §3.3.1: exclude apex ZONEMD RRset
        if (
            rec.rrtype == RRType.RRSIG
            and isinstance(rec.rdata, RRSIG)
            and rec.rdata.type_covered == int(RRType.ZONEMD)
            and rec.name == apex
        ):
            continue  # exclude RRSIGs covering the apex ZONEMD
        wire = rec.canonical_wire()
        if wire in seen:
            continue  # §3.3: duplicate RRs must be excluded
        seen.add(wire)
        included.append(rec)
    # Canonical order: owner name (RFC 4034 §6.1), then type, then RDATA.
    included.sort(
        key=lambda r: (r.name.canonical_key(), int(r.rrtype), r.canonical_rdata())
    )
    return included


def compute_zone_digest(
    records: Iterable[ResourceRecord],
    apex: Name,
    hash_algorithm: int = ZONEMD_ALG_SHA384,
) -> bytes:
    """Compute the SIMPLE-scheme digest over a zone's records."""
    hasher_factory = _HASHERS.get(hash_algorithm)
    if hasher_factory is None:
        raise ValueError(f"unsupported ZONEMD hash algorithm {hash_algorithm}")
    hasher = hasher_factory()
    for rec in _digest_input_records(records, apex):
        hasher.update(rec.canonical_wire())
    return hasher.digest()


def make_zonemd_record(
    records: Iterable[ResourceRecord],
    apex: Name,
    soa_serial: int,
    ttl: int = 86400,
    hash_algorithm: int = ZONEMD_ALG_SHA384,
) -> ResourceRecord:
    """Build the apex ZONEMD record for a zone.

    With ``hash_algorithm=ZONEMD_ALG_PRIVATE`` this produces the
    non-verifiable placeholder deployed in the root zone between
    2023-09-13 and 2023-12-06: a fixed-size digest that verifiers must
    treat as inconclusive (RFC 8976 §4 step 5).
    """
    from repro.dns.constants import RRClass  # local to avoid cycle noise

    if hash_algorithm == ZONEMD_ALG_PRIVATE:
        digest = b"\x00" * 48  # placeholder digest, never verifiable
    else:
        digest = compute_zone_digest(records, apex, hash_algorithm)
    rdata = ZONEMD(
        serial=soa_serial,
        scheme=ZONEMD_SCHEME_SIMPLE,
        hash_algorithm=hash_algorithm,
        digest=digest,
    )
    return ResourceRecord(apex, RRType.ZONEMD, RRClass.IN, ttl, rdata)


def find_zonemd(
    records: Iterable[ResourceRecord], apex: Name
) -> Optional[ZONEMD]:
    """The apex ZONEMD rdata, or None."""
    for rec in records:
        if rec.rrtype == RRType.ZONEMD and rec.name == apex:
            assert isinstance(rec.rdata, ZONEMD)
            return rec.rdata
    return None


def _soa_serial(records: Iterable[ResourceRecord], apex: Name) -> Optional[int]:
    for rec in records:
        if rec.rrtype == RRType.SOA and rec.name == apex:
            assert isinstance(rec.rdata, SOA)
            return rec.rdata.serial
    return None


def verify_zonemd(
    records: Iterable[ResourceRecord], apex: Name
) -> Tuple[ZonemdStatus, str]:
    """Verify a zone copy's ZONEMD per RFC 8976 §4.

    Returns ``(status, human-readable detail)``.
    """
    records = list(records)
    zonemd = find_zonemd(records, apex)
    if zonemd is None:
        return ZonemdStatus.ABSENT, "zone has no apex ZONEMD record"
    serial = _soa_serial(records, apex)
    if serial is not None and zonemd.serial != serial:
        return (
            ZonemdStatus.SERIAL_MISMATCH,
            f"ZONEMD serial {zonemd.serial} != SOA serial {serial}",
        )
    if zonemd.scheme != ZONEMD_SCHEME_SIMPLE or zonemd.hash_algorithm not in _HASHERS:
        return (
            ZonemdStatus.UNSUPPORTED_ALGORITHM,
            f"scheme={zonemd.scheme} alg={zonemd.hash_algorithm}",
        )
    actual = compute_zone_digest(records, apex, zonemd.hash_algorithm)
    if actual != zonemd.digest:
        return (
            ZonemdStatus.MISMATCH,
            f"computed {actual.hex()[:16]}.. != published {zonemd.digest.hex()[:16]}..",
        )
    return ZonemdStatus.VALID, "digest verified"
