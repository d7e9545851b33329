"""Full zone validation, mirroring the paper's use of ``ldnsutils``.

The paper (§7) validates every obtained zone file by "checking ZONEMD and
all RRSIG records against the root DNSKEYs", at both the first and last
observation timestamps (signatures are time-nonced, so validation time
matters — two VPs with skewed clocks produced spurious errors).

The error taxonomy matches Table 2:

* ``SIG_NOT_INCEPTED`` — validation time before the RRSIG inception,
* ``SIG_EXPIRED``      — validation time after the RRSIG expiration,
* ``BOGUS_SIGNATURE``  — digest mismatch (e.g. a bitflipped record),
* plus structural errors (missing DNSKEY, unknown key tag, no RRSIG).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, RRSIG
from repro.dns.records import ResourceRecord, RRset, group_rrsets
from repro.dnssec.keys import verify_bytes


class ValidationError(enum.Enum):
    """Why an RRset (or zone) failed validation."""

    SIG_NOT_INCEPTED = "signature not yet incepted"
    SIG_EXPIRED = "signature expired"
    BOGUS_SIGNATURE = "bogus signature"
    NO_RRSIG = "RRset has no covering RRSIG"
    NO_DNSKEY = "no DNSKEY RRset at apex"
    UNKNOWN_KEY_TAG = "RRSIG references unknown key tag"


@dataclass(frozen=True)
class ValidationIssue:
    """One validation failure, attached to the offending RRset."""

    error: ValidationError
    name: Name
    rrtype: int
    detail: str = ""


@dataclass
class ValidationReport:
    """Outcome of validating one zone copy at one point in time."""

    validated_at: int
    issues: List[ValidationIssue] = field(default_factory=list)
    rrsets_checked: int = 0
    signatures_checked: int = 0

    @property
    def valid(self) -> bool:
        return not self.issues


def _classify_signature(
    rrsig: RRSIG,
    rrset: RRset,
    keys: Dict[int, DNSKEY],
    now: int,
) -> Optional[ValidationError]:
    """Validate one RRSIG over one RRset; None means good."""
    if rrsig.key_tag not in keys:
        return ValidationError.UNKNOWN_KEY_TAG
    # Time window first: ldns reports temporal errors even when the digest
    # would also mismatch, and the paper's Table 2 separates these classes.
    if now < rrsig.inception:
        return ValidationError.SIG_NOT_INCEPTED
    if now > rrsig.expiration:
        return ValidationError.SIG_EXPIRED
    signed_data = rrsig.signed_data_prefix() + rrset.canonical_wire(rrsig.original_ttl)
    if not verify_bytes(keys[rrsig.key_tag], signed_data, rrsig.signature):
        return ValidationError.BOGUS_SIGNATURE
    return None


def validate_rrset(
    rrset: RRset,
    rrsigs: Iterable[ResourceRecord],
    keys: Dict[int, DNSKEY],
    now: int,
) -> List[ValidationIssue]:
    """Validate an RRset against its covering RRSIGs.

    The RRset is good if *any* covering signature verifies; issues from
    the failing ones are only reported when none verifies (matching
    validator semantics where multiple ZSKs may overlap during rolls).
    """
    covering = [
        r.rdata
        for r in rrsigs
        if isinstance(r.rdata, RRSIG)
        and r.name == rrset.name
        and r.rdata.type_covered == int(rrset.rrtype)
    ]
    if not covering:
        return [
            ValidationIssue(
                ValidationError.NO_RRSIG, rrset.name, int(rrset.rrtype)
            )
        ]
    failures: List[ValidationIssue] = []
    for rrsig in covering:
        error = _classify_signature(rrsig, rrset, keys, now)
        if error is None:
            return []
        failures.append(
            ValidationIssue(
                error,
                rrset.name,
                int(rrset.rrtype),
                detail=f"key_tag={rrsig.key_tag} window=[{rrsig.inception},{rrsig.expiration}]",
            )
        )
    return failures


def validate_zone(
    records: Iterable[ResourceRecord],
    apex: Name,
    now: int,
    check_zonemd: bool = True,
) -> ValidationReport:
    """Fully validate a zone copy (all RRSIGs + optional ZONEMD) at *now*.

    This is the ``ldns-verify-zone``-equivalent reference: it validates
    from scratch on every call.  Runtime callers go through
    :class:`repro.dnssec.digestcache.ZoneValidationCache`, whose replayed
    reports are tested equal to this one.
    """
    # Local import: zonemd depends on this module's report types.
    from repro.dnssec.zonemd import verify_zonemd, ZonemdStatus

    records = list(records)
    report = ValidationReport(validated_at=now)

    rrsets = group_rrsets(records)
    rrsigs = [r for r in records if r.rrtype == RRType.RRSIG]
    dnskeys: Dict[int, DNSKEY] = {}
    for rrset in rrsets:
        if rrset.name == apex and rrset.rrtype == RRType.DNSKEY:
            for rec in rrset:
                assert isinstance(rec.rdata, DNSKEY)
                dnskeys[rec.rdata.key_tag()] = rec.rdata
    if not dnskeys:
        report.issues.append(
            ValidationIssue(ValidationError.NO_DNSKEY, apex, int(RRType.DNSKEY))
        )
        return report

    for rrset in rrsets:
        if rrset.rrtype == RRType.RRSIG:
            continue
        is_apex = rrset.name == apex
        if not is_apex and rrset.rrtype in (RRType.NS, RRType.A, RRType.AAAA):
            # Delegations and glue are unsigned by design.
            continue
        report.rrsets_checked += 1
        issues = validate_rrset(rrset, rrsigs, dnskeys, now)
        report.signatures_checked += 1
        report.issues.extend(issues)

    if check_zonemd:
        status, detail = verify_zonemd(records, apex)
        if status is ZonemdStatus.MISMATCH:
            report.issues.append(
                ValidationIssue(
                    ValidationError.BOGUS_SIGNATURE,
                    apex,
                    int(RRType.ZONEMD),
                    detail=f"ZONEMD {detail}",
                )
            )
        # ABSENT and UNSUPPORTED_ALGORITHM are non-errors per RFC 8976
        # §4 (verification "inconclusive") — exactly the state of the root
        # zone before 2023-12-06.
    return report
