"""Content-keyed memoisation of zone validation work.

Campaign-scale validation touches the same handful of distinct zone
versions over and over: the Table 2 audit validates every transfer
observation, the RFC 8806 local-root manager re-validates on every
refresh, and AXFR serving replays the same zone copy for every
transfer.  The expensive parts — RRSIG public-key verification and the
ZONEMD digest — depend only on the zone *content*; only the signature
validity-window comparison depends on the validation time.

:class:`ZoneValidationCache` therefore runs the cryptography once per
distinct zone content (keyed by :func:`zone_fingerprint`, a hash over
the records' canonical wire forms) and replays the exact
:func:`repro.dnssec.validate.validate_zone` report for any validation
time from the cached per-signature facts.  The fingerprint is also what
:meth:`repro.rss.server.RootServerDeployment.axfr_of` keys its transfer
memo by, so AXFR serving and validation share one identity notion for
"the same zone version".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, RRSIG
from repro.dns.records import ResourceRecord, group_rrsets
from repro.dnssec.keys import verify_bytes
from repro.dnssec.validate import (
    ValidationError,
    ValidationIssue,
    ValidationReport,
)
from repro.dnssec.zonemd import ZonemdStatus, verify_zonemd

#: Attribute the fingerprint is memoised under on :class:`~repro.zone.zone.Zone`
#: objects (invalidated by ``Zone.replace_record``).
FINGERPRINT_ATTR = "_content_fingerprint"


def records_fingerprint(records: Iterable[ResourceRecord]) -> bytes:
    """Content hash of a record sequence (canonical wire forms, in order).

    Order-sensitive on purpose: validation reports list issues in RRset
    first-seen order, so two copies only share a cache entry when their
    reports would be identical too.
    """
    hasher = hashlib.sha256()
    for rec in records:
        hasher.update(rec.canonical_wire())
    return hasher.digest()


def zone_fingerprint(zone) -> bytes:
    """The (memoised) content fingerprint of a zone copy."""
    cached = zone.__dict__.get(FINGERPRINT_ATTR)
    if cached is None:
        cached = records_fingerprint(zone.records)
        zone.__dict__[FINGERPRINT_ATTR] = cached
    return cached


@dataclass(frozen=True)
class _SignatureFact:
    """The time-independent outcome of checking one covering RRSIG."""

    key_tag: int
    inception: int
    expiration: int
    known_key: bool
    digest_ok: bool


@dataclass(frozen=True)
class _RRsetFact:
    """One validated RRset with its covering-signature facts."""

    name: Name
    rrtype: int
    signatures: Tuple[_SignatureFact, ...]


@dataclass(frozen=True)
class ZoneAnalysis:
    """Everything validation needs about one zone content, time-free.

    :meth:`report_at` reconstructs ``validate_zone``'s report for any
    validation time without re-running signature cryptography.
    """

    fingerprint: bytes
    apex: Name
    has_dnskey: bool
    rrset_facts: Tuple[_RRsetFact, ...]
    #: ``verify_zonemd`` outcome: (status, human-readable detail).
    zonemd: Tuple[ZonemdStatus, str]
    #: (max inception, min expiration) over all RRSIGs; (0, 0) when unsigned.
    rrsig_envelope: Tuple[int, int]

    def report_at(self, now: int, check_zonemd: bool = True) -> ValidationReport:
        """The ``validate_zone(records, apex, now, check_zonemd)`` report."""
        report = ValidationReport(validated_at=now)
        if not self.has_dnskey:
            report.issues.append(
                ValidationIssue(
                    ValidationError.NO_DNSKEY, self.apex, int(RRType.DNSKEY)
                )
            )
            return report
        for fact in self.rrset_facts:
            report.rrsets_checked += 1
            report.signatures_checked += 1
            if not fact.signatures:
                report.issues.append(
                    ValidationIssue(ValidationError.NO_RRSIG, fact.name, fact.rrtype)
                )
                continue
            failures: List[ValidationIssue] = []
            validated = False
            for sig in fact.signatures:
                if not sig.known_key:
                    error = ValidationError.UNKNOWN_KEY_TAG
                elif now < sig.inception:
                    error = ValidationError.SIG_NOT_INCEPTED
                elif now > sig.expiration:
                    error = ValidationError.SIG_EXPIRED
                elif not sig.digest_ok:
                    error = ValidationError.BOGUS_SIGNATURE
                else:
                    validated = True
                    break
                failures.append(
                    ValidationIssue(
                        error,
                        fact.name,
                        fact.rrtype,
                        detail=f"key_tag={sig.key_tag} window=[{sig.inception},{sig.expiration}]",
                    )
                )
            if not validated:
                report.issues.extend(failures)
        if check_zonemd and self.zonemd[0] is ZonemdStatus.MISMATCH:
            report.issues.append(
                ValidationIssue(
                    ValidationError.BOGUS_SIGNATURE,
                    self.apex,
                    int(RRType.ZONEMD),
                    detail=f"ZONEMD {self.zonemd[1]}",
                )
            )
        return report


def _analyse(
    records: List[ResourceRecord], apex: Name, fingerprint: bytes
) -> ZoneAnalysis:
    """Run the expensive, time-independent validation work once."""
    rrsets = group_rrsets(records)
    # Covering signatures bucketed by (owner, type covered), each bucket
    # in record order: one pass instead of a rescan per RRset.  Name
    # hashes case-insensitively, exactly as ``Name.__eq__`` compares.
    covering_index: Dict[Tuple[Name, int], List[RRSIG]] = {}
    inceptions: List[int] = []
    expirations: List[int] = []
    for rec in records:
        if rec.rrtype == RRType.RRSIG and isinstance(rec.rdata, RRSIG):
            rrsig = rec.rdata
            covering_index.setdefault(
                (rec.name, int(rrsig.type_covered)), []
            ).append(rrsig)
            inceptions.append(rrsig.inception)
            expirations.append(rrsig.expiration)
    envelope = (max(inceptions), min(expirations)) if inceptions else (0, 0)

    dnskeys: Dict[int, DNSKEY] = {}
    for rrset in rrsets:
        if rrset.name == apex and rrset.rrtype == RRType.DNSKEY:
            for rec in rrset:
                assert isinstance(rec.rdata, DNSKEY)
                dnskeys[rec.rdata.key_tag()] = rec.rdata

    facts: List[_RRsetFact] = []
    if dnskeys:
        for rrset in rrsets:
            if rrset.rrtype == RRType.RRSIG:
                continue
            is_apex = rrset.name == apex
            if not is_apex and rrset.rrtype in (RRType.NS, RRType.A, RRType.AAAA):
                continue  # delegations and glue are unsigned by design
            sig_facts = []
            for rrsig in covering_index.get((rrset.name, int(rrset.rrtype)), ()):
                known = rrsig.key_tag in dnskeys
                digest_ok = known and verify_bytes(
                    dnskeys[rrsig.key_tag],
                    rrsig.signed_data_prefix()
                    + rrset.canonical_wire(rrsig.original_ttl),
                    rrsig.signature,
                )
                sig_facts.append(
                    _SignatureFact(
                        key_tag=rrsig.key_tag,
                        inception=rrsig.inception,
                        expiration=rrsig.expiration,
                        known_key=known,
                        digest_ok=digest_ok,
                    )
                )
            facts.append(
                _RRsetFact(rrset.name, int(rrset.rrtype), tuple(sig_facts))
            )

    return ZoneAnalysis(
        fingerprint=fingerprint,
        apex=apex,
        has_dnskey=bool(dnskeys),
        rrset_facts=tuple(facts),
        zonemd=verify_zonemd(records, apex),
        rrsig_envelope=envelope,
    )


class ZoneValidationCache:
    """Fingerprint-keyed cache of :class:`ZoneAnalysis` objects."""

    def __init__(self) -> None:
        self._analyses: Dict[Tuple[bytes, Name], ZoneAnalysis] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._analyses)

    def analyse(
        self,
        records: Iterable[ResourceRecord],
        apex: Name,
        fingerprint: Optional[bytes] = None,
    ) -> ZoneAnalysis:
        """The (cached) analysis of one record sequence."""
        records = list(records)
        if fingerprint is None:
            fingerprint = records_fingerprint(records)
        key = (fingerprint, apex)
        analysis = self._analyses.get(key)
        if analysis is None:
            self.misses += 1
            analysis = _analyse(records, apex, fingerprint)
            self._analyses[key] = analysis
        else:
            self.hits += 1
        return analysis

    def analyse_zone(self, zone, apex: Name) -> ZoneAnalysis:
        """The (cached) analysis of a zone copy, via its fingerprint."""
        return self.analyse(zone.records, apex, zone_fingerprint(zone))

    def clear(self) -> None:
        self._analyses.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache: analyses are pure functions of zone content, so
#: one instance serves the audit, local-root refresh loops and any tool
#: validating the same campaign's zone versions.
_SHARED = ZoneValidationCache()


def shared_cache() -> ZoneValidationCache:
    """The process-wide :class:`ZoneValidationCache`."""
    return _SHARED
