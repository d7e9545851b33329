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

Consecutive versions share almost all of their content: publications of
one signing week carry the same signed body, and only the SOA, the
ZONEMD and their RRSIGs change.  So the cache also keeps a memo of
per-RRset facts keyed on the RRset's *content*: the DNSKEY set (its
records' canonical wires), the owner's labels as spelled, the member
records' canonical wires and the covering RRSIG records' canonical
wires.  A new version verifies only the RRsets whose content no earlier
analysis saw (its SOA and ZONEMD, a new week's signatures, or a
bit-flipped record); the ZONEMD digest stays a full hash over every
record, as RFC 8976 requires.  The memo lives in the cache instance,
not in a module global, so :meth:`ZoneValidationCache.clear` drops it
with the analyses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.dns.rdata import DNSKEY, RRSIG
from repro.dns.records import ResourceRecord, RRset, group_records
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


#: Per-RRset fact memo: DNSKEY set (its records' canonical wires) ->
#: RRset content (owner labels, member canonical wires, covering RRSIG
#: canonical wires) -> fact.
FactMemo = Dict[Tuple[bytes, ...], Dict[tuple, _RRsetFact]]


def _rrset_fact(
    rrset: RRset, rrsigs: Sequence[ResourceRecord], dnskeys: Dict[int, DNSKEY]
) -> _RRsetFact:
    """Check every covering RRSIG of *rrset* against the DNSKEY set."""
    sig_facts = []
    for rec in rrsigs:
        rrsig = rec.rdata
        known = rrsig.key_tag in dnskeys
        digest_ok = known and verify_bytes(
            dnskeys[rrsig.key_tag],
            rrsig.signed_data_prefix() + rrset.canonical_wire(rrsig.original_ttl),
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
    return _RRsetFact(rrset.name, int(rrset.rrtype), tuple(sig_facts))


def _analyse(
    records: List[ResourceRecord],
    apex: Name,
    fingerprint: bytes,
    facts: Optional[FactMemo] = None,
) -> ZoneAnalysis:
    """Run the expensive, time-independent validation work once.

    With a *facts* memo, an RRset whose content some earlier analysis
    already checked reuses that fact instead of re-verifying.
    """
    # RRsets stay plain record lists unless a fact must be computed.
    groups = group_records(records)
    # Covering signatures bucketed by (owner, type covered), each bucket
    # in record order: one pass instead of a rescan per RRset.  Name
    # hashes case-insensitively, exactly as ``Name.__eq__`` compares.
    covering_index: Dict[Tuple[Name, int], List[ResourceRecord]] = {}
    inceptions: List[int] = []
    expirations: List[int] = []
    for rec in records:
        if rec.rrtype == RRType.RRSIG and isinstance(rec.rdata, RRSIG):
            rrsig = rec.rdata
            covering_index.setdefault(
                (rec.name, int(rrsig.type_covered)), []
            ).append(rec)
            inceptions.append(rrsig.inception)
            expirations.append(rrsig.expiration)
    envelope = (max(inceptions), min(expirations)) if inceptions else (0, 0)

    dnskey_records = [
        rec
        for (name, _rrclass, rrtype), group in groups.items()
        if rrtype == RRType.DNSKEY and name == apex
        for rec in group
    ]
    dnskeys: Dict[int, DNSKEY] = {}
    for rec in dnskey_records:
        assert isinstance(rec.rdata, DNSKEY)
        dnskeys[rec.rdata.key_tag()] = rec.rdata

    rrset_facts: List[_RRsetFact] = []
    if dnskeys:
        keyset = tuple(rec.canonical_wire() for rec in dnskey_records)
        memo = {} if facts is None else facts.setdefault(keyset, {})
        for (name, _rrclass, rrtype), group in groups.items():
            if rrtype == RRType.RRSIG:
                continue
            if rrtype in (RRType.NS, RRType.A, RRType.AAAA) and name != apex:
                continue  # delegations and glue are unsigned by design
            rrsigs = covering_index.get((name, rrtype), ())
            content = (
                name.labels,
                tuple(rec.canonical_wire() for rec in group),
                tuple(rec.canonical_wire() for rec in rrsigs),
            )
            fact = memo.get(content)
            if fact is None:
                fact = memo[content] = _rrset_fact(
                    RRset.from_group(group), rrsigs, dnskeys
                )
            rrset_facts.append(fact)

    return ZoneAnalysis(
        fingerprint=fingerprint,
        apex=apex,
        has_dnskey=bool(dnskeys),
        rrset_facts=tuple(rrset_facts),
        zonemd=verify_zonemd(records, apex),
        rrsig_envelope=envelope,
    )


class ZoneValidationCache:
    """Fingerprint-keyed cache of :class:`ZoneAnalysis` objects, plus the
    content-keyed per-RRset facts they are assembled from."""

    def __init__(self) -> None:
        self._analyses: Dict[Tuple[bytes, Name], ZoneAnalysis] = {}
        self._facts: FactMemo = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._analyses)

    def fact_count(self) -> int:
        """Distinct RRset contents checked so far."""
        return sum(len(memo) for memo in self._facts.values())

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
            analysis = _analyse(records, apex, fingerprint, self._facts)
            self._analyses[key] = analysis
        else:
            self.hits += 1
        return analysis

    def analyse_zone(self, zone, apex: Name) -> ZoneAnalysis:
        """The (cached) analysis of a zone copy, via its fingerprint."""
        return self.analyse(zone.records, apex, zone_fingerprint(zone))

    def clear(self) -> None:
        self._analyses.clear()
        self._facts.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache: analyses are pure functions of zone content, so
#: one instance serves the audit, local-root refresh loops and any tool
#: validating the same campaign's zone versions.
_SHARED = ZoneValidationCache()


def shared_cache() -> ZoneValidationCache:
    """The process-wide :class:`ZoneValidationCache`."""
    return _SHARED
