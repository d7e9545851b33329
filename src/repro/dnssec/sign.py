"""RRSIG generation (RFC 4034 §3.1).

The signature input is ``RRSIG_RDATA | RR(1) | RR(2) | ...`` with records
in canonical form and canonical RDATA order, TTLs replaced by the RRSIG's
Original TTL field — byte-for-byte the RFC construction, with the HMAC
primitive substituted (see :mod:`repro.dnssec.keys`).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.dns.constants import RRClass, RRType
from repro.dns.name import Name
from repro.dns.rdata import RRSIG
from repro.dns.records import ResourceRecord, RRset, group_rrsets
from repro.dnssec.keys import KeyPair

#: Default signature validity window used by the simulated root zone,
#: mirroring the ~2-week windows visible in the paper's Figure 10 RRSIGs.
DEFAULT_VALIDITY_SECONDS = 13 * 86400


def sign_rrset(
    rrset: RRset,
    key: KeyPair,
    signer: Name,
    inception: int,
    expiration: int,
) -> ResourceRecord:
    """Produce the RRSIG record covering *rrset*."""
    if expiration <= inception:
        raise ValueError(
            f"expiration {expiration} not after inception {inception}"
        )
    original_ttl = rrset.ttl
    template = RRSIG(
        type_covered=int(rrset.rrtype),
        algorithm=key.dnskey.algorithm,
        labels=len(rrset.name),
        original_ttl=original_ttl,
        expiration=expiration,
        inception=inception,
        key_tag=key.key_tag,
        signer=signer,
        signature=b"",
    )
    signed_data = template.signed_data_prefix() + rrset.canonical_wire(original_ttl)
    signature = key.sign_bytes(signed_data)
    rdata = RRSIG(
        type_covered=template.type_covered,
        algorithm=template.algorithm,
        labels=template.labels,
        original_ttl=template.original_ttl,
        expiration=template.expiration,
        inception=template.inception,
        key_tag=template.key_tag,
        signer=signer,
        signature=signature,
    )
    return ResourceRecord(
        name=rrset.name,
        rrtype=RRType.RRSIG,
        rrclass=RRClass(rrset.rrclass),
        ttl=original_ttl,
        rdata=rdata,
    )


def authoritative_rrsets(
    records: Iterable[ResourceRecord],
    apex: Name,
    sign_delegations: bool = False,
) -> List[RRset]:
    """The RRsets of a zone that signing covers, in first-seen order.

    Delegation NS RRsets below the apex and glue are NOT signed (RFC 4035
    §2.2) — which is precisely why ZONEMD adds value (§7 of the paper:
    the digest also covers delegations and glue).
    """
    out: List[RRset] = []
    for rrset in group_rrsets(records):
        if rrset.rrtype == RRType.RRSIG:
            continue
        if not sign_delegations and rrset.name != apex:
            # Non-apex data in the root zone is delegation NS + glue:
            # not authoritative, not signed.
            if rrset.rrtype in (RRType.NS, RRType.A, RRType.AAAA):
                continue
        out.append(rrset)
    return out


def sign_rrsets(
    rrsets: Iterable[RRset],
    zsk: KeyPair,
    ksk: KeyPair,
    apex: Name,
    inception: int,
    expiration: int,
) -> List[ResourceRecord]:
    """One RRSIG per RRset: the DNSKEY RRset by the KSK, the rest by the ZSK."""
    return [
        sign_rrset(
            rrset, ksk if rrset.rrtype == RRType.DNSKEY else zsk, apex,
            inception, expiration,
        )
        for rrset in rrsets
    ]


def sign_zone_records(
    records: Iterable[ResourceRecord],
    zsk: KeyPair,
    ksk: KeyPair,
    apex: Name,
    inception: int,
    expiration: int,
    sign_delegations: bool = False,
) -> List[ResourceRecord]:
    """Sign all authoritative RRsets of a zone; returns records + RRSIGs.

    Mirrors real root-zone signing (see :func:`authoritative_rrsets` and
    :func:`sign_rrsets`).
    """
    records = list(records)
    return records + sign_rrsets(
        authoritative_rrsets(records, apex, sign_delegations),
        zsk, ksk, apex, inception, expiration,
    )
