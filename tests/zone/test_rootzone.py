"""Root zone builder: structure, signing, ZONEMD roll-out, b.root glue."""

import pytest

from repro.dns.constants import (
    RRType,
    ZONEMD_ALG_PRIVATE,
    ZONEMD_ALG_SHA384,
)
from repro.dns.name import Name, ROOT_NAME
from repro.dns.rdata import A, AAAA, SOA, ZONEMD
from repro.dnssec.nsec import verify_nsec_chain
from repro.dnssec.trustanchor import KskRolloverSchedule
from repro.dnssec.validate import validate_zone
from repro.rss.operators import B_ROOT_CHANGE_TS, root_server
from repro.util.timeutil import DAY, parse_ts
from repro.zone.distribution import ZoneDistributor
from repro.zone.rootzone import (
    DEFAULT_TLDS,
    RootZoneBuilder,
    ZONEMD_PLACEHOLDER_DATE,
    ZONEMD_VALIDATABLE_DATE,
)

DEC_TS = parse_ts("2023-12-10T16:00:00")


class TestStructure:
    def test_fig10_tlds_present(self):
        # world and ruhr star in the paper's Figure 10 bitflip example.
        assert "world" in DEFAULT_TLDS
        assert "ruhr" in DEFAULT_TLDS

    def test_apex_has_13_ns(self, validatable_zone):
        ns = validatable_zone.find_rrset(ROOT_NAME, RRType.NS)
        assert ns is not None and len(ns) == 13

    def test_every_tld_delegated_with_glue(self, validatable_zone):
        delegations = validatable_zone.delegations()
        tld_names = {d.to_text().rstrip(".") for d in delegations}
        for tld in DEFAULT_TLDS:
            assert tld in tld_names
        # glue for the first TLD's name servers
        glue = validatable_zone.find_rrset(
            Name.from_text(f"ns1.nic.{DEFAULT_TLDS[0]}."), RRType.A
        )
        assert glue is not None

    def test_serial_matches_publication(self, zone_builder):
        zone = zone_builder.build(parse_ts("2023-12-10T16:00:00"), edition=1)
        assert zone.serial == 2023121001

    def test_nsec_chain_closes(self, validatable_zone):
        assert verify_nsec_chain(validatable_zone.records, ROOT_NAME) == []

    def test_deterministic_build(self):
        a = RootZoneBuilder(seed=5).build(DEC_TS)
        b = RootZoneBuilder(seed=5).build(DEC_TS)
        assert [r.canonical_wire() for r in a.records] == [
            r.canonical_wire() for r in b.records
        ]

    def test_seed_changes_keys(self):
        a = RootZoneBuilder(seed=5)
        b = RootZoneBuilder(seed=6)
        assert a.ksk.dnskey != b.ksk.dnskey


class TestSigning:
    def test_zone_validates_at_publication(self, validatable_zone):
        report = validate_zone(validatable_zone.records, ROOT_NAME, now=DEC_TS)
        assert report.valid, report.issues[:3]

    def test_zone_validates_through_batch_week(self, zone_builder):
        zone = zone_builder.build(DEC_TS)
        inception, _expiration = zone_builder.signature_window(DEC_TS)
        week_start = inception + 4 * DAY  # SIG_INCEPTION_LEAD
        for offset_days in (0, 2, 4, 6):
            report = validate_zone(
                zone.records, ROOT_NAME, now=week_start + offset_days * DAY,
                check_zonemd=False,
            )
            assert report.valid, offset_days

    def test_zone_expires_after_window(self, zone_builder):
        zone = zone_builder.build(DEC_TS)
        report = validate_zone(
            zone.records, ROOT_NAME, now=DEC_TS + 30 * DAY, check_zonemd=False
        )
        assert not report.valid

    def test_signature_window_covers_publication(self, zone_builder):
        inception, expiration = zone_builder.signature_window(DEC_TS)
        assert inception < DEC_TS < expiration


class TestZonemdRollout:
    def test_absent_before_placeholder_date(self, zone_builder):
        zone = zone_builder.build(ZONEMD_PLACEHOLDER_DATE - DAY)
        assert zone.find_rrset(ROOT_NAME, RRType.ZONEMD) is None

    def test_placeholder_between_dates(self, zone_builder):
        zone = zone_builder.build(ZONEMD_PLACEHOLDER_DATE + DAY)
        rrset = zone.find_rrset(ROOT_NAME, RRType.ZONEMD)
        assert rrset is not None
        rdata = rrset.records[0].rdata
        assert isinstance(rdata, ZONEMD)
        assert rdata.hash_algorithm == ZONEMD_ALG_PRIVATE

    def test_sha384_after_validatable_date(self, zone_builder):
        zone = zone_builder.build(ZONEMD_VALIDATABLE_DATE + DAY)
        rdata = zone.find_rrset(ROOT_NAME, RRType.ZONEMD).records[0].rdata
        assert rdata.hash_algorithm == ZONEMD_ALG_SHA384

    def test_zonemd_record_is_signed(self, validatable_zone):
        covered = {
            r.rdata.type_covered
            for r in validatable_zone.records
            if r.rrtype == RRType.RRSIG
        }
        assert int(RRType.ZONEMD) in covered

    def test_zonemd_serial_matches_soa(self, validatable_zone):
        rdata = validatable_zone.find_rrset(ROOT_NAME, RRType.ZONEMD).records[0].rdata
        assert rdata.serial == validatable_zone.serial


class TestBrootRenumbering:
    def _b_glue(self, zone, rrtype):
        rrset = zone.find_rrset(Name.from_text("b.root-servers.net."), rrtype)
        assert rrset is not None
        return rrset.records[0].rdata

    def test_old_addresses_before_change(self, zone_builder):
        zone = zone_builder.build(B_ROOT_CHANGE_TS - DAY)
        b = root_server("b")
        assert self._b_glue(zone, RRType.A) == A(b.old_ipv4)
        assert self._b_glue(zone, RRType.AAAA) == AAAA(b.old_ipv6)

    def test_new_addresses_after_change(self, zone_builder):
        zone = zone_builder.build(B_ROOT_CHANGE_TS + DAY)
        b = root_server("b")
        assert self._b_glue(zone, RRType.A) == A(b.ipv4)
        assert self._b_glue(zone, RRType.AAAA) == AAAA(b.ipv6)

    def test_other_letters_unchanged(self, zone_builder):
        before = zone_builder.build(B_ROOT_CHANGE_TS - DAY)
        after = zone_builder.build(B_ROOT_CHANGE_TS + DAY)
        a_name = Name.from_text("a.root-servers.net.")
        assert (
            before.find_rrset(a_name, RRType.A).records[0].rdata
            == after.find_rrset(a_name, RRType.A).records[0].rdata
        )


class TestBuilderValidation:
    def test_duplicate_tlds_rejected(self):
        with pytest.raises(ValueError):
            RootZoneBuilder(seed=1, tlds=["com", "com"])

    def test_custom_tld_catalog(self):
        builder = RootZoneBuilder(seed=1, tlds=["alpha", "beta"])
        zone = builder.build(DEC_TS)
        tlds = {d.to_text() for d in zone.delegations()}
        assert tlds == {"alpha.", "beta."}


#: The KSK-rollover schedule of ``tests/dnssec/test_trustanchor.py``.
ROLLOVER = KskRolloverSchedule(
    publish_ts=parse_ts("2023-08-01"),
    swap_ts=parse_ts("2023-10-01"),
    revoke_ts=parse_ts("2023-11-15"),
    remove_ts=parse_ts("2024-01-01"),
)
PHASE_EDGES = {
    "zonemd-placeholder": ZONEMD_PLACEHOLDER_DATE,
    "zonemd-validatable": ZONEMD_VALIDATABLE_DATE,
    "b-root-change": B_ROOT_CHANGE_TS,
    "ksk-publish": ROLLOVER.publish_ts,
    "ksk-swap": ROLLOVER.swap_ts,
    "ksk-revoke": ROLLOVER.revoke_ts,
    "ksk-remove": ROLLOVER.remove_ts,
}
#: The last publication before and the first one at or after each edge.
EDGE_PUBLICATIONS = {
    f"{label}-{side}": publication
    for label, edge in PHASE_EDGES.items()
    for side, publication in (
        ("before", ZoneDistributor.latest_publication(edge - 1)),
        ("after", ZoneDistributor.publications_between(edge, edge + DAY)[0]),
    )
}
ROLLOVER_TLDS = ["com", "org", "world", "ruhr"]


def _rolling_builder() -> RootZoneBuilder:
    return RootZoneBuilder(seed=5, tlds=ROLLOVER_TLDS, ksk_rollover=ROLLOVER)


def _wires(zone):
    return [rec.canonical_wire() for rec in zone.records]


class TestBuildOrder:
    """Unsigned bodies are cached per phase and signed bodies per week, so
    what a builder built before must not leak into what it builds next."""

    @pytest.fixture(scope="class", params=["forward", "backward"])
    def warm_zones(self, request):
        builder = _rolling_builder()
        edges = sorted(PHASE_EDGES.values())
        weeks = list(range(edges[0] - 14 * DAY, edges[-1] + 14 * DAY, 7 * DAY))
        publications = sorted(EDGE_PUBLICATIONS.values())
        if request.param == "backward":
            weeks.reverse()
            publications.reverse()
        for ts in weeks:
            builder.build(ts)
        return {pub: builder.build(*pub) for pub in publications}

    @pytest.mark.parametrize("label", sorted(EDGE_PUBLICATIONS))
    def test_warm_builder_matches_fresh_one(self, warm_zones, label):
        publication = EDGE_PUBLICATIONS[label]
        fresh = _rolling_builder().build(*publication)
        assert _wires(warm_zones[publication]) == _wires(fresh)

    def test_edges_change_the_phase(self):
        builder = _rolling_builder()
        for label, edge in PHASE_EDGES.items():
            before = EDGE_PUBLICATIONS[f"{label}-before"][0]
            after = EDGE_PUBLICATIONS[f"{label}-after"][0]
            assert before < edge <= after
            assert builder._phase(before) != builder._phase(after), label

    def test_weeks_of_one_phase_share_the_unsigned_body(self, zone_builder):
        a = zone_builder.build(DEC_TS)
        b = zone_builder.build(DEC_TS + 7 * DAY)
        assert zone_builder.signature_window(DEC_TS) != zone_builder.signature_window(
            DEC_TS + 7 * DAY
        )
        delegation = next(
            i for i, rec in enumerate(a.records)
            if rec.rrtype == RRType.NS and not rec.name.is_root()
        )
        nsec = next(i for i, rec in enumerate(a.records) if rec.rrtype == RRType.NSEC)
        for i in (delegation, nsec):
            assert a.records[i] is b.records[i]
