"""The content-keyed validation cache replays ``validate_zone`` exactly.

The cache must be a pure memoisation: for any zone content and any
validation time, :meth:`ZoneAnalysis.report_at` produces the same report
``validate_zone`` computes from scratch — including issue order, details
and counters — while running the signature cryptography only once per
distinct content.
"""

import dataclasses

import pytest

from repro.dns.constants import RRType
from repro.dns.name import ROOT_NAME, Name
from repro.dnssec.digestcache import (
    ZoneValidationCache,
    _analyse,
    records_fingerprint,
    shared_cache,
    zone_fingerprint,
)
from repro.dnssec.validate import validate_zone
from repro.dnssec.zonemd import verify_zonemd
from repro.faults.bitflip import BitflipEvent, flip_bit_in_zone
from repro.util.timeutil import parse_ts
from repro.zone.distribution import ZoneDistributor
from repro.zone.rootzone import RootZoneBuilder
from repro.zone.zone import Zone

TS = parse_ts("2023-12-10T12:00:00")
DAY = 86400


def _first_tld_rrsig(records) -> int:
    """Index of the first RRSIG below the apex (a TLD's DS signature)."""
    return next(
        i
        for i, rec in enumerate(records)
        if rec.rrtype == RRType.RRSIG and not rec.name.is_root()
    )


def _zsk_roll(records):
    """A second, non-verifying covering RRSIG issued *before* the good
    one: an older window and a damaged signature, so issue order shows."""
    i = _first_tld_rrsig(records)
    rec = records[i]
    sig = rec.rdata
    stale = dataclasses.replace(
        sig,
        inception=sig.inception - 2 * DAY,
        signature=bytes([sig.signature[0] ^ 0x01]) + sig.signature[1:],
    )
    return records[:i] + [dataclasses.replace(rec, rdata=stale)] + records[i:]


def _rrsig_before_rrset(records):
    """Move a covering RRSIG ahead of the first record of its RRset."""
    i = _first_tld_rrsig(records)
    rec = records[i]
    j = next(
        k
        for k, other in enumerate(records)
        if other.name == rec.name and int(other.rrtype) == rec.rdata.type_covered
    )
    assert j < i
    return records[:j] + [rec] + records[j:i] + records[i + 1 :]


def _orphan_rrsig(records):
    """An RRSIG covering a type (private use 65280) with no RRset."""
    i = _first_tld_rrsig(records)
    rec = records[i]
    orphan = dataclasses.replace(rec.rdata, type_covered=65280)
    return records[: i + 1] + [dataclasses.replace(rec, rdata=orphan)] + records[i + 1 :]


def _case_folded_owner(records):
    """An RRSIG whose owner differs from its RRset's only in letter case."""
    i = _first_tld_rrsig(records)
    rec = records[i]
    upper = Name(label.upper() for label in rec.name.labels)
    assert upper.labels != rec.name.labels and upper == rec.name
    return records[:i] + [dataclasses.replace(rec, name=upper)] + records[i + 1 :]


ZONE_SHAPES = {
    "as-built": list,
    "zsk-roll": _zsk_roll,
    "rrsig-before-rrset": _rrsig_before_rrset,
    "orphan-rrsig": _orphan_rrsig,
    "case-folded-owner": _case_folded_owner,
}

# The as-built zone keeps its bare check_zonemd ids.
REPLAY_CASES = [
    pytest.param(shape, check_zonemd, id=str(check_zonemd) if shape == "as-built"
                 else f"{shape}-{check_zonemd}")
    for shape in ZONE_SHAPES
    for check_zonemd in (True, False)
]


@pytest.fixture(scope="module")
def zone() -> Zone:
    return ZoneDistributor(RootZoneBuilder(seed=77)).zone_at_site("cache-test", TS)


@pytest.fixture(scope="module")
def flipped(zone) -> Zone:
    event = BitflipEvent(vp_id=0, start_ts=TS - 1, end_ts=TS + 1)
    corrupted, _report = flip_bit_in_zone(zone, event, TS)
    return corrupted


def assert_same_report(cached, fresh):
    assert cached.validated_at == fresh.validated_at
    assert cached.rrsets_checked == fresh.rrsets_checked
    assert cached.signatures_checked == fresh.signatures_checked
    assert cached.valid == fresh.valid
    assert [
        (i.error, i.name, i.rrtype, i.detail) for i in cached.issues
    ] == [(i.error, i.name, i.rrtype, i.detail) for i in fresh.issues]


class TestFingerprint:
    def test_same_content_same_fingerprint(self, zone):
        assert zone_fingerprint(zone) == zone_fingerprint(zone.copy())

    def test_different_content_different_fingerprint(self, zone, flipped):
        assert zone_fingerprint(zone) != zone_fingerprint(flipped)

    def test_replace_record_invalidates_memo(self, zone):
        copy = zone.copy()
        before = zone_fingerprint(copy)
        event = BitflipEvent(vp_id=1, start_ts=TS - 1, end_ts=TS + 1)
        corrupted, report = flip_bit_in_zone(copy, event, TS)
        # flip_bit_in_zone works on its own copy; mutate ours directly.
        copy.replace_record(report.record_index, corrupted.records[report.record_index])
        assert zone_fingerprint(copy) != before
        assert zone_fingerprint(copy) == zone_fingerprint(corrupted)

    def test_records_fingerprint_is_order_sensitive(self, zone):
        records = list(zone.records)
        reordered = [records[1], records[0]] + records[2:]
        assert records_fingerprint(records) != records_fingerprint(reordered)


class TestReportReplay:
    @pytest.mark.parametrize("shape,check_zonemd", REPLAY_CASES)
    def test_matches_validate_zone_across_times(self, zone, shape, check_zonemd):
        records = ZONE_SHAPES[shape](list(zone.records))
        cache = ZoneValidationCache()
        analysis = cache.analyse(records, ROOT_NAME)
        max_inception, min_expiration = analysis.rrsig_envelope
        assert 0 < max_inception < min_expiration
        times = [
            max_inception - 86400,  # before inception: temporal errors
            (max_inception + min_expiration) // 2,  # in-window: valid
            min_expiration + 86400,  # expired: temporal errors
        ]
        for now in times:
            cached = analysis.report_at(now, check_zonemd=check_zonemd)
            fresh = validate_zone(
                records, ROOT_NAME, now=now, check_zonemd=check_zonemd
            )
            assert_same_report(cached, fresh)

    def test_matches_validate_zone_on_corrupted_zone(self, flipped):
        cache = ZoneValidationCache()
        analysis = cache.analyse_zone(flipped, ROOT_NAME)
        midpoint = sum(analysis.rrsig_envelope) // 2
        cached = analysis.report_at(midpoint, check_zonemd=True)
        fresh = validate_zone(flipped.records, ROOT_NAME, now=midpoint)
        assert not cached.valid
        assert_same_report(cached, fresh)

    def test_zonemd_outcome_is_cached_verbatim(self, zone, flipped):
        cache = ZoneValidationCache()
        for z in (zone, flipped):
            assert cache.analyse_zone(z, ROOT_NAME).zonemd == verify_zonemd(
                z.records, ROOT_NAME
            )


class TestCacheBehaviour:
    def test_equal_content_hits_once_analysed(self, zone):
        cache = ZoneValidationCache()
        first = cache.analyse_zone(zone, ROOT_NAME)
        second = cache.analyse_zone(zone.copy(), ROOT_NAME)
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_content_analysed_separately(self, zone, flipped):
        cache = ZoneValidationCache()
        a = cache.analyse_zone(zone, ROOT_NAME)
        b = cache.analyse_zone(flipped, ROOT_NAME)
        assert a is not b
        assert cache.misses == 2

    def test_shared_cache_is_a_singleton(self):
        assert shared_cache() is shared_cache()


class TestComplexity:
    def test_analysis_is_linear_in_zone_size(self, zone, monkeypatch):
        """Covering RRSIGs are looked up, not rescanned per RRset: count
        owner-name comparisons rather than time the analysis."""
        calls = 0
        compare = Name.__eq__

        def counting_eq(self, other):
            nonlocal calls
            calls += 1
            return compare(self, other)

        records = list(zone.records)
        monkeypatch.setattr(Name, "__eq__", counting_eq)
        _analyse(records, ROOT_NAME, zone_fingerprint(zone))
        monkeypatch.undo()
        assert calls < 10 * len(records), f"{calls / len(records):.1f} per record"


class TestFactMemo:
    """Per-RRset facts are keyed on content and shared across versions."""

    @pytest.fixture(scope="class")
    def week_pair(self):
        """Two publications of one signing week: same signed body, new
        SOA and ZONEMD (and their RRSIGs)."""
        builder = RootZoneBuilder(seed=77)
        day = TS - TS % DAY
        first = builder.build(day + 4 * 3600, 0)
        second = builder.build(day + 16 * 3600, 1)
        assert first.serial != second.serial
        assert builder.signature_window(day) == builder.signature_window(day + DAY - 1)
        return first, second

    @staticmethod
    def _count_verifications(monkeypatch):
        import repro.dnssec.digestcache as digestcache

        calls = []
        verify = digestcache.verify_bytes

        def counting(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(digestcache, "verify_bytes", counting)
        return calls

    @staticmethod
    def _doctored(first, second, kind):
        """*second* with one bit flipped in a record it shares with *first*."""
        for vp_id in range(64):
            event = BitflipEvent(vp_id=vp_id, start_ts=TS - 1, end_ts=TS + 1, kind=kind)
            doctored, report = flip_bit_in_zone(second, event, TS)
            index = report.record_index
            if second.records[index] is first.records[index]:
                return doctored
        raise AssertionError(f"no {kind} flip landed in the shared body")

    def test_new_version_verifies_only_changed_rrsets(self, week_pair, monkeypatch):
        first, second = week_pair
        cache = ZoneValidationCache()
        cache.analyse_zone(first, ROOT_NAME)
        calls = self._count_verifications(monkeypatch)
        cache.analyse_zone(second, ROOT_NAME)
        # The SOA and ZONEMD RRsets; every body RRset reuses its fact.
        assert len(calls) == 2

    def test_warm_analysis_equals_a_memo_free_one(self, week_pair):
        first, second = week_pair
        cache = ZoneValidationCache()
        cache.analyse_zone(first, ROOT_NAME)
        warm = cache.analyse_zone(second, ROOT_NAME)
        cold = _analyse(list(second.records), ROOT_NAME, zone_fingerprint(second))
        assert warm == cold

    def test_owner_case_is_part_of_the_content(self, week_pair):
        """Canonical wires fold case; a fact's owner keeps its spelling.
        (The case change rides on *second*, whose fingerprint differs.)"""
        first, second = week_pair
        records = list(second.records)
        i = next(
            k for k, rec in enumerate(records)
            if rec.rrtype == RRType.NSEC and not rec.name.is_root()
        )
        upper = Name(label.upper() for label in records[i].name.labels)
        records[i] = dataclasses.replace(records[i], name=upper)
        cache = ZoneValidationCache()
        cache.analyse_zone(first, ROOT_NAME)
        warm = cache.analyse(records, ROOT_NAME)
        cold = _analyse(records, ROOT_NAME, records_fingerprint(records))
        assert [f.name.labels for f in warm.rrset_facts] == [
            f.name.labels for f in cold.rrset_facts
        ]

    @pytest.mark.parametrize("kind", ["rrsig", "label"])
    def test_doctored_shared_record_is_reverified(self, week_pair, kind):
        first, second = week_pair
        doctored = self._doctored(first, second, kind)
        cache = ZoneValidationCache()
        for zone in (first, second):
            cache.analyse_zone(zone, ROOT_NAME)
        analysis = cache.analyse_zone(doctored, ROOT_NAME)
        now = sum(analysis.rrsig_envelope) // 2
        report = analysis.report_at(now)
        assert_same_report(report, validate_zone(doctored.records, ROOT_NAME, now=now))
        clean = cache.analyse_zone(second, ROOT_NAME).report_at(now)
        assert clean.valid and not report.valid

    def test_clear_drops_every_fact(self, week_pair, monkeypatch):
        first, _second = week_pair
        cache = ZoneValidationCache()
        calls = self._count_verifications(monkeypatch)
        cache.analyse_zone(first, ROOT_NAME)
        cold = len(calls)
        assert cold > 0 and cache.fact_count() > 0
        cache.clear()
        assert cache.fact_count() == 0 and len(cache) == 0
        cache.analyse_zone(first, ROOT_NAME)
        assert len(calls) == 2 * cold
