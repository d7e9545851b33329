"""V1 — §4.2/§7: validation of the out-of-band zone channels.

Regenerates the roll-out audit of the CZDS and IANA download series:
no ZONEMD before 2023-09-13ish, a non-validatable placeholder until
2023-12-06, fully validating zones afterwards — with RRSIGs valid
throughout (the paper found no issues in these channels).
"""

from repro.analysis.report import render_source_audit
from repro.analysis import registry
from repro.dnssec.zonemd import ZonemdStatus
from repro.util.timeutil import DAY, format_ts, parse_ts
from repro.zone.rootzone import ZONEMD_VALIDATABLE_DATE
from repro.zone.sources import CzdsSource, IanaSource


def test_sources_validation_schedule(benchmark, results):
    iana = IanaSource(results.distributor)
    czds = CzdsSource(results.distributor)

    # Sample both channels every few days across the roll-out.
    sample_days = [
        parse_ts("2023-08-15"), parse_ts("2023-09-15"), parse_ts("2023-09-25"),
        parse_ts("2023-10-15"), parse_ts("2023-11-15"), parse_ts("2023-12-05"),
        parse_ts("2023-12-07"), parse_ts("2023-12-15"), parse_ts("2024-01-15"),
    ]

    def build():
        downloads = [iana.download(day + 12 * 3600) for day in sample_days]
        downloads += [czds.download(day) for day in sample_days]
        return registry.get("zonemd_audit").audit_downloads(downloads)

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(render_source_audit(rows))

    # RRSIGs always validate in these channels (paper: no issues found).
    assert all(r.rrsig_valid for r in rows)
    # The ZONEMD status follows the roll-out calendar.
    for row in rows:
        if row.retrieved_at < parse_ts("2023-09-13"):
            assert row.zonemd_status is ZonemdStatus.ABSENT
        elif row.retrieved_at < ZONEMD_VALIDATABLE_DATE:
            assert row.zonemd_status in (
                ZonemdStatus.ABSENT, ZonemdStatus.UNSUPPORTED_ALGORITHM
            )
        elif row.retrieved_at > ZONEMD_VALIDATABLE_DATE + DAY:
            assert row.zonemd_status is ZonemdStatus.VALID

    first = registry.get("zonemd_audit").first_validating_download(rows)
    assert first is not None
    print(f"first fully-validating download: {first.source} at "
          f"{format_ts(first.retrieved_at)} (paper: IANA 2023-12-06T20:30)")
