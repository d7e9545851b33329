"""Ablation: NLNOG RING suite vs RIPE Atlas built-ins (Appendix E).

The paper argues it could not have been done on Atlas: the built-ins
carry no AXFR (no RQ3), no per-generation b.root probing (no Figure 3
old/new split), and coarser identity cadence.  This ablation runs both
platforms over the same world and measures what survives.
"""

from repro.util.timeutil import parse_ts
from repro.vantage.atlas import AtlasPlatform


def test_ablation_platform_choice(benchmark, results, study, analyze):
    window = (parse_ts("2023-11-20"), parse_ts("2023-11-27"))
    vps = results.vps[:40]

    def build():
        platform = AtlasPlatform(study.platform.selector)
        return platform.run(
            vps, results.collector.addresses, *window, interval_scale=48.0
        )

    atlas = benchmark.pedantic(build, rounds=1, iterations=1)

    print()
    print("Ablation: what the Atlas built-ins would have captured")
    # 1. Coverage works on both platforms (identities are built in).
    atlas_coverage = analyze(
        "coverage", catalog=results.catalog, identities=atlas.identities
    )
    nlnog_coverage = analyze("coverage", results)
    atlas_total, _ = atlas_coverage.observed_identifier_count()
    nlnog_total, _ = nlnog_coverage.observed_identifier_count()
    print(f"  identities observed: Atlas built-ins {atlas_total}, "
          f"NLNOG suite {nlnog_total}")
    assert atlas_total > 0

    # 2. RQ3 is impossible: no zone transfers at all.
    print(f"  zone transfers: Atlas {'some' if atlas.has_transfers else 'none'}, "
          f"NLNOG {results.collector.transfer_total}")
    assert not atlas.has_transfers
    assert results.collector.transfer_total > 0

    # 3. The b.root old/new distinction is lost.
    print(f"  b.root old/new distinguished: Atlas "
          f"{atlas.distinguishes_b_generations()}, NLNOG True")
    assert not atlas.distinguishes_b_generations()

    # NLNOG measures both generations separately.
    nlnog_generations = {
        results.collector.addresses[addr_idx].generation
        for _vp, addr_idx in results.collector.change_counts()
        if results.collector.addresses[addr_idx].letter == "b"
    }
    assert {"old", "new"} <= nlnog_generations