"""The Atlas-built-ins platform simulator."""

import pytest

from repro.util.timeutil import parse_ts
from repro.vantage.atlas import BUILTIN_INTERVALS, AtlasPlatform


@pytest.fixture(scope="module")
def atlas_run(mini_study, mini_pipeline):
    platform = AtlasPlatform(mini_pipeline.platform.selector)
    return platform.run(
        mini_study.vps[:10],
        mini_study.collector.addresses,
        parse_ts("2023-11-21"),
        parse_ts("2023-11-23"),
        interval_scale=12.0,
    )


class TestBuiltins:
    def test_paper_intervals(self):
        assert BUILTIN_INTERVALS["soa"] == 1800
        assert BUILTIN_INTERVALS["hostname.bind"] == 240
        assert BUILTIN_INTERVALS["version.bind"] == 43200

    def test_no_transfers(self, atlas_run):
        assert atlas_run.collector.transfer_total == 0
        assert not atlas_run.has_transfers

    def test_no_old_generation_measured(self, atlas_run):
        measured = {
            atlas_run.collector.addresses[addr_idx].generation
            for _vp, addr_idx in atlas_run.collector.change_counts()
        }
        assert "old" not in measured
        assert not atlas_run.distinguishes_b_generations()

    def test_identities_collected(self, atlas_run):
        assert set(atlas_run.collector.identities) == set("abcdefghijklm")

    def test_queries_counted(self, atlas_run):
        assert atlas_run.queries == atlas_run.collector.queries_simulated > 0

    def test_stability_counters_exist(self, atlas_run):
        # The built-ins do allow catchment-change counting (hostname.bind
        # every 240 s), just not the per-generation b.root split.
        counts = atlas_run.collector.change_counts()
        assert counts
        assert all(rounds > 0 for _changes, rounds in counts.values())
