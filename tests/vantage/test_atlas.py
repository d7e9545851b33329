"""The Atlas-built-ins platform simulator."""

import hashlib
import json

import pytest

from repro.util.timeutil import parse_ts
from repro.vantage.atlas import BUILTIN_INTERVALS, AtlasPlatform

#: sha256 of the fixture's sorted change counts, identities and query
#: count (see :func:`_fingerprint`): the ablation's numbers, pinned.
ATLAS_FINGERPRINT = "32bb2e51870769b76086a61f3e0f50700a589c361c6eb60a0fde78f8ec37002a"


def _run(mini_study, mini_pipeline):
    platform = AtlasPlatform(mini_pipeline.platform.selector)
    return platform.run(
        mini_study.vps[:10],
        mini_study.collector.addresses,
        parse_ts("2023-11-21"),
        parse_ts("2023-11-23"),
        interval_scale=12.0,
    )


@pytest.fixture(scope="module")
def atlas_run(mini_study, mini_pipeline):
    return _run(mini_study, mini_pipeline)


def _fingerprint(result) -> str:
    doc = {
        "change_counts": sorted(
            [vp, addr, changes, rounds]
            for (vp, addr), (changes, rounds) in result.change_counts.items()
        ),
        "identities": {
            letter: dict(sorted(bucket.items()))
            for letter, bucket in sorted(result.identities.items())
        },
        "queries": result.queries,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestBuiltins:
    def test_paper_intervals(self):
        assert BUILTIN_INTERVALS["soa"] == 1800
        assert BUILTIN_INTERVALS["hostname.bind"] == 240
        assert BUILTIN_INTERVALS["version.bind"] == 43200

    def test_no_transfers(self, atlas_run):
        assert not atlas_run.has_transfers

    def test_no_old_generation_measured(self, atlas_run):
        measured = {
            atlas_run.addresses[addr_idx].generation
            for _vp, addr_idx in atlas_run.change_counts
        }
        assert "old" not in measured
        assert not atlas_run.distinguishes_b_generations()

    def test_identities_collected(self, atlas_run):
        assert set(atlas_run.identities) == set("abcdefghijklm")

    def test_queries_counted(self, atlas_run):
        # hostname.bind + the slower built-ins: two per (round, VP, address)
        rounds = next(iter(atlas_run.change_counts.values()))[1]
        assert atlas_run.queries == 2 * rounds * len(atlas_run.change_counts) > 0

    def test_stability_counters_exist(self, atlas_run):
        # The built-ins do allow catchment-change counting (hostname.bind
        # every 240 s), just not the per-generation b.root split.
        counts = atlas_run.change_counts
        assert counts
        assert all(rounds > 0 for _changes, rounds in counts.values())

    def test_output_pinned(self, atlas_run):
        assert _fingerprint(atlas_run) == ATLAS_FINGERPRINT
        assert sum(map(len, atlas_run.identities.values())) == 266
        assert len(atlas_run.change_counts) == 260
        assert atlas_run.queries == 31200

    def test_rerun_on_one_selector_is_identical(
        self, atlas_run, mini_study, mini_pipeline
    ):
        assert _fingerprint(_run(mini_study, mini_pipeline)) == _fingerprint(atlas_run)
