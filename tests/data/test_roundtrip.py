"""Save → load → analyze round-trip equality.

The property the dataset layer guarantees: for every registered
analysis, the canonical summary rendered from a reloaded dataset is
byte-identical to the one rendered from the in-memory study it was
saved from — serial and sharded (2 and 4 shards) runs alike.  The CLI
tests additionally prove the reload path executes zero re-simulation:
the world-building and campaign stages are poisoned and never fire.
"""

from __future__ import annotations

import pytest

from repro.analysis import registry
from repro.analysis.summaries import (
    PASSIVE_ANALYSES,
    passive_aggregate,
    render_summary,
    summary_names,
)
from repro.cli import analyze_main
from repro.core import StudyPipeline
from repro.data import load_dataset

ALL_ANALYSES = registry.names()


def test_every_registered_analysis_has_a_summary():
    assert summary_names() == ALL_ANALYSES


@pytest.fixture(scope="module")
def aggregate(mini_study_config):
    """The passive ISP capture both sides feed trafficshift and
    clientbehavior — a pure function of the study seed."""
    return passive_aggregate(mini_study_config.seed)


def _inputs(name, aggregate):
    return {"aggregate": aggregate} if name in PASSIVE_ANALYSES else {}


@pytest.fixture(scope="module", params=["serial", "shards2", "shards4"])
def sides(request, mini_pipeline, mini_study_config, tmp_path_factory):
    """(live results, reloaded dataset) for a serial and two sharded runs."""
    if request.param == "serial":
        results = mini_pipeline.results()
    else:
        shards = int(request.param[-1])
        results = StudyPipeline(mini_study_config.with_sharding(shards)).run()
    directory = tmp_path_factory.mktemp(f"ds_{request.param}")
    results.save(directory)
    return results, load_dataset(directory)


@pytest.mark.parametrize("name", ALL_ANALYSES)
def test_summary_identical_after_reload(sides, aggregate, name):
    results, loaded = sides
    inputs = _inputs(name, aggregate)
    live = render_summary(name, registry.run(name, results, **inputs))
    reloaded = render_summary(name, registry.run(name, loaded, **inputs))
    assert live == reloaded


def test_reloaded_transfers_carry_no_zone_content(sides):
    """The audit runs from fingerprints and sealed verdicts alone."""
    _results, loaded = sides
    assert loaded.transfers
    assert all(record.zone is None for record in loaded.transfers)


class TestAnalyzeCli:
    @pytest.fixture(scope="class")
    def saved(self, mini_pipeline, tmp_path_factory):
        directory = tmp_path_factory.mktemp("ds_cli")
        return mini_pipeline.results().save(directory)

    @pytest.fixture(autouse=True)
    def _no_resimulation(self, monkeypatch):
        """Poison every simulation stage: rootsim-analyze must never
        build a world or run a campaign."""
        import repro.core.pipeline as pipeline

        def _boom(*_args, **_kwargs):
            raise AssertionError("rootsim-analyze attempted re-simulation")

        monkeypatch.setattr(pipeline, "build_world", _boom)
        monkeypatch.setattr(pipeline, "build_platform", _boom)
        monkeypatch.setattr(pipeline, "run_campaign", _boom)
        monkeypatch.setattr(pipeline, "CampaignShards", _boom)

    def test_listing(self, saved, capsys):
        assert analyze_main([str(saved)]) == 0
        out = capsys.readouterr().out
        assert "probes" in out
        for name in ("stability", "trafficshift"):
            assert name in out

    @pytest.mark.parametrize("name", ["stability", "rtt", "zonemd_audit"])
    def test_output_matches_in_process(self, saved, mini_study, name, capsys):
        assert analyze_main([str(saved), name]) == 0
        out = capsys.readouterr().out
        live = render_summary(name, registry.run(name, mini_study))
        assert out == live + "\n"

    def test_unknown_analysis_fails_cleanly(self, saved, capsys):
        assert analyze_main([str(saved), "nosuch"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "nope"), "rtt"]) == 2
        assert "no dataset" in capsys.readouterr().err
