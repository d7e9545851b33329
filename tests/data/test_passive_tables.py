"""Passive captures persisted in the dataset layer.

``StudyResults.save`` ships the standard passive aggregates as the
``passive_flows`` / ``passive_clients`` tables; a reloaded dataset
replays them from disk — byte-identical values, zero re-simulation —
which is what lets ``rootsim-analyze`` and ``rootsim-report --dataset``
render Figures 7–13 without rebuilding any capture.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import registry
from repro.analysis.summaries import render_summary
from repro.cli import analyze_main
from repro.data import PASSIVE_TABLES, load_dataset
from repro.passive.recipes import STANDARD_CAPTURES, standard_captures


@pytest.fixture(scope="module")
def live_captures(mini_study_config):
    return standard_captures(mini_study_config.seed)


@pytest.fixture(scope="module")
def saved_dir(mini_pipeline, tmp_path_factory):
    directory = tmp_path_factory.mktemp("ds_passive")
    return mini_pipeline.results().save(directory)


@pytest.fixture(scope="module")
def loaded(saved_dir):
    return load_dataset(saved_dir)


class TestOnDiskFormat:
    def test_tables_and_manifest(self, saved_dir):
        manifest = json.loads((saved_dir / "MANIFEST.json").read_text())
        recorded = {
            capture["name"] for capture in manifest["passive"]["captures"]
        }
        assert recorded == set(STANDARD_CAPTURES)
        assert manifest["interners"]["captures"]
        assert manifest["interners"]["prefixes"]
        for table in PASSIVE_TABLES:
            assert table in manifest["tables"]
            for column in manifest["tables"][table]["columns"]:
                assert (saved_dir / column["file"]).exists()

    def test_save_is_deterministic(self, mini_pipeline, saved_dir, tmp_path_factory):
        again = mini_pipeline.results().save(tmp_path_factory.mktemp("ds_again"))
        for table in PASSIVE_TABLES:
            for column in ("capture", "flows"):
                a = (saved_dir / "tables" / table / f"{column}.bin").read_bytes()
                b = (again / "tables" / table / f"{column}.bin").read_bytes()
                assert a == b, (table, column)


class TestReload:
    def test_store_attached_with_all_captures(self, loaded):
        assert loaded.passive is not None
        assert loaded.passive.names() == sorted(STANDARD_CAPTURES)

    def test_aggregates_identical_to_live(self, loaded, live_captures):
        for name, live in live_captures.items():
            disk = loaded.passive.aggregate(name)
            assert disk.bucket_seconds == live.bucket_seconds
            assert disk.flows == live.flows
            assert disk.per_client_flows == live.per_client_flows
            assert disk.per_client_days == live.per_client_days
            for key in live.flows:
                assert disk.client_count(*key) == live.client_count(*key)

    def test_reloaded_aggregates_are_counts_only(self, loaded):
        disk = loaded.passive.aggregate("isp")
        with pytest.raises(RuntimeError, match="counts"):
            disk.clients

    def test_unknown_capture_named_cleanly(self, loaded):
        from repro.data import DatasetError

        with pytest.raises(DatasetError, match="isp"):
            loaded.passive.aggregate("nosuch")

    @pytest.mark.parametrize("name", ["trafficshift", "clientbehavior"])
    def test_render_identical_from_disk(self, loaded, live_captures, name):
        live = render_summary(
            name, registry.run(name, aggregate=live_captures["isp"])
        )
        disk = render_summary(
            name, registry.run(name, aggregate=loaded.passive.aggregate("isp"))
        )
        assert live == disk


class TestAnalyzeFromDisk:
    @pytest.fixture(autouse=True)
    def _no_rebuild(self, monkeypatch):
        """The CLI must feed passive analyses from the dataset's passive
        tables, not rebuild the capture from the seed."""
        import repro.analysis.summaries as summaries

        def _boom(*_args, **_kwargs):
            raise AssertionError("analyze rebuilt the passive capture")

        monkeypatch.setattr(summaries, "passive_aggregate", _boom)

    def test_trafficshift_from_passive_tables(
        self, saved_dir, live_captures, capsys
    ):
        assert analyze_main([str(saved_dir), "trafficshift"]) == 0
        out = capsys.readouterr().out
        live = render_summary(
            "trafficshift",
            registry.run("trafficshift", aggregate=live_captures["isp"]),
        )
        assert out == live + "\n"

    def test_listing_names_captures(self, saved_dir, capsys):
        assert analyze_main([str(saved_dir)]) == 0
        out = capsys.readouterr().out
        assert "passive captures: isp, ixp-eu, ixp-na" in out
