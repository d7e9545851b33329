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
from repro.data import PASSIVE_TABLES, PassiveStore, load_dataset
from repro.passive.querymix import synthesize_querymix
from repro.passive.recipes import STANDARD_CAPTURES, standard_captures
from repro.rss.operators import all_service_addresses

from tests.passive.scalar_capture import expand


@pytest.fixture(scope="module")
def live_captures(mini_study_config):
    return standard_captures(mini_study_config.seed)


@pytest.fixture(scope="module")
def seed1_round_trip():
    """Seed 1's standard captures, live and reloaded from their tables."""
    live = PassiveStore.from_aggregates(standard_captures(1))
    addresses = [sa.address for sa in all_service_addresses()]
    tables, captures, prefixes = live.to_tables(
        {address: i for i, address in enumerate(addresses)}
    )
    reloaded = PassiveStore.from_tables(
        tables,
        captures=captures,
        prefixes=prefixes,
        addresses=addresses,
        bucket_seconds={name: live.bucket_seconds(name) for name in captures},
    )
    return live, reloaded


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


    def test_to_tables_rejects_foreign_address_coding(self, live_captures):
        from repro.data import DatasetError

        store = PassiveStore.from_aggregates({"isp": live_captures["isp"]})
        addresses = list(reversed(live_captures["isp"].addresses))
        with pytest.raises(DatasetError, match="codes service addresses"):
            store.to_tables({address: i for i, address in enumerate(addresses)})

    def test_passive_save_does_not_leak_into_later_saves(
        self, mini_pipeline, tmp_path
    ):
        results = mini_pipeline.results()
        first = results.save(tmp_path / "with")
        assert "passive" in json.loads((first / "MANIFEST.json").read_text())
        assert results.dataset.passive is None
        second = results.save(tmp_path / "without", passive=False)
        manifest = json.loads((second / "MANIFEST.json").read_text())
        assert "passive" not in manifest
        for table in PASSIVE_TABLES:
            assert table not in manifest["tables"]
            assert not (second / "tables" / table).exists()


class TestReload:
    def test_store_attached_with_all_captures(self, loaded):
        assert loaded.passive is not None
        assert loaded.passive.names() == sorted(STANDARD_CAPTURES)

    def test_aggregates_identical_to_live(self, loaded, live_captures):
        for name, live in live_captures.items():
            disk = loaded.passive.aggregate(name)
            assert disk.bucket_seconds == live.bucket_seconds
            assert expand(disk) == expand(live)
            for key in expand(live)["flows"]:
                assert disk.client_count(*key) == live.client_count(*key)

    @pytest.mark.parametrize("name", STANDARD_CAPTURES)
    def test_querymix_identical_live_and_reloaded(self, seed1_round_trip, name):
        """The per-bucket volumes sum the flow table in one order, so a
        live aggregate and its reload synthesise the same float bits
        (seed 1's ``ixp-na`` once differed in the last bit)."""
        live_store, disk_store = seed1_round_trip
        live = synthesize_querymix(live_store.aggregate(name), 1).buckets
        disk = synthesize_querymix(disk_store.aggregate(name), 1).buckets
        assert [b.bucket for b in live] == [b.bucket for b in disk]
        for mine, theirs in zip(live, disk):
            for category in ("valid", "chromioid", "junk"):
                assert getattr(mine, category).hex() == getattr(theirs, category).hex()

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
