"""The rootsim-report artefact generator."""

import json

import pytest

from repro.reportgen import generate_all, generate_from_dataset

EXPECTED_ARTEFACTS = {
    "table1", "table2", "table4",
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig12", "fig13", "fig14", "paths_sec6", "INDEX",
}


@pytest.fixture(scope="module")
def generated(full_window_pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    written = generate_all(full_window_pipeline.results(), str(out))
    return written


class TestGenerateAll:
    def test_every_artefact_written(self, generated):
        assert set(generated) == EXPECTED_ARTEFACTS
        for path in generated.values():
            assert path.exists()
            assert path.stat().st_size > 0

    def test_index_lists_files(self, generated):
        index = generated["INDEX"].read_text()
        for name in EXPECTED_ARTEFACTS - {"INDEX"}:
            assert name in index

    def test_table1_shape(self, generated):
        content = generated["table1"].read_text()
        assert "Table 1" in content
        assert content.count("\n") >= 15

    def test_fig7_has_four_series(self, generated):
        content = generated["fig7"].read_text()
        for label in ("V4new", "V4old", "V6new", "V6old"):
            assert label in content

    def test_fig10_shows_diff(self, generated):
        content = generated["fig10"].read_text()
        assert "Figure 10" in content

    def test_dataset_saved_alongside(self, generated):
        dataset_dir = generated["INDEX"].parent / "dataset"
        assert (dataset_dir / "MANIFEST.json").exists()
        assert (dataset_dir / "tables" / "passive_flows" / "flows.bin").exists()

    def test_timings_sidecar(self, generated):
        timings = json.loads(
            (generated["INDEX"].parent / "TIMINGS.json").read_text()
        )
        assert set(timings["artefacts"]) == EXPECTED_ARTEFACTS - {"INDEX"}
        assert all(seconds >= 0 for seconds in timings["artefacts"].values())


class TestParallelIdentity:
    def test_workers_output_byte_identical(
        self, full_window_pipeline, generated, tmp_path_factory
    ):
        out = tmp_path_factory.mktemp("report_par")
        parallel = generate_all(full_window_pipeline.results(), str(out), workers=2)
        assert set(parallel) == set(generated)
        for name, path in generated.items():
            assert parallel[name].read_text() == path.read_text(), name

    def test_replay_from_dataset(self, generated, tmp_path_factory):
        """Every artefact except fig10's line diff replays from disk."""
        dataset_dir = generated["INDEX"].parent / "dataset"
        out = tmp_path_factory.mktemp("report_replay")
        replayed = generate_from_dataset(str(dataset_dir), str(out), workers=2)
        assert set(replayed) == set(generated)
        for name, path in generated.items():
            if name in ("fig10", "INDEX"):
                continue
            assert replayed[name].read_text() == path.read_text(), name
        assert "Figure 10" in replayed["fig10"].read_text()
