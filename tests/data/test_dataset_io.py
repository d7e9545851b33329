"""On-disk dataset format: mmap-backed reload and manifest validation.

The reload must be zero-copy (``np.memmap`` columns, no ``np.load`` of
full files), and the manifest must act as the format's contract: wrong
schema version, truncated columns, doctored dtypes and unknown
addresses all fail loudly instead of producing silently-wrong analyses.
"""

import json
import shutil

import numpy as np
import pytest

from repro.data import (
    BINARY_TABLES,
    SCHEMA_VERSION,
    DatasetError,
    DatasetVersionError,
    load_dataset,
    save_dataset,
)
from repro.data.io import MANIFEST_NAME


@pytest.fixture(scope="module")
def saved(mini_pipeline, tmp_path_factory):
    """A pristine saved dataset directory (module-shared, read-only)."""
    directory = tmp_path_factory.mktemp("ds_io")
    return save_dataset(mini_pipeline.results().dataset, directory)


@pytest.fixture()
def doctored(saved, tmp_path):
    """A private copy of the saved dataset, safe to corrupt."""
    target = tmp_path / "ds"
    shutil.copytree(saved, target)
    return target


class TestMmapReload:
    def test_columns_are_memory_mapped(self, saved):
        loaded = load_dataset(saved)
        for name, schema in BINARY_TABLES.items():
            table = loaded.table(name)
            if len(table) == 0:
                continue
            for spec in schema.columns:
                column = table.column(spec.name)
                assert isinstance(column, np.memmap), (name, spec.name)
                assert column.dtype == spec.disk_dtype

    def test_probe_dtypes_match_live_collector(self, mini_study, saved):
        live = mini_study.collector.probe_columns()
        loaded = load_dataset(saved).probe_columns()
        assert set(live) == set(loaded)
        for key, array in live.items():
            assert loaded[key].dtype == array.dtype, key
            assert (loaded[key] == array).all(), key

    def test_manifest_contents(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["study"]["seed"] == 1234
        for name in BINARY_TABLES:
            entry = manifest["tables"][name]
            assert entry["rows"] >= 0
            assert {c["name"] for c in entry["columns"]} == set(
                BINARY_TABLES[name].column_names()
            )

    def test_study_config_roundtrip(self, mini_study, saved):
        loaded = load_dataset(saved)
        assert loaded.study_config() == mini_study.config

    def test_study_inputs_without_simulation(self, mini_study, saved):
        inputs = load_dataset(saved).study_inputs()
        assert len(inputs["vps"]) == len(mini_study.vps)
        assert [vp.attachment.asn for vp in inputs["vps"]] == [
            vp.attachment.asn for vp in mini_study.vps
        ]
        assert len(inputs["catalog"]) == len(mini_study.catalog)
        assert [s.identity() for s in inputs["catalog"].of_letter("b")] == [
            s.identity() for s in mini_study.catalog.of_letter("b")
        ]


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DatasetError, match="no dataset at"):
            load_dataset(empty)

    def test_corrupt_manifest(self, doctored):
        (doctored / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt manifest"):
            load_dataset(doctored)

    def test_version_mismatch(self, doctored):
        manifest = json.loads((doctored / MANIFEST_NAME).read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        (doctored / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetVersionError, match="Regenerate the dataset"):
            load_dataset(doctored)

    def test_version_error_is_dataset_error(self):
        assert issubclass(DatasetVersionError, DatasetError)

    def test_truncated_column_file(self, doctored):
        rtt = doctored / "tables" / "probes" / "rtt.bin"
        rtt.write_bytes(rtt.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="bytes"):
            load_dataset(doctored)

    def test_missing_column_file(self, doctored):
        (doctored / "tables" / "probes" / "rtt.bin").unlink()
        with pytest.raises(DatasetError, match="missing column file"):
            load_dataset(doctored)

    def test_doctored_dtype(self, doctored):
        manifest = json.loads((doctored / MANIFEST_NAME).read_text())
        manifest["tables"]["probes"]["columns"][0]["dtype"] = "float64"
        (doctored / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="dtype"):
            load_dataset(doctored)

    def test_unknown_service_address(self, doctored):
        manifest = json.loads((doctored / MANIFEST_NAME).read_text())
        manifest["addresses"][0] = "203.0.113.99"
        (doctored / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="unknown service address"):
            load_dataset(doctored)


class TestTableRequirements:
    def test_require_tables_names_the_consumer(self, saved):
        loaded = load_dataset(saved)
        with pytest.raises(DatasetError, match="analysis 'demo'.*nosuch"):
            loaded.require_tables(["probes", "nosuch"], consumer="analysis 'demo'")

    def test_unknown_table_lists_available(self, saved):
        loaded = load_dataset(saved)
        with pytest.raises(DatasetError, match="available: .*probes"):
            loaded.table("nosuch")
