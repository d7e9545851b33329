"""Served-state probes and the checkpoint watcher.

The serving layer's correctness hinges on the watcher: a cached result
must never outlive the data extent it was computed over.  These tests
drive a real streamed campaign and check that every sealed chunk moves
the watermark, that content-free rewrites of ``CHECKPOINT.json`` do
*not*, and that the service invalidates exactly the stale entries as the
checkpoint grows underneath it.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.core.streaming import (
    finalize_streaming_campaign,
    run_streaming_campaign,
)
from repro.data import (
    DatasetError,
    DatasetWatcher,
    probe_state,
    study_fingerprint,
)
from repro.data.chunks import CHECKPOINT_NAME

from tests.streamutil import tiny_stream_config


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """A complete streamed checkpoint (5 rounds in chunks of 2)."""
    ckpt = tmp_path_factory.mktemp("watch") / "stream"
    run = run_streaming_campaign(tiny_stream_config(), ckpt, checkpoint_every=2)
    assert run.complete
    return ckpt


@pytest.fixture(scope="module")
def dataset_dir(checkpoint_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("watch-ds") / "dataset"
    finalize_streaming_campaign(checkpoint_dir, out, passive=False)
    return out


class TestStudyFingerprint:
    def test_no_study_is_unstamped(self):
        assert study_fingerprint(None) == "unstamped"
        assert study_fingerprint({}) == "unstamped"

    def test_scenario_stamp_wins(self):
        study = {
            "seed": 1,
            "scenario": {"name": "default", "fingerprint": "abcd1234"},
        }
        assert study_fingerprint(study) == "scenario:abcd1234"

    def test_config_hash_is_deterministic_and_content_sensitive(self):
        study = {"seed": 1, "ring_scale": 0.5}
        assert study_fingerprint(study) == study_fingerprint(dict(study))
        assert study_fingerprint(study) != study_fingerprint(
            {"seed": 2, "ring_scale": 0.5}
        )
        assert study_fingerprint(study).startswith("study:")


class TestProbeState:
    def test_finalized_dataset(self, dataset_dir):
        state = probe_state(dataset_dir)
        assert state.kind == "dataset"
        assert state.final
        assert state.watermark.startswith("final:")
        assert state.fingerprint.startswith("study:")
        # immutable: re-probe reports the identical state
        assert probe_state(dataset_dir) == state

    def test_streaming_checkpoint(self, checkpoint_dir):
        state = probe_state(checkpoint_dir)
        assert state.kind == "checkpoint"
        assert not state.final
        assert state.watermark == "rounds:5/5:chunks:3"

    def test_checkpoint_and_dataset_share_fingerprint(
        self, checkpoint_dir, dataset_dir
    ):
        assert (
            probe_state(checkpoint_dir).fingerprint
            == probe_state(dataset_dir).fingerprint
        )

    def test_unservable_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError, match="nothing servable"):
            probe_state(tmp_path)

    def test_corrupt_checkpoint_raises(self, checkpoint_dir, tmp_path):
        copy = tmp_path / "corrupt"
        shutil.copytree(checkpoint_dir, copy)
        (copy / CHECKPOINT_NAME).write_text("{torn")
        with pytest.raises(DatasetError, match="corrupt checkpoint"):
            probe_state(copy)


class TestWatcher:
    def test_every_seal_moves_the_watermark(self, tmp_path):
        ckpt = tmp_path / "stream"
        seen = []
        watcher = None

        def after_chunk(index, chunk_dir, lo, hi):
            nonlocal watcher
            if watcher is None:
                watcher = DatasetWatcher(ckpt)
                seen.append(watcher.state.watermark)
                return
            changed = watcher.poll()
            assert changed is not None, "sealed chunk must move the watermark"
            seen.append(changed.watermark)
            assert watcher.poll() is None  # steady state between seals

        run = run_streaming_campaign(
            tiny_stream_config(), ckpt, checkpoint_every=2,
            after_chunk=after_chunk,
        )
        assert run.complete
        assert seen == [
            "rounds:2/5:chunks:1",
            "rounds:4/5:chunks:2",
            "rounds:5/5:chunks:3",
        ]

    def test_content_free_rewrite_is_not_a_change(self, checkpoint_dir, tmp_path):
        # note_passive_done rewrites CHECKPOINT.json without changing the
        # servable extent; the watcher must not report it.
        copy = tmp_path / "rewrite"
        shutil.copytree(checkpoint_dir, copy)
        watcher = DatasetWatcher(copy)
        payload = json.loads((copy / CHECKPOINT_NAME).read_text())
        (copy / CHECKPOINT_NAME).write_text(json.dumps(payload))
        os.utime(copy / CHECKPOINT_NAME)
        assert watcher.poll() is None
        assert watcher.state.watermark == "rounds:5/5:chunks:3"

    def test_finalized_dataset_polls_free(self, dataset_dir):
        watcher = DatasetWatcher(dataset_dir)
        assert watcher.poll() is None
        assert watcher.state.final

    def test_checkpoint_to_dataset_transition(
        self, checkpoint_dir, dataset_dir, tmp_path
    ):
        served = tmp_path / "served"
        shutil.copytree(checkpoint_dir, served)
        watcher = DatasetWatcher(served)
        assert watcher.state.kind == "checkpoint"
        # the directory is finalized in place: dataset files land next to
        # the checkpoint debris, and the manifest takes over
        for item in dataset_dir.iterdir():
            target = served / item.name
            if item.is_dir():
                shutil.copytree(item, target, dirs_exist_ok=True)
            else:
                shutil.copy2(item, target)
        changed = watcher.poll()
        assert changed is not None
        assert changed.kind == "dataset"
        assert changed.watermark.startswith("final:")
        assert watcher.poll() is None  # final: now free forever

    def test_lost_governing_file_raises(self, checkpoint_dir, tmp_path):
        copy = tmp_path / "lost"
        shutil.copytree(checkpoint_dir, copy)
        watcher = DatasetWatcher(copy)
        (copy / CHECKPOINT_NAME).unlink()
        with pytest.raises(DatasetError, match="lost its governing file"):
            watcher.poll()


class TestServiceInvalidation:
    def test_growing_checkpoint_invalidates_stale_entries(self, tmp_path):
        """The tentpole invariant end-to-end: while a streamed campaign
        seals chunks into a served directory, every request observes the
        current watermark, stale cache lines die on each seal, and the
        cached bytes always match a fresh computation.  ``rtt`` reads the
        probe-cell index its dataset object keeps: each watermark's
        reload must bring a new index, never the last one's."""
        from repro.analysis.summaries import analysis_json_bytes
        from repro.data import load_dataset
        from repro.serving import AnalysisService, Catalog

        ckpt = tmp_path / "stream"
        probes = []
        service = None

        def after_chunk(index, chunk_dir, lo, hi):
            nonlocal service
            if service is None:
                service = AnalysisService(Catalog([ckpt]))
            fresh = load_dataset(ckpt)
            for name in ("coverage", "rtt"):
                response = service.handle(
                    "GET", f"/datasets/stream/analyses/{name}"
                )
                assert response.status == 200
                assert response.body == analysis_json_bytes(fresh, name), name
                probes.append((name, response.headers["ETag"], response.body))
            # stale watermarks were dropped: every cached key is current
            watermark = service.catalog.entry("stream").state.watermark
            for key in service.cache.keys():
                assert key.watermark == watermark

        run = run_streaming_campaign(
            tiny_stream_config(), ckpt, checkpoint_every=2,
            after_chunk=after_chunk,
        )
        assert run.complete
        assert len(probes) == 6
        # each seal produced a distinct ETag (watermark moved every time)
        assert len({etag for _, etag, _ in probes}) == 3
        # and the RTT figures grew with the rows behind them
        assert len({body for name, _, body in probes if name == "rtt"}) == 3
        stats = service.cache.stats.snapshot()
        assert stats["misses"] == 6  # recomputed per watermark
        assert stats["invalidations"] >= 2  # stale lines reclaimed

    def test_truncated_column_is_a_typed_5xx_never_a_stale_body(self, tmp_path):
        """A chunk sealed with a damaged column file moves the watermark;
        the next request must fail as unreadable data, not fall back to
        the previous watermark's cached bytes."""
        import json

        from repro.serving import AnalysisService, Catalog

        ckpt = tmp_path / "stream"
        seen = []
        service = None

        def after_chunk(index, chunk_dir, lo, hi):
            nonlocal service
            if service is None:
                service = AnalysisService(Catalog([ckpt]))
            column = chunk_dir / "tables" / "probes" / "rtt.bin"
            intact = column.read_bytes()
            if index == 1:
                column.write_bytes(intact[: len(intact) // 2])
            try:
                response = service.handle("GET", "/datasets/stream/analyses/rtt")
            finally:
                column.write_bytes(intact)
            seen.append(response)

        run = run_streaming_campaign(
            tiny_stream_config(), ckpt, checkpoint_every=2,
            after_chunk=after_chunk,
        )
        assert run.complete
        assert [response.status for response in seen] == [200, 503, 200]
        error = json.loads(seen[1].body)
        assert error["type"] == "CheckpointError"  # a DatasetError
        assert "rtt.bin" in error["error"]
        assert "ETag" not in seen[1].headers
        stats = json.loads(service.handle("GET", "/stats").body)
        assert stats["requests"]["errors"] == {"CheckpointError": 1}
