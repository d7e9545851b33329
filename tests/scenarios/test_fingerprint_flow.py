"""Provenance flow: the scenario fingerprint travels with the data.

A scenario-built campaign stamps its identity into ``MANIFEST.json``
(batch save) and ``CHECKPOINT.json`` (streaming), and the consumers
validate it: ``rootsim-analyze --scenario`` refuses a dataset produced
by a different scenario, and ``rootsim-study --resume --scenario``
refuses a checkpoint whose fingerprint mismatches — both exit 2 with a
"refusing" message rather than silently analysing mislabelled data.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import analyze_main, study_main
from repro.core import StudyPipeline
from repro.scenarios import Scenario, compose
from repro.util.timeutil import parse_ts


@pytest.fixture
def tiny_scenario_configs(monkeypatch):
    """Shrink every scenario materialisation to the five-day tiny
    campaign so the CLI paths run in test time.  The scenario identity
    stamp (and so the fingerprint) is untouched — only execution scale
    changes, which the fingerprint excludes by design."""
    original = Scenario.study_config

    def tiny(self, seed=77, **execution):
        config = original(self, seed=seed, **execution)
        return replace(
            config,
            ring_scale=min(config.ring_scale, 0.02),
            interval_scale=max(config.interval_scale, 96.0),
            campaign_start=parse_ts("2023-11-25"),
            campaign_end=parse_ts("2023-11-30"),
            rtt_sample_every=1,
            traceroute_sample_every=2,
            axfr_sample_every=2,
            clean_transfer_keep_one_in=20,
        )

    monkeypatch.setattr(Scenario, "study_config", tiny)


class TestManifestStamp:
    def test_fingerprint_lands_in_manifest(
        self, tmp_path, tiny_scenario_configs
    ):
        scenario = compose("default", ["no-faults"])
        results = StudyPipeline(scenario.study_config(seed=77)).run()
        saved = results.save(str(tmp_path / "ds"))

        manifest = json.loads((saved / "MANIFEST.json").read_text())
        stamp = manifest["study"]["scenario"]
        assert stamp["name"] == "default"
        assert stamp["overlays"] == ["no-faults"]
        assert stamp["fingerprint"] == scenario.fingerprint()

    def test_analyze_refuses_mismatched_scenario(
        self, tmp_path, tiny_scenario_configs, capsys
    ):
        results = StudyPipeline(compose("default").study_config(seed=77)).run()
        saved = results.save(str(tmp_path / "ds"))

        code = analyze_main([str(saved), "--scenario", "froot-sea"])
        err = capsys.readouterr().err
        assert code == 2
        assert "was produced by scenario 'default'" in err
        assert "refusing to analyze" in err

    def test_analyze_accepts_matching_scenario(
        self, tmp_path, tiny_scenario_configs, capsys
    ):
        results = StudyPipeline(compose("default").study_config(seed=77)).run()
        saved = results.save(str(tmp_path / "ds"))

        code = analyze_main([str(saved), "--scenario", "default"])
        out = capsys.readouterr().out
        assert code == 0
        assert "runnable analyses" in out

    def test_analyze_refuses_unstamped_dataset_as_scenario(
        self, tmp_path, capsys
    ):
        from tests.streamutil import tiny_stream_config

        results = StudyPipeline(tiny_stream_config()).run()
        saved = results.save(str(tmp_path / "ds"))

        code = analyze_main([str(saved), "--scenario", "default"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no registered scenario" in err


class TestCheckpointStamp:
    def test_fingerprint_lands_in_checkpoint_and_gates_resume(
        self, tmp_path, tiny_scenario_configs, capsys
    ):
        ckpt = tmp_path / "ckpt"
        code = study_main(
            ["--scenario", "default", "--seed", "77",
             "--checkpoint", str(ckpt), "--checkpoint-every", "2"]
        )
        assert code == 0, capsys.readouterr().err

        checkpoint = json.loads((ckpt / "CHECKPOINT.json").read_text())
        stamp = checkpoint["study"]["scenario"]
        assert stamp["name"] == "default"
        assert stamp["fingerprint"] == compose("default").fingerprint()
        capsys.readouterr()

        # wrong scenario: refuse before touching the campaign
        code = study_main(
            ["--resume", str(ckpt), "--scenario", "froot-sea"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "was produced by scenario 'default'" in err
        assert "refusing to resume" in err

        # right scenario: resume, finalize, and keep the stamp in the
        # finalized manifest
        code = study_main(
            ["--resume", str(ckpt), "--scenario", "default",
             "--save", str(tmp_path / "ds")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming streamed study" in out
        manifest = json.loads(
            (tmp_path / "ds" / "MANIFEST.json").read_text()
        )
        assert (
            manifest["study"]["scenario"]["fingerprint"]
            == compose("default").fingerprint()
        )
