"""The command-line tools."""

import pytest

from repro.cli import dig_main, study_main, zonecheck_main


class TestDig:
    def test_ns_query(self, capsys):
        code = dig_main(["@198.41.0.4", ".", "NS", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOERROR" in out
        assert "a.root-servers.net." in out
        assert "Query time:" in out

    def test_dnssec_adds_rrsig(self, capsys):
        dig_main(["@198.41.0.4", ".", "SOA", "--dnssec", "--seed", "7"])
        out = capsys.readouterr().out
        assert "RRSIG" in out

    def test_chaos_identity(self, capsys):
        dig_main(["@193.0.14.129", "hostname.bind.", "TXT", "--chaos", "--seed", "7"])
        out = capsys.readouterr().out
        assert "root-servers.org" in out

    def test_b_root_old_address_answers(self, capsys):
        code = dig_main(
            ["@199.9.14.201", "b.root-servers.net.", "A", "--seed", "7",
             "--at", "2023-12-10T12:00:00"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "170.247.170.2" in out  # zone already carries the new glue

    def test_missing_at_sign_rejected(self):
        with pytest.raises(SystemExit):
            dig_main(["198.41.0.4", ".", "NS"])


class TestZonecheck:
    def test_clean_zone_valid(self, capsys):
        code = zonecheck_main(["--seed", "7", "--at", "2023-12-10T12:00:00"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DNSSEC: valid" in out
        assert "ZONEMD: VALID" in out

    def test_bitflip_detected(self, capsys):
        code = zonecheck_main(["--seed", "7", "--bitflip"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out or "MISMATCH" in out

    def test_pre_rollout_zone_reports_absent(self, capsys):
        code = zonecheck_main(["--seed", "7", "--at", "2023-08-01T12:00:00"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ZONEMD: ABSENT" in out

    def test_dump_writes_master_file(self, tmp_path, capsys):
        target = tmp_path / "root.zone"
        zonecheck_main(["--seed", "7", "--dump", str(target)])
        assert target.exists()
        from repro.zone.zonefile import parse_zone_text

        zone = parse_zone_text(target.read_text())
        assert len(zone) > 1000


class TestStudyCli:
    def test_quick_study_with_export(self, tmp_path, capsys, monkeypatch):
        # Shrink the quick preset further for test runtime.
        from repro.core import StudyConfig

        tiny = StudyConfig(
            seed=7, ring_scale=0.03, interval_scale=96.0,
            campaign_start=__import__("repro.util.timeutil", fromlist=["parse_ts"]).parse_ts("2023-11-20"),
            campaign_end=__import__("repro.util.timeutil", fromlist=["parse_ts"]).parse_ts("2023-11-30"),
        )
        monkeypatch.setattr(StudyConfig, "quick", classmethod(lambda cls, seed=7: tiny))
        code = study_main(["--preset", "quick", "--export", str(tmp_path / "ds")])
        out = capsys.readouterr().out
        assert code == 0
        assert "RQ1" in out and "RQ2" in out and "RQ3" in out
        assert (tmp_path / "ds" / "MANIFEST.json").exists()

    def test_streaming_checkpoint_then_resume_save(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import analyze_main
        from repro.core import StudyConfig
        from tests.streamutil import tiny_stream_config

        tiny = tiny_stream_config()
        monkeypatch.setattr(
            StudyConfig, "quick", classmethod(lambda cls, seed=77: tiny)
        )
        ckpt = tmp_path / "ckpt"
        code = study_main(
            ["--preset", "quick", "--checkpoint", str(ckpt),
             "--checkpoint-every", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sealed chunk 000000: rounds [0, 2)" in out
        assert "5/5 rounds in 3 chunk(s)" in out
        assert (ckpt / "CHECKPOINT.json").exists()

        # a second invocation finalizes from the checkpoint alone — the
        # study config comes from CHECKPOINT.json, not the preset flags
        code = study_main(
            ["--resume", str(ckpt), "--save", str(tmp_path / "ds")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resuming streamed study" in out
        assert (tmp_path / "ds" / "MANIFEST.json").exists()

        # rootsim-analyze serves the checkpoint directory directly
        code = analyze_main([str(ckpt)])
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed checkpoint: 5/5 rounds" in out

    def test_checkpoint_and_resume_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            study_main(["--checkpoint", "a", "--resume", "b"])
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("streamed", [False, True], ids=["batch", "checkpoint"])
    def test_workers_without_shards_rejected(self, streamed, tmp_path, capsys):
        # Workers only ever run shards: a lone --workers would run
        # serially while MANIFEST.json recorded the worker count.
        ckpt = tmp_path / "ckpt"
        argv = ["--preset", "quick", "--workers", "2"]
        if streamed:
            argv += ["--checkpoint", str(ckpt)]
        with pytest.raises(SystemExit) as exit_info:
            study_main(argv)
        assert exit_info.value.code == 2
        assert "--workers requires --shards > 1" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_engine_flag_is_gone(self, capsys):
        # The epoch engine is the only campaign engine; there is no
        # selector left to pass.
        with pytest.raises(SystemExit) as exit_info:
            study_main(["--preset", "quick", "--engine", "epoch"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_resume_without_checkpoint_fails_cleanly(self, tmp_path, capsys):
        code = study_main(["--resume", str(tmp_path / "missing")])
        assert code == 2
        assert "no streaming checkpoint" in capsys.readouterr().err
