"""The command-line tools."""

import pytest

from repro.cli import dig_main, study_main, zonecheck_main
from repro.rss.operators import all_service_addresses

#: The site rootsim-dig's one query from FRA (seed 7) lands on, per
#: service address: the query goes out in the client's round 1, so an
#: excursion that began in round 0 and is still running shows (a and g
#: over IPv4, d and f over IPv6 and the new b address are displaced).
DIG_SITES = {
    "198.41.0.4": "a-013",
    "2001:503:ba3e::2:30": "a-021",
    "170.247.170.2": "b-002",
    "2801:1b8:10::b": "b-002",
    "199.9.14.201": "b-001",
    "2001:500:200::b": "b-001",
    "192.33.4.12": "c-003",
    "2001:500:2::c": "c-003",
    "199.7.91.13": "d-122",
    "2001:500:2d::d": "d-111",
    "192.203.230.10": "e-136",
    "2001:500:a8::e": "e-136",
    "192.5.5.241": "f-189",
    "2001:500:2f::f": "f-138",
    "192.112.36.4": "g-002",
    "2001:500:12::d0d": "g-001",
    "198.97.190.53": "h-005",
    "2001:500:1::53": "h-004",
    "192.36.148.17": "i-044",
    "2001:7fe::53": "i-031",
    "192.58.128.30": "j-086",
    "2001:503:c27::2:30": "j-086",
    "193.0.14.129": "k-069",
    "2001:7fd::1": "k-069",
    "199.7.83.42": "l-054",
    "2001:500:9f::42": "l-053",
    "202.12.27.33": "m-012",
    "2001:dc3::35": "m-012",
}


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

    def test_sites_pinned(self, capsys):
        got = {}
        for sa in all_service_addresses():
            assert dig_main([f"@{sa.address}", ".", "NS", "--seed", "7"]) == 0
            server = capsys.readouterr().out.split(";; SERVER: ")[1]
            got[sa.address] = server.split("site ")[1].split(")")[0]
        assert got == DIG_SITES

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
