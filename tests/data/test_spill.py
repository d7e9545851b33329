"""Shard spills: the mmap handoff format round-trips full fidelity.

A spill must hand the parent process exactly what pickling the shard
collector through the pool pipe used to: row tables, aggregate state,
and transfer observations with their zone copies.  These tests spill a
real (tiny) shard campaign and check the reload merges byte-identically,
plus the guard rails of the format itself.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core.pipeline import CampaignShards, build_platform, build_world
from repro.data import DatasetError
from repro.data.spill import (
    SPILL_NAME,
    SPILL_VERSION,
    read_shard_spill,
    spill_nbytes,
    spill_tempdir,
    write_shard_spill,
)
from repro.vantage.collector import CampaignCollector

from tests.core.test_pipeline import tiny_config


@pytest.fixture(scope="module")
def shard_collectors():
    config = tiny_config().with_sharding(2)
    world = build_world(config)
    platform = build_platform(config, world)
    with CampaignShards(config, world, platform) as shards:
        return shards.advance(0, platform.expected_rounds)


def test_round_trip_preserves_rows_and_state(shard_collectors, tmp_path):
    original = shard_collectors[0]
    spill_dir = write_shard_spill(tmp_path / "s0", original)
    assert spill_nbytes(spill_dir) > 0
    reloaded = read_shard_spill(spill_dir)

    assert reloaded.state() == original.state()
    ours, ref = reloaded.probe_columns(), original.probe_columns()
    for name in ours:
        assert np.array_equal(ours[name], ref[name]), name
    ours, ref = reloaded.traceroute_columns(), original.traceroute_columns()
    for name in ours:
        assert np.array_equal(ours[name], ref[name]), name


def test_round_trip_preserves_transfer_zones(shard_collectors, tmp_path):
    original = shard_collectors[0]
    assert original.transfers, "tiny shard config produced no transfers"
    reloaded = read_shard_spill(write_shard_spill(tmp_path / "s0", original))
    assert len(reloaded.transfers) == len(original.transfers)
    for ours, ref in zip(reloaded.transfers, original.transfers):
        assert ours.vp_id == ref.vp_id
        assert ours.true_ts == ref.true_ts
        assert ours.serial == ref.serial
        assert ours.fault == ref.fault
        assert ours.address.address == ref.address.address
        # zone copies survive with identical wire content
        assert (ours.zone is None) == (ref.zone is None)
        if ref.zone is not None:
            assert ours.zone.serial == ref.zone.serial


def test_zone_pack_deduplicates_shared_zone_objects(shard_collectors, tmp_path):
    original = shard_collectors[0]
    write_shard_spill(tmp_path / "s0", original)
    meta = json.loads((tmp_path / "s0" / SPILL_NAME).read_text())
    distinct = len({id(o.zone) for o in original.transfers if o.zone is not None})
    assert meta["transfers"]["zones"] == distinct
    assert distinct < len(original.transfers)


def test_reloaded_shards_merge_byte_identical(shard_collectors, tmp_path):
    reloaded = [
        read_shard_spill(write_shard_spill(tmp_path / f"s{i}", collector))
        for i, collector in enumerate(shard_collectors)
    ]
    direct = CampaignCollector.merge(shard_collectors)
    via_spill = CampaignCollector.merge(reloaded)
    assert via_spill.state() == direct.state()
    ours, ref = via_spill.probe_columns(), direct.probe_columns()
    for name in ours:
        assert np.array_equal(ours[name], ref[name]), name
    ours, ref = via_spill.traceroute_columns(), direct.traceroute_columns()
    for name in ours:
        assert np.array_equal(ours[name], ref[name]), name
    assert [o.serial for o in via_spill.transfers] == (
        [o.serial for o in direct.transfers]
    )


def test_empty_collector_round_trips(tmp_path):
    empty = CampaignCollector()
    reloaded = read_shard_spill(write_shard_spill(tmp_path / "empty", empty))
    assert reloaded.state() == empty.state()
    assert len(reloaded.probe_columns()["vp"]) == 0
    assert reloaded.transfers == []
    assert not (tmp_path / "empty" / "zones.pkl").exists()


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DatasetError, match="no shard spill"):
        read_shard_spill(tmp_path)


def test_version_mismatch_rejected(shard_collectors, tmp_path):
    write_shard_spill(tmp_path / "s0", shard_collectors[0])
    meta_path = tmp_path / "s0" / SPILL_NAME
    meta = json.loads(meta_path.read_text())
    meta["spill_version"] = SPILL_VERSION + 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="version"):
        read_shard_spill(tmp_path / "s0")


def test_attached_rows_are_read_only_merge_inputs(shard_collectors, tmp_path):
    from repro.vantage.collector import CollectorSealedError

    reloaded = read_shard_spill(
        write_shard_spill(tmp_path / "s0", shard_collectors[0])
    )
    with pytest.raises(CollectorSealedError, match="read-only"):
        reloaded.add_probe_block(**shard_collectors[0].probe_columns())


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda blob: pickle.dumps(pickle.loads(blob)[:-1]), "zones; the pack holds"),
        (lambda blob: blob[: len(blob) // 2], "corrupt zone pack"),
    ],
    ids=["short", "truncated"],
)
def test_damaged_zone_pack_rejected_at_reload(
    shard_collectors, tmp_path, damage, message
):
    """A zone pack that holds fewer zones than the manifest promises, or
    does not unpickle, fails the reload itself, not a later transfer
    access."""
    spill_dir = write_shard_spill(tmp_path / "s0", shard_collectors[0])
    pack = spill_dir / "zones.pkl"
    pack.write_bytes(damage(pack.read_bytes()))
    with pytest.raises(DatasetError, match=message):
        read_shard_spill(spill_dir)


def _reaped_pid() -> int:
    """The pid of a child that has exited and been reaped."""
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_spill_root_names_its_owner_pid(tmp_path, monkeypatch):
    import os

    monkeypatch.setenv("ROOTSIM_SPILL_DIR", str(tmp_path))
    root = spill_tempdir("rootsim-spill-")
    assert root.parent == tmp_path
    assert root.name.startswith(f"rootsim-spill-{os.getpid()}-")


def test_spill_tempdir_sweeps_only_dead_owner_roots(tmp_path, monkeypatch):
    import os

    monkeypatch.setenv("ROOTSIM_SPILL_DIR", str(tmp_path))
    dead = tmp_path / f"rootsim-spill-{_reaped_pid()}-abc"
    live = tmp_path / f"rootsim-spill-{os.getpid()}-xyz"
    others = [
        tmp_path / "rootsim-spill-abc123",  # the old, pid-less format
        tmp_path / "rootsim-spill-12x-abc",
        tmp_path / "other-1-abc",
    ]
    for path in (dead, live, *others):
        (path / "rounds-00000-shard-000").mkdir(parents=True)

    root = spill_tempdir("rootsim-spill-")

    assert not dead.exists()
    assert live.is_dir() and root.is_dir()
    assert all(path.is_dir() for path in others)
