"""The workload seed drives the scenario seed and the request order, and
the same seed gives the same saved bytes."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import job  # noqa: E402


def test_request_order_is_a_seeded_permutation():
    first = common.request_order(7, "cold0")
    assert first == common.request_order(7, "cold0")
    assert sorted(first) == sorted(common.ANALYSES)
    orders = {tuple(common.request_order(seed, "cold0")) for seed in range(8)}
    assert len(orders) > 1
    assert common.request_order(7, "cold1") != first or common.request_order(7, "cold2") != first


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_study_config_follows_the_seed(workload):
    a = common.study_config(workload, common.DEFAULT_SEED)
    assert a == common.study_config(workload, common.DEFAULT_SEED)
    b = common.study_config(workload, common.HOLDOUT_SEED)
    assert (a.seed, b.seed) == (common.DEFAULT_SEED, common.HOLDOUT_SEED)
    # the seed changes the campaign, never the scenario's identity
    assert a.scenario == b.scenario


def test_resize_shows_in_the_scenario_fingerprint():
    from repro.scenarios import compose

    churn = common.study_config("save-churn", 1)
    assert churn.scenario["name"] == "default"
    assert churn.scenario["fingerprint"] != compose("default").fingerprint()
    assert churn.ring_scale == 0.1 and churn.interval_scale == 48.0
    stream = common.study_config("stream-dense", 1)
    assert "no-faults" in stream.scenario["overlays"] and not stream.include_faults


def test_digests_are_pinned_for_the_default_seed():
    pins = json.loads((HERE / "digests.json").read_text())
    for workload in ("save-churn", "stream-dense"):
        assert len(pins[workload][str(common.DEFAULT_SEED)]) == 64


def test_tree_digest_sees_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.bin").write_bytes(b"12")
    first = common.tree_digest(tmp_path)
    assert first == common.tree_digest(tmp_path)
    (tmp_path / "a" / "x.bin").write_bytes(b"13")
    assert common.tree_digest(tmp_path) != first


def _tiny_save(monkeypatch, out: Path, seed: int) -> str:
    from repro.core.pipeline import clear_world_cache

    monkeypatch.setitem(common.SHAPES, "save-churn", {
        "scenario": "default",
        "overlays": (),
        "world": {"ring_scale": 0.02},
        "platform": {
            "interval_scale": 96.0,
            "campaign_start": "2023-11-25",
            "campaign_end": "2023-11-28",
        },
    })
    clear_world_cache()
    tracer = common.Tracer(enabled=False)
    config, pipeline, platform, _ = job.run_setup("save-churn", seed, tracer)
    result = job.run_save(config, pipeline, platform, out, tracer)
    return common.tree_digest(Path(result["dataset"]))


def test_same_seed_saves_the_same_bytes(monkeypatch, tmp_path):
    first = _tiny_save(monkeypatch, tmp_path / "one", 5)
    assert first == _tiny_save(monkeypatch, tmp_path / "two", 5)
    assert first != _tiny_save(monkeypatch, tmp_path / "three", 6)
