"""The staged pipeline: stage reuse, world checkpointing, sharded and
multiprocess campaign execution, registry-driven analysis."""

import pytest

from repro.analysis import registry
from repro.analysis.stability import StabilityAnalysis
from repro.core import (
    StudyConfig,
    StudyPipeline,
    build_world,
    clear_world_cache,
    shard_vp_lists,
)
from repro.util.timeutil import parse_ts


def tiny_config(**overrides) -> StudyConfig:
    base = dict(
        seed=77,
        ring_scale=0.02,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-11-25"),
        campaign_end=parse_ts("2023-11-30"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def tiny_study() -> StudyPipeline:
    pipeline = StudyPipeline(tiny_config())
    pipeline.run()
    return pipeline


class TestWorldCheckpoint:
    def test_worlds_reused_by_seed(self):
        clear_world_cache()
        config = tiny_config()
        first = build_world(config)
        assert build_world(config) is first
        assert build_world(config, reuse=False) is not first
        clear_world_cache()
        assert build_world(config) is not first

    def test_studies_share_one_world(self):
        clear_world_cache()
        a = StudyPipeline(tiny_config())
        b = StudyPipeline(tiny_config())
        assert a.build_world() is b.build_world()
        # Platforms stay per-study: fresh probers and churn state.
        assert a.build_platform().prober is not b.build_platform().prober
        assert a.platform.selector is not b.platform.selector


class TestStages:
    def test_stages_idempotent(self):
        pipeline = StudyPipeline(tiny_config())
        world = pipeline.build_world()
        assert pipeline.build_world() is world
        platform = pipeline.build_platform()
        assert pipeline.build_platform() is platform

    def test_results_before_campaign_raises(self):
        pipeline = StudyPipeline(tiny_config())
        with pytest.raises(RuntimeError, match="before the campaign"):
            pipeline.results()
        pipeline.build_platform()
        with pytest.raises(RuntimeError, match="before the campaign"):
            pipeline.results()

    def test_stage_outputs_are_attributes(self, tiny_study):
        results = tiny_study.results()
        assert results.catalog is tiny_study.world.catalog
        assert results.deployments is tiny_study.world.deployments
        assert results.vps is tiny_study.platform.vps
        assert results.schedule is tiny_study.platform.schedule
        assert results.collector is tiny_study.collector
        # run_campaign creates the collector; the prober holds none.
        assert not hasattr(tiny_study.platform.prober, "collector")

    def test_run_idempotent(self, tiny_study):
        collector = tiny_study.collector
        before = collector.summary()
        again = tiny_study.run()
        assert again.collector is collector
        assert again.collector.summary() == before


class TestSharding:
    def test_shard_vp_lists_partitions(self, tiny_study):
        vps = tiny_study.platform.vps
        shards = shard_vp_lists(vps, 3)
        assert len(shards) == 3
        flat = [vp.vp_id for shard in shards for vp in shard]
        assert sorted(flat) == [vp.vp_id for vp in vps]
        with pytest.raises(ValueError):
            shard_vp_lists(vps, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(shards=0)
        with pytest.raises(ValueError):
            tiny_config(workers=0)
        sharded = tiny_config().with_sharding(4, workers=2)
        assert (sharded.shards, sharded.workers) == (4, 2)
        serial = sharded.serial()
        assert (serial.shards, serial.workers) == (1, 1)
        assert serial.seed == sharded.seed

    def test_multiprocess_run_equals_serial(self, tiny_study):
        """workers > 1 runs shards on a process pool with mmap spill
        handoff; output is still byte-identical to the serial campaign."""
        import numpy as np

        from repro.core.pipeline import last_spill_stats

        study = StudyPipeline(tiny_config().with_sharding(2, workers=2)).run()
        assert study.collector.summary() == tiny_study.collector.summary()
        assert study.collector.change_counts() == (
            tiny_study.collector.change_counts()
        )
        ours, ref = study.collector.probe_columns(), (
            tiny_study.collector.probe_columns()
        )
        for name in ours:
            assert np.array_equal(ours[name], ref[name]), name

        # the collectors came home through spills, not the pool pipe
        stats = last_spill_stats()
        assert stats is not None and stats["shards"] == 2
        assert stats["spill_bytes"] > 0
        assert stats["payload_bytes"] < 4096


class TestAnalyzeStage:
    def test_all_analyses_reachable_by_name(self):
        assert registry.names() == [
            "clientbehavior",
            "colocation",
            "coverage",
            "distance",
            "paths",
            "querymix",
            "regional_rtt",
            "rssac",
            "rtt",
            "stability",
            "trafficshift",
            "variability",
            "zonemd_audit",
        ]
        for name in registry.names():
            cls = registry.get(name)
            assert cls.name == name
            assert isinstance(cls.requires, tuple)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="stability"):
            registry.get("nope")

    def test_analyze_by_name(self, tiny_study):
        results = tiny_study.results()
        assert isinstance(registry.run("stability", results), StabilityAnalysis)

    def test_analyze_defaults_to_runnable(self, tiny_study):
        runnable = registry.runnable(tiny_study.results())
        # Passive-only analyses need an explicit aggregate.
        assert "trafficshift" not in runnable
        assert "stability" in runnable
        assert "coverage" in runnable

    def test_missing_input_error_names_the_gap(self, tiny_study):
        with pytest.raises(KeyError, match="aggregate"):
            registry.run("trafficshift", tiny_study.results())
