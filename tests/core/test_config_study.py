"""Study configuration and orchestration."""

import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.util.timeutil import parse_ts
from repro.vantage.scheduler import CAMPAIGN_END, CAMPAIGN_START


class TestConfig:
    def test_presets_ordered_by_size(self):
        quick = StudyConfig.quick()
        standard = StudyConfig.standard()
        paper = StudyConfig.paper_scale()
        assert quick.ring_scale < standard.ring_scale < paper.ring_scale
        assert quick.interval_scale > standard.interval_scale > paper.interval_scale

    def test_paper_scale_is_full(self):
        paper = StudyConfig.paper_scale()
        assert paper.ring_scale == 1.0
        assert paper.interval_scale == 1.0
        assert paper.campaign_start == CAMPAIGN_START
        assert paper.campaign_end == CAMPAIGN_END

    def test_with_seed(self):
        config = StudyConfig.quick().with_seed(7)
        assert config.seed == 7
        assert config.ring_scale == StudyConfig.quick().ring_scale

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(interval_scale=0)
        with pytest.raises(ValueError):
            StudyConfig(campaign_start=10, campaign_end=5)

    def test_engine_is_epoch_only(self):
        # A recorded field (MANIFEST.json keeps "engine": "epoch"); the
        # epoch engine is the only campaign engine.
        assert StudyConfig().engine == "epoch"
        with pytest.raises(ValueError, match="engine must be 'epoch'"):
            StudyConfig(engine="scalar")

    def test_sampling_validation(self):
        from repro.vantage.probes import SamplingPolicy

        with pytest.raises(ValueError):
            SamplingPolicy(rtt_every=0)


class TestStudyConstruction:
    def test_world_built(self, mini_study):
        assert len(mini_study.vps) > 10
        assert len(mini_study.deployments) == 13
        assert len(mini_study.catalog) > 1000

    def test_fault_plan_targets_valid_vps(self, mini_study):
        n = len(mini_study.vps)
        for event in mini_study.fault_plan.bitflips:
            assert 0 <= event.vp_id < n
        for vp_id in mini_study.fault_plan.clocks.vp_ids:
            assert 0 <= vp_id < n

    def test_stale_sites_are_popular_d_sites(self, mini_study):
        d_keys = {s.key for s in mini_study.catalog.of_letter("d")}
        for event in mini_study.fault_plan.stale_sites:
            assert event.site_key in d_keys

    def test_faults_can_be_disabled(self):
        config = StudyConfig(
            ring_scale=0.02,
            interval_scale=96.0,
            campaign_start=parse_ts("2023-08-01"),
            campaign_end=parse_ts("2023-08-03"),
            include_faults=False,
        )
        fault_plan = StudyPipeline(config).build_platform().fault_plan
        assert not fault_plan.bitflips
        assert not fault_plan.stale_sites

    def test_results_accessors(self, mini_study):
        vp = mini_study.vp_by_id(0)
        assert vp.vp_id == 0
        summary = mini_study.summary()
        assert summary["vps"] == len(mini_study.vps)
        assert summary["sites"] == len(mini_study.catalog)


class TestDeterminism:
    def test_identical_seeds_identical_campaigns(self):
        config = StudyConfig(
            seed=55,
            ring_scale=0.02,
            interval_scale=96.0,
            campaign_start=parse_ts("2023-11-25"),
            campaign_end=parse_ts("2023-11-29"),
        )
        a = StudyPipeline(config).run()
        b = StudyPipeline(config).run()
        assert a.collector.change_counts() == b.collector.change_counts()
        assert a.collector.summary() == b.collector.summary()

    def test_different_seeds_differ(self):
        base = dict(
            ring_scale=0.02,
            interval_scale=96.0,
            campaign_start=parse_ts("2023-11-25"),
            campaign_end=parse_ts("2023-11-29"),
        )
        a = StudyPipeline(StudyConfig(seed=1, **base)).run()
        b = StudyPipeline(StudyConfig(seed=2, **base)).run()
        assert a.collector.probe_columns()["rtt"].tolist() != (
            b.collector.probe_columns()["rtt"].tolist()
        )
