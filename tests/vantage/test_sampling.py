"""Sampling policy behaviour in the prober."""

import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.util.timeutil import parse_ts

WINDOW = dict(
    campaign_start=parse_ts("2023-09-01"),
    campaign_end=parse_ts("2023-09-08"),
    include_faults=False,
)


def run(seed: int, **overrides):
    config = StudyConfig(
        seed=seed, ring_scale=0.02, ring_min_per_region=1,
        interval_scale=48.0, **WINDOW, **overrides,
    )
    return StudyPipeline(config).run()


class TestSamplingDensity:
    def test_rtt_sampling_scales_row_count(self):
        dense = run(5, rtt_sample_every=1)
        sparse = run(5, rtt_sample_every=4)
        dense_rows = len(dense.collector.probe_columns()["rtt"])
        sparse_rows = len(sparse.collector.probe_columns()["rtt"])
        assert dense_rows == pytest.approx(4 * sparse_rows, rel=0.3)

    def test_stability_counts_independent_of_sampling(self):
        dense = run(5, rtt_sample_every=1)
        sparse = run(5, rtt_sample_every=4)
        # Catchment selection happens every round regardless of sampling.
        assert dense.collector.change_counts() == sparse.collector.change_counts()

    def test_query_count_matches_suite_size(self):
        study = run(5)
        summary = study.collector.summary()
        rounds = study.schedule.round_count()
        # 47 queries per address per round (Appendix F), 28 addresses.
        expected = rounds * len(study.vps) * 28 * 47
        assert summary["queries"] == expected

    def test_traceroute_sampling_desynchronised_across_vps(self):
        study = run(5, traceroute_sample_every=4)
        cols = study.collector.traceroute_columns()
        # Multiple VPs contribute in every sampled window, i.e. sampling
        # phase varies by VP rather than firing all at once.
        ts_values = sorted(set(cols["ts"].tolist()))
        assert len(ts_values) >= study.schedule.round_count() // 2
