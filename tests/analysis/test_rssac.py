"""RSSAC047-style service metrics."""

import pytest

from repro.analysis.rssac import RESPONSE_LATENCY_THRESHOLD_MS, RssacMetrics
from repro.util.timeutil import DAY, parse_ts


@pytest.fixture(scope="module")
def metrics(full_window_study):
    return RssacMetrics(
        full_window_study.collector, full_window_study.distributor
    )


class TestResponseLatency:
    def test_all_letters_measured(self, metrics):
        latencies = metrics.all_response_latencies()
        assert len(latencies) == 13

    def test_threshold_mostly_met(self, metrics):
        # The RSS overwhelmingly answers within 250 ms.
        for latency in metrics.all_response_latencies():
            assert latency.within_threshold > 0.7, latency.letter

    def test_percentiles_ordered(self, metrics):
        for latency in metrics.all_response_latencies():
            assert latency.p50_ms <= latency.p95_ms

    def test_large_deployment_lower_median(self, metrics):
        # f.root (345 sites) should beat b.root (6 sites) on median RTT.
        f = metrics.response_latency("f")
        b = metrics.response_latency("b")
        assert f is not None and b is not None
        assert f.p50_ms < b.p50_ms

    def test_unknown_letter_none(self, metrics):
        assert metrics.response_latency("z") is None


class TestPublicationLatency:
    def test_healthy_sites_within_lag(self, metrics, full_window_study):
        sites = [s.key for s in full_window_study.catalog.of_letter("k")[:5]]
        at_ts = parse_ts("2023-09-01T12:00:00")
        lags = metrics.publication_latency(sites, at_ts)
        for site_key, lag in lags.items():
            assert lag is not None
            assert 0 <= lag <= DAY

    def test_frozen_site_reported_none(self, metrics, full_window_study):
        distributor = full_window_study.distributor
        site_key = "test-frozen-site"
        distributor.freeze_site(site_key, parse_ts("2023-09-01"))
        try:
            lags = metrics.publication_latency([site_key], parse_ts("2023-09-10"))
            assert lags[site_key] is None
        finally:
            distributor.unfreeze_site(site_key)

    def test_requires_distributor(self, full_window_study):
        bare = RssacMetrics(full_window_study.collector, distributor=None)
        with pytest.raises(RuntimeError):
            bare.publication_latency([], 0)


class TestSerialCurrency:
    def test_mostly_current(self, metrics, full_window_study):
        fraction, stale = metrics.serial_currency(
            full_window_study.collector.transfers
        )
        assert fraction > 0.9
        # The stale d.root site windows produce the stale observations.
        assert all(obs.fault == "stale" for obs in stale if obs.fault)

    def test_stale_site_transfers_flagged(self, metrics, full_window_study):
        stale_transfers = [
            t for t in full_window_study.collector.transfers if t.fault == "stale"
        ]
        if not stale_transfers:
            pytest.skip("no stale transfers in this run")
        fraction, stale = metrics.serial_currency(stale_transfers, allowed_lag=2)
        assert fraction < 1.0
        assert stale

    def test_empty_transfers_rejected(self, metrics):
        with pytest.raises(ValueError):
            metrics.serial_currency([])


class TestFaultPlanStaleness:
    """Publication latency reads staleness from the fault plan's
    stale-site windows — the ones the campaign observes as ``stale``
    transfers — not from distributor freeze state, which no campaign
    sets."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.core import StudyPipeline
        from tests.vantage.test_epoch_engine import fault_window_config

        return StudyPipeline(fault_window_config()).run()

    def test_stale_site_is_none_inside_its_window_only(self, study):
        event = next(e for e in study.fault_plan.stale_sites if e.site_key == "d-045")
        metrics = RssacMetrics.run(study)
        assert not study.distributor.is_frozen("d-045")
        middle = (event.freeze_from + event.detected_until) // 2
        assert metrics.publication_latency(["d-045"], middle) == {"d-045": None}
        for outside in (event.freeze_from - DAY, event.detected_until):
            lag = metrics.publication_latency(["d-045"], outside)["d-045"]
            assert isinstance(lag, int) and 0 <= lag <= DAY

    def test_every_stale_transfer_reads_stale(self, study):
        metrics = RssacMetrics.run(study)
        stale = [t for t in study.collector.transfers if t.fault == "stale"]
        assert stale
        for obs in stale:
            site_key = obs.fault_detail.split()[1]  # "site <key> frozen"
            assert metrics.publication_latency([site_key], obs.true_ts) == {
                site_key: None
            }
