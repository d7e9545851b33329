"""Traffic anomalies and noise in passive captures."""

import pytest

from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.isp import DEFAULT_DIPS, IspCapture, TrafficDip
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, parse_ts

DIP_DAY = parse_ts("2024-02-26")


@pytest.fixture(scope="module")
def clients(rng_factory):
    return build_client_population(
        ISP_PROFILE, rng_factory.fork("anomaly-test")
    )[:500]


class TestTrafficDip:
    def test_default_calendar_has_a_root_dip(self):
        assert any(d.letter == "a" for d in DEFAULT_DIPS)
        dip = next(d for d in DEFAULT_DIPS if d.letter == "a")
        assert dip.start_ts == DIP_DAY

    def test_scale_semantics(self):
        dip = TrafficDip("a", 100, 200, 0.5)
        assert dip.scale("a", 150) == 0.5
        assert dip.scale("a", 250) == 1.0
        assert dip.scale("b", 150) == 1.0

    def test_dip_visible_in_capture(self, clients):
        capture = IspCapture(clients, seed=5)
        aggregate = capture.capture(DIP_DAY - DAY, DIP_DAY + 2 * DAY)
        a_series = dict(aggregate.series("198.41.0.4"))
        before = a_series[DIP_DAY - DAY]
        during = a_series[DIP_DAY]
        after = a_series[DIP_DAY + DAY]
        assert during < 0.7 * before
        assert during < 0.7 * after

    def test_other_letters_unaffected(self, clients):
        capture = IspCapture(clients, seed=5)
        aggregate = capture.capture(DIP_DAY - DAY, DIP_DAY + DAY)
        k_series = dict(aggregate.series("193.0.14.129"))
        assert k_series[DIP_DAY] > 0.6 * k_series[DIP_DAY - DAY]

    def test_dips_can_be_disabled(self, clients):
        capture = IspCapture(clients, seed=5, dips=())
        aggregate = capture.capture(DIP_DAY - DAY, DIP_DAY + DAY)
        a_series = dict(aggregate.series("198.41.0.4"))
        assert a_series[DIP_DAY] > 0.6 * a_series[DIP_DAY - DAY]


class TestNoise:
    def test_noise_increases_totals(self, clients):
        window = (parse_ts("2023-09-01"), parse_ts("2023-09-03"))
        clean = IspCapture(clients, seed=5, noise_fraction=0.0).capture(*window)
        noisy = IspCapture(clients, seed=5, noise_fraction=0.0175).capture(*window)
        clean_total = clean.flow_table["flows"].sum()
        noisy_total = noisy.flow_table["flows"].sum()
        assert noisy_total == pytest.approx(clean_total * 1.0175, rel=0.01)

    def test_noise_fraction_validated(self, clients):
        with pytest.raises(ValueError):
            IspCapture(clients, seed=5, noise_fraction=1.0)
