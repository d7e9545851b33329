"""The gated estimators and the spread the steadiness check reports."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402


def test_best_of_is_the_minimum_and_ignores_order():
    assert common.best_of([3.0, 1.5, 2.0]) == 1.5
    assert common.best_of(iter([2.0])) == 2.0


def test_best_of_rejects_no_samples():
    with pytest.raises(ValueError):
        common.best_of([])


def test_best_of_is_unmoved_by_a_slow_outlier():
    steady = [1.00, 1.02, 1.01]
    assert common.best_of(steady + [9.0]) == common.best_of(steady)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.4, 12.0, 10.1, 9.9, 10.7, 10.2, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert common.iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert common.iqr_share([1.0]) == 0.0


def test_distribution_reports_information_fields():
    dist = common.distribution([float(v) for v in range(1, 101)])
    assert dist["n"] == 100 and dist["min"] == 1.0 and dist["max"] == 100.0
    assert dist["median"] == 50.5 and dist["p99"] == 100.0
    assert common.distribution([]) == {"n": 0}


class _FakeServer:
    """Answers every GET with the expected body, and every conditional
    GET with a 304."""

    catalog = {"datasets": [{"id": "d"}]}

    def request(self, method, path, headers=None):
        if headers and "If-None-Match" in headers:
            return 304, b"", {}
        return 200, path.rsplit("/", 1)[1].encode(), {"etag": '"e"'}


def test_burst_gives_one_latency_per_request():
    import httpload

    order = ["rtt", "paths"]
    client = httpload.Client(_FakeServer(), {n: n.encode() for n in order}, common.Tracer(False))
    warm = client.burst(order, passes=3, conditional=False)
    reval = client.burst(order, passes=3, conditional=True)
    assert len(warm) == len(reval) == 6
    assert all(t >= 0.0 for t in warm + reval)
    assert client.attempted == 12 and client.failed == 0 and client.not_modified == 6
