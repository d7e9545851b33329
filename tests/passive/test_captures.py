"""ISP and IXP capture pipelines and the traffic aggregates."""

import pytest

from repro.geo.continents import Continent
from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.isp import IspCapture
from repro.passive.ixp import build_ixp_captures, regional_aggregate
from repro.passive.traces import FlowAggregate, TrafficTimeSeries
from repro.rss.operators import all_service_addresses, root_server
from repro.util.timeutil import DAY, HOUR, parse_ts

from tests.passive.scalar_capture import ScalarAggregate, expand, to_columns

PRE_DAY = parse_ts("2023-10-08")
POST_START = parse_ts("2024-02-05")
POST_END = parse_ts("2024-02-19")  # two weeks are enough for tests


@pytest.fixture(scope="module")
def isp(rng_factory):
    clients = build_client_population(
        ISP_PROFILE, rng_factory.fork("capture-test")
    )
    return IspCapture(clients, seed=42)


@pytest.fixture(scope="module")
def pre_aggregate(isp):
    return isp.capture(PRE_DAY, PRE_DAY + DAY)


@pytest.fixture(scope="module")
def post_aggregate(isp):
    return isp.capture(POST_START, POST_END)


def b_subnets():
    b = root_server("b")
    return {"v4new": b.ipv4, "v4old": b.old_ipv4, "v6new": b.ipv6, "v6old": b.old_ipv6}


def columnar(scalar: ScalarAggregate, addresses) -> FlowAggregate:
    aggregate, _cells = to_columns(scalar, addresses)
    return aggregate


class TestFlowAggregate:
    def test_add_and_series(self):
        scalar = ScalarAggregate(bucket_seconds=DAY)
        scalar.add_flows(0, "1.2.3.4", 5.0, "203.0.0.0/24")
        scalar.add_flows(DAY, "1.2.3.4", 3.0, "203.0.0.0/24")
        agg = columnar(scalar, ["1.2.3.4", "5.6.7.8"])
        assert agg.series("1.2.3.4") == [(0, 5.0), (DAY, 3.0)]
        assert agg.series("5.6.7.8") == [(0, 0.0), (DAY, 0.0)]
        assert agg.series("9.9.9.9") == [(0, 0.0), (DAY, 0.0)]
        assert agg.mean_daily_flows_per_client("1.2.3.4") == [4.0]

    def test_zero_flows_ignored(self, isp):
        """Cells without a kept flow leave no row in either table."""
        agg = isp.capture(PRE_DAY, PRE_DAY + DAY)
        assert (agg.flow_table["flows"] >= 1.0).all()
        assert (agg.flow_table["clients"] >= 1).all()
        assert (agg.client_table["days"] >= 1).all()
        empty = FlowAggregate(DAY)
        assert empty.buckets() == [] and empty.series("1.2.3.4") == []

    def test_unique_clients(self):
        scalar = ScalarAggregate(bucket_seconds=DAY)
        scalar.add_flows(0, "a", 1.0, "p1")
        scalar.add_flows(DAY, "a", 1.0, "p2")
        scalar.add_flows(DAY, "a", 1.0, "p2")
        scalar.add_flows(DAY, "a", 1.0, "p3")
        agg = columnar(scalar, ["a"])
        assert agg.unique_clients("a") == [(0, 1), (DAY, 2)]
        assert agg.client_count(DAY, "a") == 2
        assert agg.client_count(2 * DAY, "a") == 0


class TestIspCapture:
    def test_pre_change_old_dominates(self, isp, pre_aggregate):
        ts = isp.time_series(pre_aggregate)
        b = b_subnets()
        subset = list(b.values())
        old_share = ts.window_share(b["v4old"], PRE_DAY, PRE_DAY + DAY, subset)
        new_share = ts.window_share(b["v4new"], PRE_DAY, PRE_DAY + DAY, subset)
        assert old_share > 0.7
        assert new_share < 0.05  # testing trickle only

    def test_post_change_new_dominates(self, isp, post_aggregate):
        ts = isp.time_series(post_aggregate)
        b = b_subnets()
        subset = list(b.values())
        assert ts.window_share(b["v4new"], POST_START, POST_END, subset) > 0.5

    def test_v6_shift_exceeds_v4_shift(self, isp, post_aggregate):
        ts = isp.time_series(post_aggregate)
        b = b_subnets()
        shift = {}
        for fam in (4, 6):
            new, old = b[f"v{fam}new"], b[f"v{fam}old"]
            shift[fam] = ts.window_share(new, POST_START, POST_END, [new, old])
        assert shift[6] > shift[4]
        assert shift[4] > 0.7

    def test_all_letters_receive_traffic(self, isp, pre_aggregate):
        for sa in all_service_addresses():
            if sa.generation == "new":
                continue
            total = sum(v for _ts, v in pre_aggregate.series(sa.address))
            assert total > 0, sa.address

    def test_hourly_resolution(self, isp):
        agg = isp.capture(PRE_DAY, PRE_DAY + 6 * HOUR, bucket_seconds=HOUR)
        assert len(agg.buckets()) == 6

    def test_sampling_rate_validated(self, isp):
        with pytest.raises(ValueError):
            IspCapture(isp.clients, seed=1, sampling_rate=0.0)

    def test_capture_window_validated(self, isp):
        with pytest.raises(ValueError):
            isp.capture(PRE_DAY, PRE_DAY)

    def test_deterministic(self, isp):
        a = isp.capture(PRE_DAY, PRE_DAY + DAY)
        b = isp.capture(PRE_DAY, PRE_DAY + DAY)
        assert expand(a) == expand(b)


class TestIxpCaptures:
    def test_fourteen_exchanges(self, rng_factory):
        captures = build_ixp_captures(
            rng_factory.fork("ixp-test"), seed=9, clients_per_ixp=50
        )
        assert len(captures) == 14
        regions = {c.region for c in captures}
        assert regions == {Continent.EUROPE, Continent.NORTH_AMERICA}

    def test_regional_v6_shift_asymmetry(self, rng_factory):
        captures = build_ixp_captures(
            rng_factory.fork("ixp-test-2"), seed=9, clients_per_ixp=100
        )
        b = b_subnets()
        window = (parse_ts("2023-12-10"), parse_ts("2023-12-28"))
        shares = {}
        for region in (Continent.EUROPE, Continent.NORTH_AMERICA):
            agg = regional_aggregate(captures, region, *window)
            ts = TrafficTimeSeries(agg, all_service_addresses())
            shares[region] = ts.window_share(
                b["v6new"], *window, [b["v6new"], b["v6old"]]
            )
        assert shares[Continent.EUROPE] > shares[Continent.NORTH_AMERICA] + 0.15

    def test_letter_skew_at_ixps(self, rng_factory):
        captures = build_ixp_captures(
            rng_factory.fork("ixp-test-3"), seed=9, clients_per_ixp=60
        )
        agg = captures[0].capture(parse_ts("2023-11-01"), parse_ts("2023-11-04"))
        totals = {}
        for sa in all_service_addresses():
            totals[sa.letter] = totals.get(sa.letter, 0.0) + sum(
                v for _t, v in agg.series(sa.address)
            )
        # k and d dominate (paper Fig. 13).
        ordered = sorted(totals, key=totals.get, reverse=True)
        assert set(ordered[:2]) == {"k", "d"}


class TestTimeSeries:
    def test_shares_sum_to_one(self, isp, pre_aggregate):
        ts = isp.time_series(pre_aggregate)
        shares = ts.normalized_shares()
        for bucket_idx in range(len(pre_aggregate.buckets())):
            total = sum(series[bucket_idx][1] for series in shares.values())
            assert total == pytest.approx(1.0)

    def test_subset_normalisation(self, isp, pre_aggregate):
        ts = isp.time_series(pre_aggregate)
        b = b_subnets()
        shares = ts.normalized_shares(list(b.values()))
        total = sum(series[0][1] for series in shares.values())
        assert total == pytest.approx(1.0)

    def test_empty_window_share_zero(self, isp, pre_aggregate):
        ts = isp.time_series(pre_aggregate)
        assert ts.window_share("198.41.0.4", 0, 1) == 0.0
