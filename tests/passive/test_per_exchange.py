"""Per-exchange capture behaviour (IXP-DNS-1 details)."""

import pytest

from repro.geo.continents import Continent
from repro.netsim.facilities import PASSIVE_IXP_IDS
from repro.passive.ixp import build_ixp_captures
from repro.util.rng import RngFactory
from repro.util.timeutil import parse_ts

from tests.passive.scalar_capture import expand

WINDOW = (parse_ts("2023-11-01"), parse_ts("2023-11-04"))


@pytest.fixture(scope="module")
def captures():
    return build_ixp_captures(
        RngFactory(55).fork("per-exchange"), seed=55, clients_per_ixp=60
    )


class TestPerExchange:
    def test_every_passive_exchange_present(self, captures):
        assert {c.ixp.ixp_id for c in captures} == set(PASSIVE_IXP_IDS)

    def test_independent_client_populations(self, captures):
        a, b = captures[0], captures[1]
        assert a.engine.clients is not b.engine.clients
        vols_a = [c.daily_flows for c in a.engine.clients]
        vols_b = [c.daily_flows for c in b.engine.clients]
        assert vols_a != vols_b

    def test_sampling_rate_applied(self, captures):
        # IXP captures are heavily sampled compared to the ISP default.
        assert all(c.engine.sampling_rate < 1.0 for c in captures)

    def test_capture_deterministic_per_exchange(self, captures):
        first = captures[0].capture(*WINDOW)
        second = captures[0].capture(*WINDOW)
        assert expand(first) == expand(second)

    def test_eu_exchange_profile(self, captures):
        eu = [c for c in captures if c.region is Continent.EUROPE]
        na = [c for c in captures if c.region is Continent.NORTH_AMERICA]
        assert len(eu) == 8
        assert len(na) == 6

    def test_exchange_traffic_nonzero(self, captures):
        aggregate = captures[0].capture(*WINDOW)
        assert aggregate.flow_table["flows"].sum() > 0
