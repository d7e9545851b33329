"""Property-based tests on system invariants: serial arithmetic, ZONEMD
permutation-invariance, statistics helpers, churn bounds, geo metrics."""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.dns.constants import RRClass, RRType
from repro.dns.name import Name, ROOT_NAME
from repro.dns.rdata import NS, SOA
from repro.dns.records import ResourceRecord
from repro.dnssec.zonemd import compute_zone_digest
from repro.geo.coords import GeoPoint, haversine_km
from repro.netsim.churn import ChurnModel
from repro.netsim.epochs import PairEpochs
from repro.netsim.mix import mix_float
from repro.util.stats import Ecdf, percentile
from repro.zone.serial import SERIAL_MODULO, serial_add, serial_compare

from tests.netsim.epoch_oracle import ChurnOracle

serial_st = st.integers(0, SERIAL_MODULO - 1)
small_inc = st.integers(0, (1 << 31) - 1)


class TestSerialProperties:
    @given(serial_st, small_inc)
    def test_addition_stays_in_range(self, serial, inc):
        assert 0 <= serial_add(serial, inc) < SERIAL_MODULO

    @given(serial_st, st.integers(1, (1 << 31) - 1))
    def test_added_serial_is_greater(self, serial, inc):
        assert serial_compare(serial, serial_add(serial, inc)) == -1

    @given(serial_st, serial_st)
    def test_comparison_antisymmetric(self, a, b):
        try:
            forward = serial_compare(a, b)
        except ValueError:
            return  # undefined distance
        assert serial_compare(b, a) == -forward


class TestZonemdProperties:
    @st.composite
    def zone_records(draw):
        tlds = draw(
            st.lists(
                st.text(alphabet="abcdefghij", min_size=2, max_size=6),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        records = [
            ResourceRecord(
                ROOT_NAME, RRType.SOA, RRClass.IN, 86400,
                SOA(Name.from_text("m."), Name.from_text("r."), 1, 2, 3, 4, 5),
            )
        ]
        for tld in tlds:
            records.append(
                ResourceRecord(
                    Name.from_text(f"{tld}."), RRType.NS, RRClass.IN, 172800,
                    NS(Name.from_text(f"ns.{tld}.")),
                )
            )
        return records

    @given(zone_records(), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_digest_permutation_invariant(self, records, rng):
        digest_a = compute_zone_digest(records, ROOT_NAME)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert compute_zone_digest(shuffled, ROOT_NAME) == digest_a

    @given(zone_records())
    @settings(max_examples=50)
    def test_digest_duplicate_invariant(self, records):
        assert compute_zone_digest(records + records[1:], ROOT_NAME) == (
            compute_zone_digest(records, ROOT_NAME)
        )


class TestStatsProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_percentile_bounds(self, values):
        p0 = percentile(values, 0)
        p100 = percentile(values, 100)
        p50 = percentile(values, 50)
        assert p0 == min(values)
        assert p100 == max(values)
        assert p0 <= p50 <= p100

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_ecdf_monotone(self, values):
        ecdf = Ecdf(values)
        points = ecdf.points()
        ys = [y for _x, y in points]
        assert all(0.0 <= y <= 1.0 for y in ys)
        # ccdf is non-increasing in x
        assert all(a >= b for a, b in zip(ys, ys[1:]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(-1e6, 1e6))
    def test_ecdf_cdf_ccdf_complementary(self, values, x):
        ecdf = Ecdf(values)
        assert ecdf.cdf(x) + ecdf.ccdf(x) == 1.0


def churn_indices(model, pair, n_rounds, n_candidates):
    """The pair's candidate index per round from the runtime epoch walk,
    checked against the stepped state machine oracle."""
    view = PairEpochs(model, [pair], n_rounds, [n_candidates]).take(0, n_rounds)
    indices = []
    for start, end, index in zip(
        view.start.tolist(), view.end.tolist(), view.index.tolist()
    ):
        indices += [index] * (end - start)
    oracle = ChurnOracle(model)
    assert indices == [
        oracle.select_index(*pair, rnd, n_candidates) for rnd in range(n_rounds)
    ]
    return indices


class TestChurnProperties:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 10),
        st.integers(100, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_index_always_in_range(self, client_id, n_candidates, rounds):
        model = ChurnModel(seed=1, expected_rounds=rounds)
        pair = (client_id, "1.2.3.4", "g", 6)
        for index in churn_indices(model, pair, min(rounds, 200), n_candidates):
            assert 0 <= index < n_candidates

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_starts_on_preferred_route(self, client_id):
        model = ChurnModel(seed=9, expected_rounds=8352)
        # The flap probability is capped; round 0 overwhelmingly starts
        # at index 0, and after enough rounds the index returns there.
        indices = churn_indices(model, (client_id, "x", "b", 4), 100, 5)
        assert indices.count(0) >= 50


class TestGeoProperties:
    coord_st = st.tuples(
        st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)
    ).map(lambda t: GeoPoint(*t))

    @given(coord_st, coord_st)
    def test_symmetry(self, a, b):
        assert math.isclose(
            haversine_km(a, b), haversine_km(b, a), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(coord_st, coord_st)
    def test_bounds(self, a, b):
        d = haversine_km(a, b)
        assert 0.0 <= d <= 20_038.0  # half circumference

    @given(coord_st, coord_st, coord_st)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


class TestMixProperties:
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5))
    def test_mix_float_in_unit_interval(self, values):
        f = mix_float(*values)
        assert 0.0 <= f < 1.0

    @given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
    def test_mix_deterministic(self, a, b):
        assert mix_float(a, b) == mix_float(a, b)
