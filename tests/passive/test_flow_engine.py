"""Golden equivalence: the vectorized capture vs the scalar oracle.

The scalar triple loop in :mod:`tests.passive.scalar_capture` is the
reference semantics; :meth:`IspCapture.capture`
(:mod:`repro.passive.flow_engine`) must reproduce it **byte-identically**
— same rows, same float bit patterns, same distinct-client counts and
sets — for the ISP capture and all 14 IXP captures, with and without
traffic dips, and across the b.root renumbering boundary; the columnar
regional merge must reproduce the oracle's dict fold.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.geo.continents import Continent
from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.flow_engine import capture_vectorized
from repro.passive.isp import IspCapture
from repro.passive.ixp import build_ixp_captures, regional_aggregate
from repro.passive.traces import FlowAggregate
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, HOUR, parse_ts

from tests.passive.regional_merge import merge_captures, oracle_part
from tests.passive.scalar_capture import (
    ScalarAggregate,
    expand,
    membership_sets,
    scalar_capture,
    to_columns,
)

SEED = 42

#: Spans the 2023-11-27 b.root renumbering: adoption flips mid-window.
BOUNDARY_START = parse_ts("2023-11-24")
BOUNDARY_END = parse_ts("2023-12-02")

POST_START = parse_ts("2024-02-05")
POST_END = parse_ts("2024-02-19")

#: A reduced ISP population for the sub-daily variants (the scalar
#: reference is slow at full scale on hourly buckets).
SMALL_PROFILE = replace(ISP_PROFILE, name="isp-small", n_clients=250)


def assert_identical(scalar: ScalarAggregate, vectorized: FlowAggregate) -> None:
    """Byte-identity: keys, float bit patterns, counts, row order."""
    assert scalar.bucket_seconds == vectorized.bucket_seconds
    tables = expand(vectorized)
    assert set(scalar.flows) == set(tables["flows"])
    for key, value in scalar.flows.items():
        assert value.hex() == tables["flows"][key].hex(), key
        assert len(scalar.clients[key]) == tables["counts"][key], key
    assert set(scalar.per_client_flows) == set(tables["per_client_flows"])
    for key, value in scalar.per_client_flows.items():
        assert value.hex() == tables["per_client_flows"][key].hex(), key
    assert scalar.per_client_days == tables["per_client_days"]
    # Rows sorted by (bucket, address index) and (address index, prefix).
    index = {address: i for i, address in enumerate(vectorized.addresses)}
    flow_keys = list(tables["flows"])
    assert flow_keys == sorted(flow_keys, key=lambda k: (k[0], index[k[1]]))
    client_keys = list(tables["per_client_flows"])
    assert client_keys == sorted(client_keys, key=lambda k: (index[k[0]], k[1]))


@pytest.fixture(scope="module")
def clients():
    return build_client_population(
        ISP_PROFILE, RngFactory(SEED).fork("flow-engine-test")
    )


@pytest.fixture(scope="module")
def small_clients():
    return build_client_population(
        SMALL_PROFILE, RngFactory(SEED).fork("flow-engine-test")
    )


class ScalarOracle:
    """The scalar oracle bound to one capture point's parameters."""

    def __init__(self, capture: IspCapture) -> None:
        self.point = capture

    def capture(self, start, end, bucket_seconds=DAY) -> FlowAggregate:
        return scalar_capture(self.point, start, end, bucket_seconds)


def engine_pair(clients, **kwargs):
    """(oracle, runtime) over one capture point: the scalar oracle and
    :meth:`IspCapture.capture` read the same parameters."""
    capture = IspCapture(clients, seed=SEED, **kwargs)
    return ScalarOracle(capture), capture


class TestIspEquivalence:
    def test_daily_post_change_window(self, clients):
        """Full ISP population, daily buckets, the Fig. 7/8/12 window
        (includes the default a.root TrafficDip)."""
        scalar, vectorized = engine_pair(clients)
        assert_identical(
            scalar.capture(POST_START, POST_END),
            vectorized.capture(POST_START, POST_END),
        )

    def test_daily_across_renumbering_boundary(self, clients):
        scalar, vectorized = engine_pair(clients)
        assert_identical(
            scalar.capture(BOUNDARY_START, BOUNDARY_END),
            vectorized.capture(BOUNDARY_START, BOUNDARY_END),
        )

    def test_hourly_buckets(self, small_clients):
        """Sub-daily buckets exercise the diurnal factor."""
        scalar, vectorized = engine_pair(small_clients)
        start = parse_ts("2023-11-26")
        assert_identical(
            scalar.capture(start, start + 2 * DAY, bucket_seconds=HOUR),
            vectorized.capture(start, start + 2 * DAY, bucket_seconds=HOUR),
        )

    def test_without_dips(self, small_clients):
        scalar, vectorized = engine_pair(small_clients, dips=())
        assert_identical(
            scalar.capture(POST_START, POST_END),
            vectorized.capture(POST_START, POST_END),
        )

    def test_sampled_capture(self, small_clients):
        """sampling_rate < 1 exercises the drop draw on every cell."""
        scalar, vectorized = engine_pair(small_clients, sampling_rate=0.1)
        assert_identical(
            scalar.capture(POST_START, POST_END),
            vectorized.capture(POST_START, POST_END),
        )

    def test_client_sets_materialize_identically(self, small_clients):
        """The oracle's kept cells, in the columnar form the merge
        reference reads, expand to its exact prefix sets; the kernel's
        aggregate equals the oracle's."""
        scalar, vectorized = engine_pair(small_clients)
        scalar_agg = scalar.capture(BOUNDARY_START, BOUNDARY_END)
        addresses = [sa.address for sa in vectorized.addresses]
        cells = to_columns(scalar_agg, addresses)
        assert membership_sets(*cells) == scalar_agg.clients
        assert_identical(
            scalar_agg, vectorized.capture(BOUNDARY_START, BOUNDARY_END)
        )

    def test_counts_match_set_sizes(self, small_clients):
        """The kernel's distinct-client counts are the sizes of the
        oracle's prefix sets."""
        _scalar, vectorized = engine_pair(small_clients)
        aggregate = vectorized.capture(POST_START, POST_END)
        sets = membership_sets(*oracle_part(vectorized, POST_START, POST_END))
        assert len(sets) == len(aggregate.flow_table["bucket"])
        for key, prefixes in sets.items():
            assert aggregate.client_count(*key) == len(prefixes)


class TestClientBlocking:
    """The client-axis blocked grid is byte-identical at any width."""

    @pytest.mark.parametrize("block", [1, 37, 100_000])
    def test_blocked_matches_scalar_and_default(self, small_clients, block):
        scalar, vectorized = engine_pair(small_clients, sampling_rate=0.1)
        blocked = capture_vectorized(
            vectorized, POST_START, POST_END, DAY, client_block=block
        )
        assert_identical(scalar.capture(POST_START, POST_END), blocked)
        default = vectorized.capture(POST_START, POST_END)
        assert expand(blocked) == expand(default)

    def test_blocked_membership_matches(self, small_clients):
        """A block width that splits the population still counts each
        row's distinct clients as the oracle's prefix sets."""
        scalar, vectorized = engine_pair(small_clients)
        blocked = capture_vectorized(
            vectorized, BOUNDARY_START, BOUNDARY_END, DAY, client_block=41
        )
        sets = scalar.capture(BOUNDARY_START, BOUNDARY_END).clients
        assert {key: blocked.client_count(*key) for key in sets} == {
            key: len(prefixes) for key, prefixes in sets.items()
        }

    def test_rejects_bad_block(self, small_clients):
        _scalar, vectorized = engine_pair(small_clients)
        with pytest.raises(ValueError, match="client_block"):
            capture_vectorized(
                vectorized, POST_START, POST_END, DAY, client_block=0
            )


class TestIxpEquivalence:
    WINDOW = (parse_ts("2023-12-08"), parse_ts("2023-12-15"))

    @pytest.fixture(scope="class")
    def capture_lists(self):
        """(oracle, runtime) per exchange: the oracle runs on each
        exchange's own capture point, ``IxpCapture.engine``."""
        captures = build_ixp_captures(
            RngFactory(SEED).fork("ixp"), seed=SEED, clients_per_ixp=60
        )
        oracles = [replace(cap, engine=ScalarOracle(cap.engine)) for cap in captures]
        return oracles, captures

    def test_all_14_exchanges_equivalent(self, capture_lists):
        scalar_caps, vector_caps = capture_lists
        assert len(scalar_caps) == len(vector_caps) == 14
        for scalar_cap, vector_cap in zip(scalar_caps, vector_caps):
            assert scalar_cap.ixp.ixp_id == vector_cap.ixp.ixp_id
            assert_identical(
                scalar_cap.capture(*self.WINDOW),
                vector_cap.capture(*self.WINDOW),
            )

    def test_regional_merges_equivalent(self, capture_lists):
        """The columnar merge equals the oracle's dict fold byte for
        byte: flows add in exchange order, prefix sets union, active
        days take the maximum."""
        scalar_caps, vector_caps = capture_lists
        for region in (Continent.EUROPE, Continent.NORTH_AMERICA):
            fold = ScalarAggregate(DAY)
            for scalar_cap in scalar_caps:
                if scalar_cap.region is region:
                    fold.merge_from(scalar_cap.capture(*self.WINDOW))
            assert_identical(
                fold, regional_aggregate(vector_caps, region, *self.WINDOW)
            )


class TestMergeCaptures:
    """The regional merge reference (``regional_merge.py``) on
    hand-built exchanges and on the oracle's exchange captures."""

    ADDRESSES = ["a", "b"]

    def test_merge_unions_client_sets(self):
        left = ScalarAggregate(DAY)
        left.add_flows(0, "a", 1.0, "p1")
        left.add_flows(DAY, "b", 1.0, "p1")
        right = ScalarAggregate(DAY)
        right.add_flows(0, "a", 2.0, "p1")
        right.add_flows(0, "a", 2.0, "p2")
        right.add_flows(DAY, "a", 1.0, "p1")
        merged = merge_captures(
            DAY, [to_columns(left, self.ADDRESSES), to_columns(right, self.ADDRESSES)]
        )
        tables = expand(merged)
        assert tables["flows"][(0, "a")] == 5.0
        # p1 seen at both exchanges is one client, not two.
        assert merged.client_count(0, "a") == 2
        assert tables["per_client_days"][("a", "p1")] == 2
        fold = ScalarAggregate(DAY)
        fold.merge_from(left)
        fold.merge_from(right)
        assert_identical(fold, merged)

    def test_merged_clients_match_reference_dedupe(self):
        """The merged ``clients`` column counts each distinct (bucket,
        address, prefix string) once, whatever the exchange mix — pinned
        against a set-based dedupe over every exchange of a region."""
        window = (parse_ts("2023-12-08"), parse_ts("2023-12-15"))
        captures = build_ixp_captures(
            RngFactory(SEED).fork("ixp"), seed=SEED, clients_per_ixp=60
        )
        parts = [
            oracle_part(capture.engine, *window)
            for capture in captures
            if capture.region is Continent.EUROPE
        ]
        assert len(parts) > 1
        reference = {}
        for aggregate, membership in parts:
            for bucket, addr, prefix in zip(
                membership.bucket.tolist(),
                membership.addr.tolist(),
                membership.prefix.tolist(),
            ):
                key = (bucket, aggregate.addresses[addr])
                reference.setdefault(key, set()).add(aggregate.prefixes[prefix])
        merged = merge_captures(DAY, parts)
        table = merged.flow_table
        got = {
            (bucket, merged.addresses[addr]): clients
            for bucket, addr, clients in zip(
                table["bucket"].tolist(),
                table["addr"].tolist(),
                table["clients"].tolist(),
            )
        }
        assert sum(got.values()) > len(got)  # rows with several clients
        assert got == {
            key: len(reference.get(key, ())) for key in got
        }
        assert set(reference) <= set(got)

    def test_merge_rejects_mismatched_buckets(self):
        hourly = to_columns(ScalarAggregate(HOUR), self.ADDRESSES)
        with pytest.raises(ValueError, match="bucket_seconds"):
            merge_captures(DAY, [hourly])

    def test_merge_of_nothing_is_empty(self):
        merged = merge_captures(DAY, [])
        assert merged.buckets() == []
        assert merged.series("a") == []
