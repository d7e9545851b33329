"""Utility layer: RNG streams, time, statistics, tables."""

import pytest

from repro.util.rng import RngFactory, derive_seed
from repro.util.stats import Ecdf, describe, histogram, median, percentile, shares
from repro.util.tables import Table, render_histogram, render_series
from repro.util.timeutil import (
    DAY,
    SimClock,
    day_of,
    format_day,
    format_ts,
    parse_ts,
)


class TestRng:
    def test_streams_independent_and_stable(self):
        factory = RngFactory(1)
        a1 = factory.stream("a").random()
        factory2 = RngFactory(1)
        b = factory2.stream("b").random()
        a2 = factory2.stream("a")
        # Re-seeded factory reproduces stream "a" regardless of "b" use.
        assert a2.random() == a1
        assert b != a1

    def test_stream_identity(self):
        factory = RngFactory(1)
        assert factory.stream("x") is factory.stream("x")

    def test_fork_independent(self):
        factory = RngFactory(1)
        forked = factory.fork("child")
        assert forked.stream("a").random() != factory.stream("a").random()

    def test_derive_seed_differs(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_reset(self):
        factory = RngFactory(1)
        first = factory.stream("a").random()
        factory.reset()
        assert factory.stream("a").random() == first

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("nope")


class TestTime:
    def test_parse_format_roundtrip(self):
        ts = parse_ts("2023-11-27T12:34:56")
        assert format_ts(ts) == "2023-11-27T12:34:56"

    def test_parse_day(self):
        assert parse_ts("2023-11-27") % DAY == 0

    def test_format_day(self):
        assert format_day(parse_ts("2023-11-27T23:59:59")) == "2023-11-27"

    def test_day_of(self):
        ts = parse_ts("2023-11-27T13:00:00")
        assert day_of(ts) == parse_ts("2023-11-27")

    def test_clock_advance(self):
        clock = SimClock(100)
        assert clock.advance(50) == 150
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_clock_no_backwards_set(self):
        clock = SimClock(100)
        clock.set(200)
        with pytest.raises(ValueError):
            clock.set(100)


class TestStats:
    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == 5.0
        assert percentile([1, 2, 3, 4], 100) == 4.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_median(self):
        assert median([3, 1, 2]) == 2

    def test_describe(self):
        summary = describe([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_ecdf_basic(self):
        ecdf = Ecdf([1, 2, 2, 4])
        assert ecdf.cdf(2) == 0.75
        assert ecdf.ccdf(2) == 0.25
        assert ecdf.cdf(0) == 0.0
        assert ecdf.cdf(5) == 1.0

    def test_ecdf_points_distinct_ascending(self):
        points = Ecdf([3, 1, 1, 2]).points()
        xs = [x for x, _ in points]
        assert xs == [1, 2, 3]

    @pytest.mark.parametrize(
        "values",
        [
            [3, 1, 1, 2],
            [5.0, 0.5, 2.5, 2.5, 2.5, 0.5, 9.0, 1.25],
            [7],
            [4.0, 4.0, 4.0],
            list(range(50)) + [10] * 7 + [0.5] * 3,
        ],
    )
    def test_ecdf_points_match_per_value_ccdf(self, values):
        """The one-pass points equal the definition: ccdf at every
        distinct value, ascending."""
        ecdf = Ecdf(values)
        expected = [(x, ecdf.ccdf(x)) for x in sorted(set(values))]
        assert ecdf.points() == expected

    def test_ecdf_quantile(self):
        assert Ecdf([0, 10]).quantile(0.5) == 5.0

    def test_histogram(self):
        counts = histogram([0.5, 1.5, 1.6, 3.0], bins=[0, 1, 2, 3])
        assert counts == [1, 2, 1]  # last bin closed

    def test_shares(self):
        assert shares({"a": 1, "b": 3}) == {"a": 0.25, "b": 0.75}
        assert shares({"a": 0}) == {"a": 0.0}


class TestTables:
    def test_render_alignment(self):
        table = Table(["name", "value"])
        table.add_row(["x", 1])
        table.add_row(["longer", 123.456])
        rendered = table.render("T")
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[1:]}) == 1  # aligned widths

    def test_row_length_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_none_renders_dash(self):
        table = Table(["a"])
        table.add_row([None])
        assert "-" in table.render().splitlines()[-1]

    def test_histogram_render(self):
        out = render_histogram(["x", "y"], [2, 4], width=8)
        assert "####" in out

    def test_histogram_length_mismatch(self):
        with pytest.raises(ValueError):
            render_histogram(["x"], [1, 2])

    def test_series_render(self):
        out = render_series([1, 2], [0.5, 0.25], "s")
        assert out.splitlines()[0] == "s"
        assert len(out.splitlines()) == 3
