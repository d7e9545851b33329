"""The grouped probe-cell view the RTT family reads.

Every cell of :class:`ProbeCells` must hold exactly the rows, in exactly
the table order, that a boolean mask over the whole probe table selects
— float32 means and standard deviations depend on that order — and the
one-pass quantiles must equal ``np.percentile`` over that masked cell,
bit for bit.  The mask-based cell the analyses used to build lives on
here as the reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.probe_cells import (
    ProbeCells,
    grouped_quantiles,
    sorted_quantiles,
)
from repro.analysis.regionalrtt import RegionalRttAnalysis
from repro.analysis.rssac import RssacMetrics
from repro.analysis.summaries import render_json
from repro.analysis.variability import VariabilityAnalysis
from repro.data import load_dataset, save_dataset
from repro.geo.continents import Continent
from repro.rss.operators import root_server
from repro.util.stats import median, weighted_median

QS = (10, 50, 90, 95)


def reference_rows(
    dataset, vps, addr_indices: Sequence[int], continent: Optional[Continent]
) -> np.ndarray:
    """Table rows of a cell, by masking the whole probe table."""
    columns = dataset.probe_columns()
    mask = np.isin(columns["addr"], np.asarray(addr_indices))
    if continent is not None:
        continents = list(Continent)
        vp_cont = np.zeros(
            max((vp.vp_id for vp in vps), default=0) + 1, dtype=np.int8
        )
        for vp in vps:
            vp_cont[vp.vp_id] = continents.index(vp.continent)
        mask &= vp_cont[columns["vp"]] == continents.index(continent)
    return np.flatnonzero(mask)


def reference_cell(dataset, vps, address: str, continent: Continent) -> np.ndarray:
    """The old mask-based ``RttAnalysis._cell``."""
    rows = reference_rows(dataset, vps, [dataset.addr_index[address]], continent)
    return dataset.probe_columns()["rtt"][rows]


@pytest.fixture(scope="module")
def reloaded(full_window_pipeline, tmp_path_factory):
    directory = tmp_path_factory.mktemp("probe_cells")
    return load_dataset(save_dataset(full_window_pipeline.results().dataset, directory))


@pytest.fixture(scope="module", params=["collector", "reloaded"])
def dataset(request, full_window_study, reloaded):
    if request.param == "collector":
        return full_window_study.collector
    assert isinstance(reloaded.probe_columns()["rtt"], np.memmap)
    return reloaded


class TestCells:
    def test_every_cell_matches_the_mask(self, dataset, full_window_study):
        vps = full_window_study.vps
        cells = ProbeCells(dataset, vps)
        observed = 0
        for sa in dataset.addresses:
            for continent in Continent:
                expected = reference_cell(dataset, vps, sa.address, continent)
                got = cells.rtt([dataset.addr_index[sa.address]], continent)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (sa.label, continent)
                observed += len(got) > 0
        assert observed > len(dataset.addresses)

    def test_every_cell_covers_the_table(self, dataset, full_window_study):
        cells = ProbeCells(dataset, full_window_study.vps)
        rows = np.concatenate(
            [cells.rows([i], c) for i in range(len(dataset.addresses)) for c in Continent]
        )
        assert np.array_equal(np.sort(rows), np.arange(len(dataset.probe_columns()["rtt"])))

    def test_multi_segment_cells_keep_table_order(self, dataset, full_window_study):
        vps = full_window_study.vps
        cells = ProbeCells(dataset, vps)
        b = root_server("b")
        both_v4 = [dataset.addr_index[b.ipv4], dataset.addr_index[b.old_ipv4]]
        for continent in (None, Continent.EUROPE):
            expected = reference_rows(dataset, vps, both_v4, continent)
            assert np.array_equal(cells.rows(both_v4, continent), expected)
            assert np.array_equal(
                cells.rtt(both_v4, continent), dataset.probe_columns()["rtt"][expected]
            )

    def test_without_vps_cells_are_per_address(self, dataset):
        cells = ProbeCells(dataset)
        indices = [0, 3]
        expected = reference_rows(dataset, None, indices, None)
        assert np.array_equal(cells.rows(indices), expected)
        with pytest.raises(ValueError):
            cells.rtt(indices, Continent.EUROPE)

    def test_unobserved_cell_is_empty(self, dataset, full_window_study):
        cells = ProbeCells(dataset, full_window_study.vps)
        assert len(cells.rtt([])) == 0
        assert len(cells.rows([])) == 0


class TestQuantiles:
    def test_every_cell_matches_np_percentile(self, dataset, full_window_study):
        vps = full_window_study.vps
        cells = [
            ((i,), continent)
            for i in range(len(dataset.addresses))
            for continent in Continent
        ]
        counts, values = ProbeCells(dataset, vps).quantiles(cells, QS)
        for (indices, continent), count, row in zip(cells, counts, values):
            expected = reference_cell(
                dataset, vps, dataset.addresses[indices[0]].address, continent
            )
            assert count == len(expected)
            if count:
                assert row.tobytes() == np.array(
                    [np.percentile(expected, q) for q in QS], np.float32
                ).tobytes()
            else:
                assert np.isnan(row).all()

    def test_multi_segment_cells_match_np_percentile(
        self, dataset, full_window_study
    ):
        vps = full_window_study.vps
        b = root_server("b")
        both_v4 = [dataset.addr_index[b.ipv4], dataset.addr_index[b.old_ipv4]]
        cells = [(both_v4, None), (both_v4, Continent.EUROPE), ([0, 3, 5], None)]
        counts, values = ProbeCells(dataset, vps).quantiles(cells, QS)
        rtt = dataset.probe_columns()["rtt"]
        for (indices, continent), count, row in zip(cells, counts, values):
            expected = rtt[reference_rows(dataset, vps, indices, continent)]
            assert count == len(expected) > 0
            for q, got in zip(QS, row.tolist()):
                assert got == float(np.percentile(expected, q))


def percentile_row(cell: np.ndarray) -> bytes:
    return np.array([np.percentile(cell, q) for q in QS], np.float32).tobytes()


@st.composite
def cells(draw, max_size: int = 5000) -> np.ndarray:
    """A float32 cell of 1..*max_size* RTT-like samples: drawn from a
    handful of values (heavy ties, zero among them, where a rounding
    slip in the interpolation weight cannot hide) or from a long-tailed
    spread."""
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.append(rng.uniform(0.0, 500.0, draw(st.integers(1, 8))), 0.0)
        return rng.choice(pool.astype(np.float32), n)
    return rng.lognormal(3.0, 1.5, n).astype(np.float32)


class TestQuantileKernel:
    """The one-pass kernel against ``np.percentile`` itself."""

    @settings(max_examples=200, deadline=None)
    @given(cell=cells())
    def test_one_cell_is_bit_equal(self, cell):
        got = sorted_quantiles(np.sort(cell), np.array([0]), np.array([len(cell)]), QS)
        assert got.dtype == np.float32
        assert got[0].tobytes() == percentile_row(cell)

    def test_every_size_with_zero_at_the_virtual_index(self):
        """Cells of every size 1..2000 holding 0 where each percentile's
        virtual index lands, negatives below it: a virtual index off by
        one rounding (say ``n*q + (1 - q) - 1`` for numpy's
        ``(n - 1)*q``) moves the result off 0 by a sign-carrying hair."""
        sizes, parts = [], []
        for n in range(1, 2001):
            for q in QS:
                sizes.append(n)
                parts.append(
                    np.arange(n, dtype=np.float32) - np.float32(round((n - 1) * q / 100))
                )
        counts = np.array(sizes)
        starts = np.cumsum(counts) - counts
        got = sorted_quantiles(np.concatenate(parts), starts, counts, QS)
        for i, (part, q) in enumerate(zip(parts, QS * 2000)):
            assert got[i, QS.index(q)].tobytes() == np.float32(
                np.percentile(part, q)
            ).tobytes(), (len(part), q)

    @settings(max_examples=50, deadline=None)
    @given(
        parts=st.lists(cells(max_size=1500), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grouped_cells_are_bit_equal(self, parts, seed):
        """Groups interleaved in row order, as the cells of a table are."""
        values = np.concatenate(parts)
        groups = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        order = np.random.default_rng(seed).permutation(len(values))
        # One empty group in the middle must stay NaN.
        groups = np.where(groups >= 1, groups + 1, groups)
        counts, got = grouped_quantiles(
            values[order], groups[order], len(parts) + 1, QS
        )
        assert counts.tolist() == [len(parts[0]), 0] + [len(p) for p in parts[1:]]
        assert np.isnan(got[1]).all()
        for k, part in zip([0] + list(range(2, len(parts) + 1)), parts):
            assert got[k].tobytes() == percentile_row(part)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(0.0, 500.0), st.integers(1, 40)), min_size=1
        )
    )
    def test_weighted_median_is_the_expanded_median(self, pairs):
        values = [value for value, _ in pairs]
        weights = [weight for _, weight in pairs]
        expanded = [value for value, weight in pairs for _ in range(weight)]
        assert weighted_median(values, weights) == median(expanded)


class TestIndexLifetime:
    def test_one_index_per_dataset(self, reloaded, full_window_study):
        vps = full_window_study.vps
        first = ProbeCells(reloaded, vps)._index
        assert ProbeCells(reloaded, vps)._index is first
        # Address-only readers share whatever grouping is kept.
        assert ProbeCells(reloaded)._index is first
        assert reloaded.probe_cells() is first

    def test_index_holds_eight_bytes_per_row(self, reloaded, full_window_study):
        index = ProbeCells(reloaded, full_window_study.vps)._index
        rows = len(reloaded.probe_columns()["rtt"])
        assert index.order.dtype == np.int32
        assert index.sorted_rtt.dtype == np.float32
        assert index.order.nbytes + index.sorted_rtt.nbytes == 8 * rows
        assert len(index.offsets) == len(reloaded.addresses) * len(Continent) + 1


class TestReaders:
    def test_regional_multi_address_mean_is_bit_identical(
        self, dataset, full_window_study
    ):
        """b.root v4 spans the old and the new address: the merged cell
        must reduce in table order to give the mask's float32 mean."""
        vps = full_window_study.vps
        regional = RegionalRttAnalysis(dataset, vps)
        b = root_server("b")
        both_v4 = [dataset.addr_index[b.ipv4], dataset.addr_index[b.old_ipv4]]
        checked = 0
        for continent in Continent:
            rows = reference_rows(dataset, vps, both_v4, continent)
            if len(rows) == 0:
                continue
            expected = dataset.probe_columns()["rtt"][rows]
            cell = regional.cell(continent, 4, letter="b")
            assert cell.count == len(expected)
            assert cell.mean == float(np.mean(expected))
            addr = dataset.probe_columns()["addr"][rows]
            checked += len(np.unique(addr)) == 2
        assert checked, "no continent observed both b.root v4 addresses"

    def test_rssac_latency_matches_the_mask(self, dataset):
        metrics = RssacMetrics(dataset)
        for latency in metrics.all_response_latencies():
            indices = [
                i
                for i, sa in enumerate(dataset.addresses)
                if sa.letter == latency.letter and sa.generation != "old"
            ]
            rtts = dataset.probe_columns()["rtt"][
                reference_rows(dataset, None, indices, None)
            ]
            assert latency.samples == len(rtts)
            assert latency.p95_ms == float(np.percentile(rtts, 95))


class TestWorkCounts:
    def test_variability_percentiles_per_cell(self, full_window_study, monkeypatch):
        """One rendering summarises every (address, continent) cell in a
        single quantile pass, and never calls ``np.percentile`` per cell."""
        collector, vps = full_window_study.collector, full_window_study.vps
        analysis = VariabilityAnalysis(collector, vps)
        calls = {"percentile": 0, "passes": 0}
        percentile = np.percentile
        quantiles = ProbeCells.quantiles

        def counting_percentile(*args, **kwargs):
            calls["percentile"] += 1
            return percentile(*args, **kwargs)

        def counting_quantiles(self, *args, **kwargs):
            calls["passes"] += 1
            return quantiles(self, *args, **kwargs)

        monkeypatch.setattr(np, "percentile", counting_percentile)
        monkeypatch.setattr(ProbeCells, "quantiles", counting_quantiles)
        render_json("variability", analysis)
        monkeypatch.undo()
        assert calls == {"percentile": 0, "passes": 1}

    def test_rendering_computes_each_result_once(self, full_window_study, monkeypatch):
        collector = full_window_study.collector
        cases = [
            (RssacMetrics(collector), "rssac", "response_latency"),
            (
                RegionalRttAnalysis(collector, full_window_study.vps),
                "regional_rtt",
                "cell",
            ),
        ]
        for analysis, name, method in cases:
            single = getattr(type(analysis), method)
            counts = {}

            def counting(self, *args, single=single, **kwargs):
                counts[args] = counts.get(args, 0) + 1
                return single(self, *args, **kwargs)

            monkeypatch.setattr(type(analysis), method, counting)
            render_json(name, analysis)
            monkeypatch.undo()
            assert counts and set(counts.values()) == {1}, name
