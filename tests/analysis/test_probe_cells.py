"""The grouped probe-cell view the RTT family reads.

Every cell of :class:`ProbeCells` must hold exactly the rows, in exactly
the table order, that a boolean mask over the whole probe table selects
— float32 means and standard deviations depend on that order.  The
mask-based cell the analyses used to build lives on here as the
reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from repro.analysis.probe_cells import ProbeCells
from repro.analysis.regionalrtt import RegionalRttAnalysis
from repro.analysis.rssac import RssacMetrics
from repro.analysis.summaries import render_json
from repro.analysis.variability import VariabilityAnalysis
from repro.data import load_dataset, save_dataset
from repro.geo.continents import Continent
from repro.rss.operators import root_server


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
        """One rendering summarises each (address, continent) cell once:
        three percentiles per observed cell at most."""
        collector, vps = full_window_study.collector, full_window_study.vps
        analysis = VariabilityAnalysis(collector, vps)
        calls = 0
        percentile = np.percentile

        def counting_percentile(*args, **kwargs):
            nonlocal calls
            calls += 1
            return percentile(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", counting_percentile)
        render_json("variability", analysis)
        monkeypatch.undo()
        observed = sum(
            len(reference_rows(collector, vps, [i], continent)) > 0
            for i in range(len(collector.addresses))
            for continent in Continent
        )
        assert 0 < calls <= 3 * observed, f"{calls} calls for {observed} cells"

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
