"""Probe rows grouped by (address, VP continent), and every cell's
quantiles in one pass.

The RTT family — Figures 6/14/15 (:mod:`rtt`), the §8 variability result
(:mod:`variability`), the per-region view (:mod:`regionalrtt`), the
RSSAC latency metrics (:mod:`rssac`) and the per-AS path drill-down
(:mod:`paths`) — reads the probe table one (address, continent) cell at
a time.  The grouping is a :class:`~repro.data.cells.ProbeCellIndex`:
one stable sort of the rows by (address index, VP continent), the
segment offsets, and the RTT column sorted by value inside each cell.
A :class:`~repro.data.Dataset` builds it on first use and keeps it
(:meth:`~repro.data.Dataset.probe_cells`), so every analysis instance
over that dataset object — and every request after a serving-cache
clear — shares it; a reload at a new watermark is a new dataset with a
new index.  Bare collectors, which still grow, get a fresh index per
:class:`ProbeCells`.

Quantiles come from :meth:`ProbeCells.quantiles`: for every cell asked
for at once, the two order statistics each percentile interpolates
between are gathered from the cell-sorted column and combined with
numpy's ``linear`` arithmetic (:func:`sorted_quantiles`), so the result
is bit-equal to ``np.percentile`` on the cell without one numpy call per
cell.  A cell spanning several segments (several addresses, or every
continent of an address) has its segments concatenated and sorted by
value first.

Row order still matters for means: ``np.mean`` and ``np.std`` on float32
sum pairwise, so their result depends on the order of the rows they
reduce.  :meth:`ProbeCells.rtt` returns a cell in table order — the
stable sort keeps table order inside each segment, and a multi-segment
cell is merged back into table order — so every reader reduces exactly
the rows, in exactly the order, that a mask over the table would select.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.cells import ProbeCellIndex, sort_runs
from repro.data.dataset import Dataset
from repro.geo.continents import Continent
from repro.vantage.node import VantagePoint

_CONTINENTS: List[Continent] = list(Continent)

#: One cell: address indices, and a continent (None: every continent).
Cell = Tuple[Iterable[int], Optional[Continent]]


def sorted_quantiles(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """Percentiles *qs* of each group ``values[start:start + count]``.

    Every group must be non-empty and sorted ascending.  Returns a
    ``(groups, len(qs))`` array equal, bit for bit, to
    ``np.percentile(group, q)`` for finite float32 groups and a Python
    number *q*: numpy's ``linear`` method takes the float64 virtual index
    ``(n - 1) * q / 100``, and, with *q* a Python number, interpolates in
    the array's float32 — ``a + (b - a) * gamma``, or
    ``b - (b - a) * (1 - gamma)`` when ``gamma >= 0.5`` — with each weight
    rounded to float32.  Past the last index both neighbours are the
    last value and gamma is measured from index -1, as numpy does.
    """
    n = np.asarray(counts, dtype=np.int64)[:, None]
    virtual = (n - 1) * (np.asarray(qs, dtype=np.float64) / 100)
    previous = np.floor(virtual)
    above = virtual >= n - 1
    gamma = virtual - np.where(above, -1.0, previous)
    lo = np.where(above, n - 1, previous.astype(np.int64))
    hi = np.where(above, n - 1, lo + 1)
    base = np.asarray(starts, dtype=np.int64)[:, None]
    a = values[base + lo]
    b = values[base + hi]
    diff = b - a
    result = a + diff * gamma.astype(np.float32)
    upper = gamma >= 0.5
    result[upper] = (b - diff * (1 - gamma).astype(np.float32))[upper]
    return result


def run_quantiles(
    values: np.ndarray, counts: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """Percentiles *qs* of each run of *counts* consecutive float32
    *values*, sorting each run in place; an empty run's are NaN."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    sort_runs(values, offsets)
    out = np.full((len(counts), len(qs)), np.nan, dtype=np.float32)
    seen = counts > 0
    if seen.any():
        out[seen] = sorted_quantiles(values, offsets[:-1][seen], counts[seen], qs)
    return out


def grouped_quantiles(
    values: np.ndarray, groups: np.ndarray, n_groups: int, qs: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """(row count, percentiles *qs*) of each group ``0 .. n_groups - 1``
    of float32 *values*; an empty group's percentiles are NaN."""
    counts = np.bincount(groups, minlength=n_groups)
    by_group = values[np.argsort(groups, kind="stable")]
    return counts, run_quantiles(by_group, counts, qs)


class ProbeCells:
    """The probe table's rows grouped by (address index, VP continent).

    *dataset* is anything with ``addresses`` and ``probe_columns()`` (a
    :class:`~repro.data.Dataset` or a bare collector).  Without *vps*
    cells must be asked for without a continent.  VPs missing from *vps*
    count as the first continent, as the mask-based readers always
    counted them.
    """

    def __init__(
        self, dataset, vps: Optional[Sequence[VantagePoint]] = None
    ) -> None:
        self._columns = dataset.probe_columns()
        self._by_continent = vps is not None
        vp_slot = None
        if vps is not None:
            vp_slot = np.zeros(
                max((vp.vp_id for vp in vps), default=0) + 1, dtype=np.uint8
            )
            for vp in vps:
                vp_slot[vp.vp_id] = _CONTINENTS.index(vp.continent)
        n_slots = len(_CONTINENTS)
        if isinstance(dataset, Dataset):
            self._index = dataset.probe_cells(vp_slot, n_slots)
        else:
            self._index = ProbeCellIndex(
                self._columns, len(dataset.addresses), vp_slot, n_slots
            )

    def _segments(
        self, addr_indices: Iterable[int], continent: Optional[Continent]
    ) -> List[Tuple[int, int]]:
        """The non-empty sorted-row ranges making up a cell."""
        n_slots = self._index.n_slots
        if continent is None:
            slots: Sequence[int] = range(n_slots)
        elif not self._by_continent:
            raise ValueError("these probe cells were built without VP continents")
        else:
            slots = (_CONTINENTS.index(continent),)
        offsets = self._index.offsets
        out: List[Tuple[int, int]] = []
        for addr_idx in addr_indices:
            for slot in slots:
                k = addr_idx * n_slots + slot
                lo, hi = int(offsets[k]), int(offsets[k + 1])
                if lo < hi:
                    out.append((lo, hi))
        return out

    def rows(
        self, addr_indices: Iterable[int], continent: Optional[Continent] = None
    ) -> np.ndarray:
        """Table row indices of the cell (every continent when
        *continent* is None), ascending — i.e. in table order."""
        order = self._index.order
        segments = self._segments(addr_indices, continent)
        if len(segments) == 1:
            lo, hi = segments[0]
            return order[lo:hi]
        if not segments:
            return order[:0]
        return np.sort(np.concatenate([order[lo:hi] for lo, hi in segments]))

    def rtt(
        self, addr_indices: Iterable[int], continent: Optional[Continent] = None
    ) -> np.ndarray:
        """The cell's RTT samples, in table order."""
        return self.column("rtt", self.rows(addr_indices, continent))

    def column(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Column *name* at *rows* (as returned by :meth:`rows`)."""
        return np.asarray(self._columns[name])[rows]

    def quantiles(
        self, cells: Sequence[Cell], qs: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(row count, percentiles *qs*) of every cell, in one pass.

        Row *i* of the percentile array equals ``np.percentile`` of
        ``self.rtt(*cells[i])`` at each *q*, bit for bit; an empty cell's
        row is NaN.
        """
        segments = [self._segments(addrs, continent) for addrs, continent in cells]
        counts = np.array(
            [sum(hi - lo for lo, hi in segs) for segs in segments], dtype=np.int64
        )
        out = np.full((len(cells), len(qs)), np.nan, dtype=np.float32)
        single = [i for i, segs in enumerate(segments) if len(segs) == 1]
        if single:
            starts = np.array([segments[i][0][0] for i in single], dtype=np.int64)
            out[single] = sorted_quantiles(
                self._index.sorted_rtt, starts, counts[single], qs
            )
        multi = [i for i, segs in enumerate(segments) if len(segs) > 1]
        if multi:
            sorted_rtt = self._index.sorted_rtt
            values = np.concatenate(
                [sorted_rtt[lo:hi] for i in multi for lo, hi in segments[i]]
            )
            out[multi] = run_quantiles(values, counts[multi], qs)
        return counts, out
