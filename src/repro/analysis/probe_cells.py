"""Probe rows grouped by (address, VP continent).

The RTT family — Figures 6/14/15 (:mod:`rtt`), the §8 variability result
(:mod:`variability`), the per-region view (:mod:`regionalrtt`) and the
RSSAC latency metrics (:mod:`rssac`) — reads the probe table one
(address, continent) cell at a time.  :class:`ProbeCells` sorts the rows
once by (address index, VP continent) with a stable sort and keeps the
segment offsets, so every cell is an O(1) slice instead of a boolean
mask over the whole table.

Row order matters: ``np.mean`` and ``np.std`` on float32 sum pairwise,
so their result depends on the order of the rows they reduce.  The
stable sort keeps table order inside each cell, and a cell that spans
several segments (several addresses, or every continent of an address)
is merged back into table order before it is returned.  Every reader
therefore reduces exactly the rows, in exactly the order, that a mask
over the table would select.

Each analysis instance builds its own view, which costs one sort of the
address and VP columns; nothing is cached on the dataset, so a request
after a serving-cache clear pays for the view again.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.continents import Continent
from repro.vantage.node import VantagePoint

_CONTINENTS: List[Continent] = list(Continent)


class ProbeCells:
    """The probe table's rows grouped by (address index, VP continent).

    *dataset* is anything with ``addresses`` and ``probe_columns()`` (a
    :class:`~repro.data.Dataset` or a bare collector).  Without *vps*
    the rows are grouped by address alone, and cells must be asked for
    without a continent.  VPs missing from *vps* count as the first
    continent, as the mask-based readers always counted them.
    """

    def __init__(
        self, dataset, vps: Optional[Sequence[VantagePoint]] = None
    ) -> None:
        self._columns = dataset.probe_columns()
        addr = np.asarray(self._columns["addr"], dtype=np.intp)
        if vps is None:
            self._n_cont = 1
            key = addr
        else:
            vp_cont = np.zeros(
                max((vp.vp_id for vp in vps), default=0) + 1, dtype=np.intp
            )
            for vp in vps:
                vp_cont[vp.vp_id] = _CONTINENTS.index(vp.continent)
            self._n_cont = len(_CONTINENTS)
            key = addr * self._n_cont + vp_cont[self._columns["vp"]]
        n_cells = len(dataset.addresses) * self._n_cont
        # A key of at most 16 bits sorts stably by radix.
        key = key.astype(np.min_scalar_type(max(n_cells - 1, 0)))
        self._order = np.argsort(key, kind="stable")
        self._offsets = np.zeros(n_cells + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=n_cells), out=self._offsets[1:])
        self._rtt = np.asarray(self._columns["rtt"])[self._order]
        # Cells are views into these: readers must not write through them.
        self._order.flags.writeable = False
        self._rtt.flags.writeable = False

    def _segments(
        self, addr_indices: Iterable[int], continent: Optional[Continent]
    ) -> List[Tuple[int, int]]:
        """The non-empty sorted-row ranges making up a cell."""
        if continent is None:
            slots: Sequence[int] = range(self._n_cont)
        elif self._n_cont == 1:
            raise ValueError("these probe cells were built without VP continents")
        else:
            slots = (_CONTINENTS.index(continent),)
        out: List[Tuple[int, int]] = []
        for addr_idx in addr_indices:
            for slot in slots:
                k = addr_idx * self._n_cont + slot
                lo, hi = int(self._offsets[k]), int(self._offsets[k + 1])
                if lo < hi:
                    out.append((lo, hi))
        return out

    def rows(
        self, addr_indices: Iterable[int], continent: Optional[Continent] = None
    ) -> np.ndarray:
        """Table row indices of the cell (every continent when
        *continent* is None), ascending — i.e. in table order."""
        return self._table_rows(self._segments(addr_indices, continent))

    def rtt(
        self, addr_indices: Iterable[int], continent: Optional[Continent] = None
    ) -> np.ndarray:
        """The cell's RTT samples, in table order."""
        segments = self._segments(addr_indices, continent)
        if len(segments) == 1:
            lo, hi = segments[0]
            return self._rtt[lo:hi]
        return self.column("rtt", self._table_rows(segments))

    def column(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Column *name* at *rows* (as returned by :meth:`rows`)."""
        return np.asarray(self._columns[name])[rows]

    def _table_rows(self, segments: List[Tuple[int, int]]) -> np.ndarray:
        if len(segments) == 1:
            lo, hi = segments[0]
            return self._order[lo:hi]
        if not segments:
            return self._order[:0]
        return np.sort(np.concatenate([self._order[lo:hi] for lo, hi in segments]))
