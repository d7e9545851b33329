"""The probe table's cell index: rows grouped by (address, VP slot).

Every RTT reader groups probe rows by service address and by the
continent of the vantage point that measured them.  A
:class:`ProbeCellIndex` does that grouping once for a whole table: a
stable sort of the rows by cell key, the segment offsets of each cell,
and the RTT column sorted by value inside each cell — so any order
statistic of a cell is one gather, and the cell's rows in table order
are one slice of the permutation.  :meth:`repro.data.Dataset.probe_cells`
keeps one per dataset.

It retains 8 bytes per probe row (an ``int32`` permutation and a
``float32`` RTT column) plus one offset per cell.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.schema import DatasetError


def sort_runs(values: np.ndarray, offsets: np.ndarray) -> None:
    """Sort each run ``values[offsets[i]:offsets[i + 1]]`` in place."""
    bounds = offsets.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo > 1:
            values[lo:hi].sort()


class ProbeCellIndex:
    """Probe rows grouped by ``address * n_slots + vp_slot[vp]``.

    *vp_slot* maps a VP id to its slot (a continent, for the analyses).
    Without it, every row is in slot 0 of a one-slot index and the VP
    column is not read.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        n_addresses: int,
        vp_slot: Optional[np.ndarray] = None,
        n_slots: int = 1,
    ) -> None:
        addr = np.asarray(columns["addr"])
        if len(addr) > np.iinfo(np.int32).max:
            raise DatasetError(f"probe table too large to index: {len(addr)} rows")
        self.n_slots = n_slots if vp_slot is not None else 1
        n_cells = n_addresses * self.n_slots
        key = addr.astype(np.min_scalar_type(max(n_cells - 1, 0)))
        if vp_slot is not None:
            key *= key.dtype.type(self.n_slots)
            key += vp_slot.astype(key.dtype)[np.asarray(columns["vp"])]
        # A key of at most 16 bits sorts stably by radix.
        self.order = np.argsort(key, kind="stable").astype(np.int32)
        self.offsets = np.zeros(n_cells + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=n_cells), out=self.offsets[1:])
        self.sorted_rtt = np.asarray(columns["rtt"])[self.order]
        sort_runs(self.sorted_rtt, self.offsets)
        # Cells are views into these: readers must not write through them.
        for array in (self.order, self.offsets, self.sorted_rtt):
            array.flags.writeable = False
