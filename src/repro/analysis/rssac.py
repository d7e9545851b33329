"""RSSAC047-style service metrics.

RSSAC037 (the governance model the paper's intro cites) and RSSAC047
define the measurable service levels of the root server system.  Three
of them fall naturally out of this simulation and complement the paper's
analyses:

* **response latency** — per letter, the distribution of query RTTs
  (RSSAC047 threshold: correct responses within 250 ms for UDP),
* **publication latency** — how long after a zone publication every
  site serves the new serial (the fault plan's stale-site windows
  violate this),
* **serial currency** — the fraction of observed transfers serving the
  newest (or immediately previous) publication.
"""

from __future__ import annotations

from repro.analysis.base import RegisteredAnalysis

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.probe_cells import ProbeCells
from repro.data.transfers import TransferRecord
from repro.faults.plan import FaultPlan
from repro.rss.operators import ROOT_LETTERS
from repro.util.timeutil import Timestamp
from repro.zone.distribution import ZoneDistributor
from repro.zone.serial import serial_compare

#: RSSAC047's UDP response-time threshold.
RESPONSE_LATENCY_THRESHOLD_MS = 250.0


@dataclass(frozen=True)
class ResponseLatency:
    """Per-letter response latency metrics."""

    letter: str
    samples: int
    p50_ms: float
    p95_ms: float
    within_threshold: float  # fraction <= 250 ms


class RssacMetrics(RegisteredAnalysis):
    """Service metrics over a campaign's samples."""

    name = "rssac"
    requires = ("dataset", "distributor?", "fault_plan?")
    tables = ("probes",)

    def __init__(
        self,
        dataset,
        distributor: Optional[ZoneDistributor] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.dataset = dataset
        self.distributor = distributor
        self.fault_plan = fault_plan
        self.cells = ProbeCells(dataset)
        self._latencies: Optional[List[ResponseLatency]] = None
        # Per letter, from one quantile pass over every root letter.
        self._by_letter: Optional[Dict[str, Optional[ResponseLatency]]] = None

    # -- response latency ---------------------------------------------------------

    def response_latency(self, letter: str) -> Optional[ResponseLatency]:
        """RTT distribution for one letter (current-generation address)."""
        if self._by_letter is None:
            self._by_letter = self._measure()
        return self._by_letter.get(letter)

    def _measure(self) -> Dict[str, Optional[ResponseLatency]]:
        """Every root letter's latency metrics, in one quantile pass."""
        columns = self.dataset.probe_columns()
        addr = np.asarray(columns["addr"])
        within = np.bincount(
            addr[np.asarray(columns["rtt"]) <= RESPONSE_LATENCY_THRESHOLD_MS],
            minlength=len(self.dataset.addresses),
        ).tolist()
        members = [
            [
                i
                for i, sa in enumerate(self.dataset.addresses)
                if sa.letter == letter and sa.generation != "old"
            ]
            for letter in ROOT_LETTERS
        ]
        counts, values = self.cells.quantiles(
            [(indices, None) for indices in members], (50, 95)
        )
        return {
            letter: ResponseLatency(
                letter=letter,
                samples=samples,
                p50_ms=p50,
                p95_ms=p95,
                within_threshold=sum(within[i] for i in indices) / samples,
            )
            if samples
            else None
            for letter, indices, samples, (p50, p95) in zip(
                ROOT_LETTERS, members, counts.tolist(), values.tolist()
            )
        }

    def all_response_latencies(self) -> List[ResponseLatency]:
        if self._latencies is None:
            self._latencies = [
                metrics
                for metrics in map(self.response_latency, ROOT_LETTERS)
                if metrics is not None
            ]
        return list(self._latencies)

    # -- publication latency -------------------------------------------------------

    def publication_latency(
        self, site_keys: List[str], at_ts: Timestamp
    ) -> Dict[str, Optional[int]]:
        """Per site: seconds behind the newest publication at *at_ts*
        (None = the site is stale: inside one of the fault plan's
        stale-site windows, the ones the campaign observed, or frozen on
        the distributor)."""
        if self.distributor is None:
            raise RuntimeError("publication latency needs the distributor")
        newest_ts, _edition = self.distributor.latest_publication(at_ts)
        stale = {
            event.site_key
            for event in (self.fault_plan.stale_sites if self.fault_plan else ())
            if event.active(at_ts)
        }
        out: Dict[str, Optional[int]] = {}
        for site_key in site_keys:
            if site_key in stale or self.distributor.is_frozen(site_key):
                out[site_key] = None
                continue
            pub = self.distributor.site_publication(site_key, at_ts)
            out[site_key] = max(0, newest_ts - pub.publication_ts)
        return out

    # -- serial currency ----------------------------------------------------------------

    def serial_currency(
        self, transfers: List[TransferRecord], allowed_lag: int = 2
    ) -> Tuple[float, List[TransferRecord]]:
        """(fraction current, stale observations).

        A transfer is *current* if its serial is within *allowed_lag*
        publications of the newest at observation time.
        """
        if self.distributor is None:
            raise RuntimeError("serial currency needs the distributor")
        if not transfers:
            raise ValueError("no transfer observations")
        stale: List[TransferRecord] = []
        current = 0
        for obs in transfers:
            newest_ts, edition = self.distributor.latest_publication(obs.true_ts)
            newest_zone = self.distributor.zone_for_publication(newest_ts, edition)
            if serial_compare(obs.serial, newest_zone.serial) >= 0:
                current += 1
                continue
            # Walk back up to allowed_lag publications.
            behind = 0
            ts = newest_ts - 1
            ok = False
            while behind < allowed_lag:
                prev_ts, prev_edition = self.distributor.latest_publication(ts)
                prev_zone = self.distributor.zone_for_publication(prev_ts, prev_edition)
                if obs.serial == prev_zone.serial:
                    ok = True
                    break
                behind += 1
                ts = prev_ts - 1
            if ok:
                current += 1
            else:
                stale.append(obs)
        return current / len(transfers), stale
