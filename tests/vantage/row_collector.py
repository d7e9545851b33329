"""Row-at-a-time recording into a campaign collector, for tests.

:class:`~repro.vantage.collector.CampaignCollector` takes rows only as
column blocks.  The scalar campaign oracle (``scalar_campaign.py``) and
the collector unit tests still think in rows — one call per catchment
observation, CHAOS answer, probe sample, traceroute or transfer — so
:class:`RowRecorder` keeps those row semantics on the test side:

* a site or hop string is interned at its first occurrence with the
  ``(round, vp, addr)`` order key of that call, ``round`` being the
  collector's ``rounds_processed`` at the time (the oracle advances it
  after each round); an identity remembers its first key the same way,
* each (VP, address) pair counts its consecutive-observation site
  changes and the rounds it was observed, rows in first-observation
  order.

Probe and traceroute rows and the stability counters are buffered as
plain python values; :meth:`RowRecorder.flush` writes them through the
collector's block API (``add_probe_block``, ``add_traceroute_block``
and the stability columns) and returns the collector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.vantage.collector import (
    _NO_ORDER_KEY,
    _PROBE_SPEC,
    _TRACEROUTE_SPEC,
    CampaignCollector,
    TransferObservation,
)


class RowRecorder:
    """Buffers row-at-a-time observations for one collector."""

    def __init__(self, collector: Optional[CampaignCollector] = None) -> None:
        self.collector = CampaignCollector() if collector is None else collector
        stability = self.collector._stability
        #: (vp, addr) -> [last site, changes, rounds], in row order.
        self._pairs: Dict[Tuple[int, int], List[int]] = {
            (vp, addr): [site, changes, rounds]
            for vp, addr, site, changes, rounds in zip(
                *(
                    stability.column(name).tolist()
                    for name in ("vp", "addr", "site", "changes", "rounds")
                )
            )
        }
        self._probes: List[tuple] = []
        self._traceroutes: List[tuple] = []

    def _order_key(self, vp_id: int, addr_idx: int) -> Tuple[int, int, int]:
        """The call's position in a serial rounds-outer, VPs-inner,
        addresses-innermost campaign scan."""
        return (self.collector.rounds_processed, vp_id, addr_idx)

    def note_site(self, vp_id: int, addr_idx: int, site_key: str) -> None:
        """One round's catchment observation of one pair."""
        site = self.collector.sites.intern(site_key, self._order_key(vp_id, addr_idx))
        counters = self._pairs.get((vp_id, addr_idx))
        if counters is None:
            self._pairs[(vp_id, addr_idx)] = [site, 0, 1]
            return
        if counters[0] != site:
            counters[0] = site
            counters[1] += 1
        counters[2] += 1

    def note_identity(
        self,
        letter: str,
        identity: str,
        vp_id: Optional[int] = None,
        addr_idx: Optional[int] = None,
    ) -> None:
        """One CHAOS identity answer; without a position its first key
        is ``_NO_ORDER_KEY``."""
        collector = self.collector
        bucket = collector.identities.setdefault(letter, {})
        if identity not in bucket:
            collector._identity_order[(letter, identity)] = (
                _NO_ORDER_KEY
                if vp_id is None or addr_idx is None
                else self._order_key(vp_id, addr_idx)
            )
        bucket[identity] = bucket.get(identity, 0) + 1

    def add_probe_sample(
        self,
        vp_id: int,
        ts: int,
        addr_idx: int,
        site_key: str,
        rtt_ms: float,
        direct_km: float,
        closest_global_km: float,
        via_peer: bool,
        transit_asn: int = 0,
    ) -> None:
        site = self.collector.sites.intern(site_key, self._order_key(vp_id, addr_idx))
        self._probes.append(
            (
                vp_id, ts, addr_idx, site, rtt_ms, direct_km,
                closest_global_km, via_peer, transit_asn,
            )
        )

    def add_traceroute(
        self, vp_id: int, ts: int, addr_idx: int, second_to_last_hop: Optional[str]
    ) -> None:
        hop = (
            -1
            if second_to_last_hop is None
            else self.collector.hops.intern(
                second_to_last_hop, self._order_key(vp_id, addr_idx)
            )
        )
        self._traceroutes.append((vp_id, ts, addr_idx, hop))

    def count_transfer(self, clean: bool) -> None:
        self.collector.transfer_total += 1
        if clean:
            self.collector.transfer_clean += 1

    def add_transfer_observation(self, obs: TransferObservation) -> None:
        self.collector.transfers.append(obs)

    def flush(self) -> CampaignCollector:
        """Write the buffered rows and counters into the collector."""
        collector = self.collector
        if self._probes:
            collector.add_probe_block(**_block(_PROBE_SPEC, self._probes))
            self._probes = []
        if self._traceroutes:
            collector.add_traceroute_block(
                **_block(_TRACEROUTE_SPEC, self._traceroutes)
            )
            self._traceroutes = []

        stability = collector._stability
        pairs = list(self._pairs)
        new = pairs[len(stability):]
        if new:
            zeros = np.zeros(len(new), dtype=np.int32)
            stability.extend(
                vp=np.array([vp for vp, _addr in new], dtype=np.int32),
                addr=np.array([addr for _vp, addr in new], dtype=np.int16),
                site=zeros,
                changes=zeros,
                rounds=zeros,
            )
        counters = list(self._pairs.values())
        for i, name in enumerate(("site", "changes", "rounds")):
            stability.column(name)[:] = [row[i] for row in counters]
        return collector


def _block(spec, rows: List[tuple]) -> Dict[str, np.ndarray]:
    """Row tuples as one column block at the table's storage dtypes."""
    return {
        name: np.array(values, dtype=dtype)
        for (name, dtype), values in zip(spec, zip(*rows))
    }
