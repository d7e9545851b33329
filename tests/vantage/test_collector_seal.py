"""Collector sealing and row draining.

A :class:`~repro.data.Dataset` takes zero-copy ownership of the
collector's column buffers, and the streaming engine detaches them
chunk-by-chunk; both moves are only safe if later appends fail loudly
instead of silently corrupting (or vanishing from) the handed-off
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset
from repro.vantage.collector import (
    CampaignCollector,
    CollectorSealedError,
    TransferObservation,
)


def _populated_collector() -> CampaignCollector:
    collector = CampaignCollector()
    collector.note_site(3, 1, "k-FRA-1")
    collector.note_identity("k", "k1.ams", vp_id=3, addr_idx=1)
    collector.add_probe_sample(3, 1000, 1, "k-FRA-1", 12.5, 100.0, 90.0, False)
    collector.add_traceroute(3, 1000, 1, "peer-1")
    collector.count_transfer(clean=True)
    return collector


def test_sealed_collector_rejects_every_ingest_path():
    collector = _populated_collector()
    collector.seal()
    assert collector.sealed
    one = np.ones(1, np.int32)
    ingests = [
        lambda: collector.note_site(3, 1, "k-FRA-1"),
        lambda: collector.note_identity("k", "k1.ams"),
        lambda: collector.add_probe_sample(
            3, 1001, 1, "k-FRA-1", 9.0, 80.0, 70.0, True
        ),
        lambda: collector.add_probe_block(
            vp=one, ts=one, addr=one, site=one, rtt=one.astype(np.float64),
            direct_km=one.astype(np.float64),
            closest_km=one.astype(np.float64),
            peer=one.astype(bool), transit=one,
        ),
        lambda: collector.add_traceroute(3, 1001, 1, None),
        lambda: collector.add_traceroute_block(vp=one, ts=one, addr=one, hop=one),
        lambda: collector.count_transfer(clean=False),
        lambda: collector.add_transfer_observation(
            TransferObservation(
                vp_id=3, true_ts=1000, observed_ts=1000, address=None,
                serial=1, zone=None,
            )
        ),
        lambda: collector.drain_rows(),
    ]
    for ingest in ingests:
        with pytest.raises(CollectorSealedError):
            ingest()
    # seal is idempotent and read-side access still works
    collector.seal()
    assert collector.summary()["probe_samples"] == 1


def test_to_dataset_seals_the_collector():
    collector = _populated_collector()
    dataset = Dataset.from_collector(collector)
    assert collector.sealed
    assert len(dataset.table("probes")) == 1
    with pytest.raises(CollectorSealedError):
        collector.add_probe_sample(3, 1001, 1, "k-FRA-1", 9.0, 80.0, 70.0, True)


def test_drain_rows_detaches_rows_but_keeps_aggregates():
    collector = _populated_collector()
    probes, traceroutes, transfers = collector.drain_rows()
    assert len(probes["vp"]) == 1 and len(traceroutes["vp"]) == 1
    assert transfers == []
    # row tables are empty now, aggregate state survives
    assert len(collector.probe_columns()["vp"]) == 0
    assert collector.summary()["transfers"] == 1
    assert collector.change_counts()
    # and the collector keeps ingesting after a drain
    collector.add_probe_sample(3, 2000, 1, "k-FRA-1", 11.0, 100.0, 90.0, False)
    assert len(collector.probe_columns()["vp"]) == 1
