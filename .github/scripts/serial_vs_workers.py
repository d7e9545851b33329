"""Smoke check: a multiprocess campaign reproduces the serial
run byte-for-byte (summary, aggregate state, probe and traceroute
columns, and the transfer observations down to their zone serials)
AND hands shards off via mmap spills — a regression to pickling
collectors through the pool pipe fails here.

Run by path (``PYTHONPATH=src python .github/scripts/serial_vs_workers.py``),
never through ``python -``: the forkserver pool re-imports ``__main__``
from its file, and a script read from stdin has none.
"""
import numpy as np

from repro.core import StudyConfig, StudyPipeline
from repro.core.pipeline import last_spill_stats
from repro.util.timeutil import parse_ts


def main() -> None:
    config = StudyConfig(
        seed=77,
        ring_scale=0.02,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-11-25"),
        campaign_end=parse_ts("2023-11-30"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=20,
    )
    serial = StudyPipeline(config).run_campaign()
    mp = StudyPipeline(config.with_sharding(2, workers=2)).run_campaign()

    assert mp.summary() == serial.summary()
    assert mp.state() == serial.state()
    for name, column in serial.probe_columns().items():
        assert np.array_equal(mp.probe_columns()[name], column), name
    for name, column in serial.traceroute_columns().items():
        assert np.array_equal(mp.traceroute_columns()[name], column), name

    def transfer_rows(collector):
        return [
            (o.vp_id, o.true_ts, o.observed_ts, o.address.address, o.serial,
             o.fault, o.fault_detail, o.zone.serial)
            for o in collector.transfers
        ]

    assert serial.transfers, "serial run recorded no transfers"
    assert transfer_rows(mp) == transfer_rows(serial)

    stats = last_spill_stats()
    assert stats is not None, "multiprocess run never spilled"
    assert stats["spill_bytes"] > 0, "empty spills — handoff regressed"
    assert stats["payload_bytes"] < 4096, (
        f"pool pipe carried {stats['payload_bytes']} bytes; "
        f"the handoff has regressed to shipping row data"
    )
    print("multiprocess byte-identity OK:", stats["spill_bytes"],
          "spill bytes,", stats["payload_bytes"], "pipe bytes")


if __name__ == "__main__":
    main()
