"""The scalar campaign oracle: the campaign as a (round, VP, address) loop.

:class:`repro.vantage.epoch_engine.EpochCampaignPlan` — the only campaign
engine — compiles each (VP, address) pair's route epochs and emits
columnar blocks.  This module states the same campaign one cell at a
time: each round first applies the fault plan's stale-site windows to
the world's zone distributor, then every VP probes every service address
over the scalar route oracle (``tests/netsim/scalar_routes.py``) and the
churn state machine oracle (``tests/netsim/epoch_oracle.py``), and
records row by row through a
:class:`~tests.vantage.row_collector.RowRecorder` (which writes the
rows into a :class:`~repro.vantage.collector.CampaignCollector` through
its block API), serving a real AXFR for every sampled or faulted
transfer.  The equivalence
tests (``test_epoch_engine.py``, ``test_collector_merge.py``,
``tests/scenarios/test_golden.py``) compare the two collectors byte for
byte.  It is test-only: no runtime code calls it, and it always runs the
whole campaign serially, whatever the config's shards and workers.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import StudyConfig
from repro.core.pipeline import build_platform, build_world
from repro.faults.bitflip import flip_bit_in_zone
from repro.netsim.latency import route_rtt_ms
from repro.netsim.mix import mix64, mix_float
from repro.rss.operators import ServiceAddress
from repro.util.timeutil import Timestamp
from repro.vantage.collector import CampaignCollector, TransferObservation
from repro.vantage.node import VantagePoint
from repro.vantage.probes import QUERIES_PER_ADDRESS, STLH_MISSING_PROB, Prober
from tests.netsim.epoch_oracle import ChurnOracle
from tests.netsim.scalar_routes import ScalarRoutes
from tests.vantage.row_collector import RowRecorder


def run_scalar_campaign(config: StudyConfig) -> CampaignCollector:
    """The collector of one serial whole-campaign scan of *config*.

    Stale-site windows freeze sites on the world's distributor, and
    worlds are cached per seed and shared with every later test, so the
    distributor is reset in a ``finally`` however the scan ends.
    """
    world = build_world(config)
    platform = build_platform(config, world)
    prober = platform.prober
    routes = ScalarRoutes(prober.fabric)
    churn = ChurnOracle(prober.selector.churn)
    recorder = RowRecorder()
    frozen: Dict[str, bool] = {}
    world.distributor.reset_faults()
    try:
        for round_no, ts in enumerate(platform.schedule.rounds()):
            _apply_stale_events(prober, frozen, ts)
            for vp in platform.vps:
                _run_round(prober, routes, churn, recorder, vp, round_no, ts)
            recorder.collector.rounds_processed += 1
    finally:
        world.distributor.reset_faults()
    return recorder.flush()


def _apply_stale_events(prober: Prober, frozen: Dict[str, bool], ts: Timestamp) -> None:
    """Freeze/unfreeze sites according to the fault plan's windows;
    *frozen* mirrors the distributor's freeze state per site."""
    for event in prober.fault_plan.stale_sites:
        is_frozen = frozen.get(event.site_key, False)
        if event.active(ts) and not is_frozen:
            prober.deployments[event.letter].freeze_site(
                event.site_key, event.freeze_from
            )
            frozen[event.site_key] = True
        elif not event.active(ts) and is_frozen:
            prober.deployments[event.letter].unfreeze_site(event.site_key)
            frozen[event.site_key] = False


def _run_round(
    prober: Prober,
    routes: ScalarRoutes,
    churn: ChurnOracle,
    recorder: RowRecorder,
    vp: VantagePoint,
    round_no: int,
    ts: Timestamp,
) -> None:
    """One VP's measurement round across all service addresses."""
    collector = recorder.collector
    sampling = prober.sampling
    phase = vp.vp_id  # de-synchronise sampling across VPs
    do_rtt = (round_no + phase) % sampling.rtt_every == 0
    do_traceroute = (round_no + phase) % sampling.traceroute_every == 0
    do_axfr = (round_no + phase) % sampling.axfr_every == 0

    for addr_idx, sa in enumerate(collector.addresses):
        options = routes.candidates(vp.attachment, sa.letter, sa.family)
        route = options[
            churn.select_index(
                vp.vp_id, sa.address, sa.letter, sa.family, round_no, len(options)
            )
        ]
        recorder.note_site(vp.vp_id, addr_idx, route.site.key)
        recorder.note_identity(sa.letter, route.site.identity(), vp.vp_id, addr_idx)
        collector.queries_simulated += QUERIES_PER_ADDRESS

        if do_rtt:
            request_key = mix64(vp.vp_id, addr_idx, round_no)
            rtt = route_rtt_ms(route, vp.last_mile_ms, request_key)
            recorder.add_probe_sample(
                vp_id=vp.vp_id,
                ts=ts,
                addr_idx=addr_idx,
                site_key=route.site.key,
                rtt_ms=rtt,
                direct_km=route.direct_km,
                closest_global_km=routes.closest_global_km(
                    vp.attachment.city, sa.letter
                ),
                via_peer=route.via != "transit",
                transit_asn=0 if route.transit is None else route.transit.asn,
            )

        if do_traceroute:
            missing = mix_float(vp.vp_id, addr_idx, round_no, 13) < STLH_MISSING_PROB
            recorder.add_traceroute(
                vp_id=vp.vp_id,
                ts=ts,
                addr_idx=addr_idx,
                second_to_last_hop=None if missing else route.second_to_last_hop,
            )

        bitflip = prober.fault_plan.bitflip_for(vp.vp_id, ts, sa.address)
        if do_axfr or bitflip is not None:
            _do_transfer(
                prober, recorder, vp, ts, addr_idx, sa, route.site.key, bitflip
            )


def _do_transfer(
    prober: Prober,
    recorder: RowRecorder,
    vp: VantagePoint,
    ts: Timestamp,
    addr_idx: int,
    sa: ServiceAddress,
    site_key: str,
    bitflip,
) -> None:
    """Serve one AXFR, count it, and record it if it is interesting or
    falls in the 1-in-N clean sample."""
    deployment = prober.deployments[sa.letter]
    result = deployment.serve_axfr(site_key, ts)
    zone = result.zone
    fault = ""
    fault_detail = ""
    if bitflip is not None:
        zone, report = flip_bit_in_zone(zone, bitflip, ts)
        fault = "bitflip"
        fault_detail = report.description
    stale = deployment.distributor.is_frozen(site_key)
    if stale and not fault:
        fault = "stale"
        fault_detail = f"site {site_key} frozen"
    clock_offset = prober.fault_plan.clocks.offset_for(vp.vp_id, ts)
    clean = not fault and clock_offset == 0
    recorder.count_transfer(clean)

    interesting = bool(fault) or clock_offset != 0
    keep_clean_sample = (
        mix_float(vp.vp_id, addr_idx, ts, 29)
        < 1.0 / prober.sampling.clean_transfer_keep_one_in
    )
    if interesting or keep_clean_sample:
        recorder.add_transfer_observation(
            TransferObservation(
                vp_id=vp.vp_id,
                true_ts=ts,
                observed_ts=ts + clock_offset,
                address=sa,
                serial=zone.serial,
                zone=zone,
                fault=fault,
                fault_detail=fault_detail,
            )
        )
