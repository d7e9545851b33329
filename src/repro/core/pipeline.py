"""The study pipeline: build_world → build_platform → run_campaign.

:class:`StudyPipeline` is the one study object; it runs the paper's §4
method as three stages and keeps each one's output as a plain attribute:

* **build_world** — sites, routing fabric, zone machinery, deployments.
  Worlds depend only on the seed and are checkpointed in a module-level
  cache, so the CLI tools, benchmarks and repeated studies stop
  re-deriving identical worlds.
* **build_platform** — schedule, route selector, VP ring, fault plan
  and prober (the full measurement platform).
* **run_campaign** — executes the campaign.  The VP ring is
  partitioned into ``config.shards`` disjoint shards, each one compiled
  :class:`~repro.vantage.epoch_engine.EpochCampaignPlan` (the only
  campaign engine), and :class:`CampaignShards` — the one campaign
  driver, which the streamed campaign (:mod:`repro.core.streaming`)
  advances chunk by chunk — advances them over the single range
  ``[0, n_rounds)``, in-process or, with ``config.workers > 1``, on a
  ``ProcessPoolExecutor`` with mmap spill handoff.  One shard's
  collector is the campaign collector; several are recombined with
  :meth:`~repro.vantage.collector.CampaignCollector.merge`, which is
  guaranteed to reproduce the serial run byte-for-byte.

Analyses then run on the :class:`~repro.core.results.StudyResults`
bundle through :func:`repro.analysis.registry.run`.

Sharding invariant: every shard probes a *disjoint VP subset* over the
*full* schedule.  Catchment churn, sampling phase and fault state are all
keyed per (VP, address) or per timestamp, never across VPs, which is what
makes the partitioned execution exact rather than approximate.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.core.results import StudyResults
from repro.faults.plan import FaultPlan, default_fault_plan
from repro.geo.continents import Continent
from repro.netsim.routing import RouteSelector
from repro.netsim.topology import NetworkFabric
from repro.rss.operators import ROOT_SERVERS
from repro.rss.server import RootServerDeployment
from repro.rss.sites import SiteCatalog, build_site_catalog
from repro.util.rng import RngFactory
from repro.vantage.collector import CampaignCollector, CollectorState
from repro.vantage.epoch_engine import EpochCampaignPlan
from repro.vantage.node import VantagePoint
from repro.vantage.probes import Prober, SamplingPolicy
from repro.vantage.ring import build_ring
from repro.vantage.scheduler import MeasurementSchedule
from repro.zone.distribution import ZoneDistributor
from repro.zone.rootzone import RootZoneBuilder


# --- stage outputs ------------------------------------------------------------------


@dataclass
class WorldArtifacts:
    """Stage 1 output: the simulated world (seed-determined only)."""

    seed: int
    catalog: SiteCatalog
    fabric: NetworkFabric
    zone_builder: RootZoneBuilder
    distributor: ZoneDistributor
    deployments: Dict[str, RootServerDeployment]


@dataclass
class PlatformArtifacts:
    """Stage 2 output: the measurement platform for one config."""

    schedule: MeasurementSchedule
    expected_rounds: int
    selector: RouteSelector
    vps: List[VantagePoint]
    fault_plan: FaultPlan
    prober: Prober


# --- stage 1: build_world -----------------------------------------------------------

#: Checkpointed worlds by (seed, world-layer cache token): the seed plus
#: whatever part of the world spec shapes the site catalog.
_WORLD_CACHE: Dict[Any, WorldArtifacts] = {}


def _world_cache_key(config: StudyConfig) -> Any:
    return (config.seed, config.world_spec().cache_token())


def build_world(config: StudyConfig, *, reuse: bool = True) -> WorldArtifacts:
    """Build (or reuse) the world: sites, fabric, zone machinery, RSS.

    Worlds are immutable except for the distributor's staleness faults,
    which every campaign resets at start — so reuse across studies, CLI
    invocations and benchmarks is exact, not approximate.
    """
    cache_key = _world_cache_key(config)
    if reuse and cache_key in _WORLD_CACHE:
        return _WORLD_CACHE[cache_key]
    rng_factory = RngFactory(config.seed)
    catalog = build_site_catalog(rng_factory, config.world_spec().site_plan())
    fabric = NetworkFabric(catalog, rng_factory)
    zone_builder = RootZoneBuilder(seed=config.seed)
    distributor = ZoneDistributor(zone_builder)
    deployments = {
        letter: RootServerDeployment(
            ROOT_SERVERS[letter], catalog.of_letter(letter), distributor
        )
        for letter in ROOT_SERVERS
    }
    world = WorldArtifacts(
        seed=config.seed,
        catalog=catalog,
        fabric=fabric,
        zone_builder=zone_builder,
        distributor=distributor,
        deployments=deployments,
    )
    if reuse:
        _WORLD_CACHE[cache_key] = world
    return world


def clear_world_cache() -> None:
    """Drop every checkpointed world (tests / memory pressure)."""
    _WORLD_CACHE.clear()


# --- stage 2: build_platform --------------------------------------------------------


def _popular_d_sites(
    catalog: SiteCatalog, selector: RouteSelector, ring: List[VantagePoint]
) -> List[str]:
    """The most-visited d.root site in Asia and in Europe.

    Stale sites must actually be in some VP's catchment to be observable,
    so the fault plan targets the most-visited d.root sites (paper:
    Tokyo, 3 VPs; Leeds, 7 VPs).
    """
    table = selector.table([(vp.attachment, "d", f) for vp in ring for f in (4, 6)])
    best_sites = table.site[table.ptr[:-1]].tolist()  # each key's first route
    counts = Counter(selector.sites[code].key for code in best_sites)
    best: Dict[Continent, str] = {}
    site_by_key = {s.key: s for s in catalog.of_letter("d")}
    for key, _n in counts.most_common():
        continent = site_by_key[key].continent
        if continent in (Continent.ASIA, Continent.EUROPE) and continent not in best:
            best[continent] = key
    return [best[c] for c in (Continent.ASIA, Continent.EUROPE) if c in best]


def build_platform(config: StudyConfig, world: WorldArtifacts) -> PlatformArtifacts:
    """Build the measurement platform: schedule, selector, ring, faults
    and prober."""
    rng_factory = RngFactory(config.seed)
    schedule = MeasurementSchedule(
        start=config.campaign_start,
        end=config.campaign_end,
        interval_scale=config.interval_scale,
    )
    expected_rounds = schedule.round_count()
    selector = world.fabric.selector(
        seed=config.seed, expected_rounds=expected_rounds
    )
    ring = build_ring(rng_factory, config.ring_config)

    fault_spec = config.fault_spec()
    if fault_spec.include_faults:
        stale_keys = _popular_d_sites(world.catalog, selector, ring)
        fault_plan = fault_spec.apply(
            default_fault_plan(world.catalog, len(ring), stale_site_keys=stale_keys)
        )
    else:
        fault_plan = FaultPlan()

    prober = Prober(
        fabric=world.fabric,
        selector=selector,
        deployments=world.deployments,
        fault_plan=fault_plan,
        sampling=SamplingPolicy(
            rtt_every=config.rtt_sample_every,
            traceroute_every=config.traceroute_sample_every,
            axfr_every=config.axfr_sample_every,
            clean_transfer_keep_one_in=config.clean_transfer_keep_one_in,
        ),
    )
    return PlatformArtifacts(
        schedule=schedule,
        expected_rounds=expected_rounds,
        selector=selector,
        vps=ring,
        fault_plan=fault_plan,
        prober=prober,
    )


# --- stage 3: run_campaign ----------------------------------------------------------


def shard_vp_lists(
    vps: Sequence[VantagePoint], shards: int
) -> List[List[VantagePoint]]:
    """Round-robin partition of the ring into *shards* disjoint subsets.

    Round-robin (rather than contiguous blocks) balances the regional
    clustering of the ring across shards; any disjoint partition yields
    identical merged output.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    return [list(vps[i::shards]) for i in range(shards)]


# --- multiprocess shard workers ------------------------------------------------------

#: Per-worker-process state: the study config installed by the pool
#: initializer, and a cache of live shard plans keyed by shard index.
#: ProcessPoolExecutor does not pin tasks to workers, so a cache entry is
#: only reused when its recorded position matches the requested ``lo`` —
#: a reassigned shard recompiles its plan over the shipped state
#: (correct always, cheap in the common pinned case).
_STREAM_CONFIG: Optional[StudyConfig] = None
_STREAM_PLANS: Dict[int, Tuple[EpochCampaignPlan, int]] = {}


def _init_stream_worker(config_values: Dict[str, Any], owner_pid: int) -> None:
    """Pool initializer: install the worker-process study config.

    *config_values* is a plain ``asdict()`` of primitives — the only
    payload that crosses the pipe at pool setup.  Worlds are NOT shipped:
    each worker derives its own through the seed-keyed module cache.
    *owner_pid* arms the orphan watchdog — a SIGKILLed campaign (the
    crash-injection tests) must not leave workers blocked on the call
    queue holding its inherited file descriptors.
    """
    from repro.util.procutil import exit_when_orphaned

    global _STREAM_CONFIG
    _STREAM_CONFIG = StudyConfig(**config_values)
    _STREAM_PLANS.clear()
    exit_when_orphaned(owner_pid)


def _advance_stream_shard(
    shard_index: int, lo: int, hi: int, state: CollectorState, spill_root: str
) -> Dict[str, Any]:
    """Worker-process entry: advance one shard over ``[lo, hi)`` and
    spill the range's rows.

    The shipped *state* is the shard's aggregate state after round
    ``lo``; a cached plan already carrying that state (its position
    matches ``lo``) advances directly, anything else recompiles the
    shard's plan from the per-process seed-keyed world cache over a
    collector restored from the state.  Rows cross back to the
    parent through the spill — only this path string and the shard
    index transit the pool pipe.
    """
    config = _STREAM_CONFIG
    if config is None:
        raise RuntimeError(
            "stream worker used before _init_stream_worker installed its config"
        )
    cached = _STREAM_PLANS.get(shard_index)
    if cached is not None and cached[1] == lo:
        plan = cached[0]
    else:
        serial_config = config.serial()
        world = build_world(serial_config)
        platform = build_platform(serial_config, world)
        shard_vps = shard_vp_lists(platform.vps, config.shards)[shard_index]
        plan = EpochCampaignPlan(
            platform.prober,
            shard_vps,
            platform.schedule,
            CampaignCollector.from_state(state),
        )

    plan.emit_range(lo, hi)

    from repro.data.spill import write_shard_spill

    spill_dir = write_shard_spill(
        Path(spill_root) / f"rounds-{lo:05d}-shard-{shard_index:03d}",
        plan.collector,
    )
    # Drain so the next advance appends only its own range's rows; the
    # aggregates stay cumulative, exactly like the in-process path.
    plan.collector.drain_rows()
    _STREAM_PLANS[shard_index] = (plan, hi)
    return {"shard": shard_index, "spill_dir": str(spill_dir)}


#: Handoff accounting for the most recent pool advance in this process:
#: ``{"shards", "payload_bytes", "spill_bytes"}``.  CI reads it to prove
#: the spill path ran (spill_bytes > 0) and that no row data crossed the
#: pool pipe.
_LAST_SPILL_STATS: Optional[Dict[str, Any]] = None


def last_spill_stats() -> Optional[Dict[str, Any]]:
    """Stats for the last multiprocess advance (None if none ran)."""
    return _LAST_SPILL_STATS


class CampaignShards:
    """Every shard of one campaign, advanced together over round ranges.

    The one campaign driver: batch :func:`run_campaign` advances it over
    ``[0, n_rounds)`` once, the streamed campaign
    (:mod:`repro.core.streaming`) one chunk at a time.  Each shard owns a
    disjoint VP subset over the full schedule.  With ``workers > 1`` and
    ``shards > 1`` the shards advance on a process pool (pinned start
    method: forkserver preferred, spawn fallback, never fork) and each
    range's rows come home as per-shard mmap spills; otherwise every
    shard is an :class:`~repro.vantage.epoch_engine.EpochCampaignPlan`
    in this process.

    *collectors* (one per shard, fresh by default) carry each shard's
    aggregate state up to the round the first :meth:`advance` starts
    from — the streamed campaign's resume point.  Plans are compiled
    from the seed alone and hold no other campaign state, so nothing is
    replayed to resume.
    """

    def __init__(
        self,
        config: StudyConfig,
        world: WorldArtifacts,
        platform: PlatformArtifacts,
        collectors: Optional[List[CampaignCollector]] = None,
    ) -> None:
        shard_vps = shard_vp_lists(platform.vps, config.shards)
        if collectors is None:
            collectors = [CampaignCollector() for _ in shard_vps]
        self.collectors = collectors
        self._states: Optional[List[CollectorState]] = None
        self._plans: List[EpochCampaignPlan] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        self._spill_root: Optional[Path] = None
        self._spill_dirs: List[str] = []
        if config.workers > 1 and config.shards > 1:
            from repro.data.spill import spill_tempdir
            from repro.util.procutil import mp_context, pool_width

            self._spill_root = spill_tempdir("rootsim-spill-")
            self._pool = ProcessPoolExecutor(
                max_workers=pool_width(config.workers, config.shards),
                mp_context=mp_context(preload=("repro.core.pipeline",)),
                initializer=_init_stream_worker,
                initargs=(asdict(config), os.getpid()),
            )
        else:
            self._plans = [
                EpochCampaignPlan(platform.prober, vps, platform.schedule, collector)
                for vps, collector in zip(shard_vps, collectors)
            ]

    def advance(self, lo: int, hi: int) -> List[CampaignCollector]:
        """Execute rounds ``[lo, hi)`` on every shard; returns the
        per-shard collectors in shard order.

        Their row tables hold the rows appended since the caller last
        drained them; pool-advanced collectors are memory-mapped views
        of this range's spills, valid until :meth:`discard_spills` or
        :meth:`close`.
        """
        states = self._states
        self._states = None
        if self._pool is None:
            for plan in self._plans:
                plan.emit_range(lo, hi)
            return self.collectors

        global _LAST_SPILL_STATS
        from repro.data.spill import read_shard_spill, spill_nbytes

        if states is None:
            states = [c.state() for c in self.collectors]

        futures = [
            self._pool.submit(
                _advance_stream_shard, index, lo, hi, state, str(self._spill_root)
            )
            for index, state in enumerate(states)
        ]
        results = [future.result() for future in futures]
        self._spill_dirs += [result["spill_dir"] for result in results]
        _LAST_SPILL_STATS = {
            "shards": len(results),
            "payload_bytes": sum(
                len(json.dumps(result).encode()) for result in results
            ),
            "spill_bytes": sum(spill_nbytes(r["spill_dir"]) for r in results),
        }
        self.collectors = [read_shard_spill(r["spill_dir"]) for r in results]
        return self.collectors

    def shard_states(self) -> List[CollectorState]:
        """The per-shard :meth:`~CampaignCollector.state` of the current
        collectors — what the next pool advance ships — computed once per
        advance."""
        if self._states is None:
            self._states = [c.state() for c in self.collectors]
        return self._states

    def discard_spills(self) -> None:
        """Delete the last advance's spills once their rows have been
        copied out or drained."""
        for spill_dir in self._spill_dirs:
            shutil.rmtree(spill_dir, ignore_errors=True)
        self._spill_dirs = []

    def close(self) -> None:
        """Stop the pool and delete every spill."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None
            self._spill_dirs = []

    def __enter__(self) -> "CampaignShards":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def run_campaign(
    config: StudyConfig, world: WorldArtifacts, platform: PlatformArtifacts
) -> CampaignCollector:
    """Execute the campaign over ``[0, n_rounds)``; returns the campaign
    collector.

    One shard's collector is used as is; several are merged, which
    reproduces the serial run byte-for-byte.  The merge copies every row
    out of the mmapped spill views (and the spill reload already pulled
    the transfer metadata and zone pack bytes into memory), so the
    spills are deleted once it returns.
    """
    world.distributor.reset_faults()
    with CampaignShards(config, world, platform) as shards:
        collectors = shards.advance(0, platform.expected_rounds)
        if len(collectors) == 1:
            return collectors[0]
        return CampaignCollector.merge(collectors)


# --- the study object ---------------------------------------------------------------


class StudyPipeline:
    """One study: build the world, then the platform, then run the campaign.

    Each stage runs once and keeps its output as a plain attribute
    (``world``, ``platform``, ``collector``); a second call returns it, so
    callers can drive the stages one by one or call :meth:`run`.
    """

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        self.world: Optional[WorldArtifacts] = None
        self.platform: Optional[PlatformArtifacts] = None
        self.collector: Optional[CampaignCollector] = None

    def build_world(self) -> WorldArtifacts:
        if self.world is None:
            self.world = build_world(self.config)
        return self.world

    def build_platform(self) -> PlatformArtifacts:
        if self.platform is None:
            self.platform = build_platform(self.config, self.build_world())
        return self.platform

    def run_campaign(self) -> CampaignCollector:
        if self.collector is None:
            self.collector = run_campaign(
                self.config, self.build_world(), self.build_platform()
            )
        return self.collector

    def run(self) -> StudyResults:
        """Run every stage through the campaign; returns the bundle."""
        self.run_campaign()
        return self.results()

    def results(self) -> StudyResults:
        """A fresh results bundle (only valid once the campaign has run)."""
        if self.collector is None:
            raise RuntimeError(
                "results() called before the campaign ran; "
                "call run() / run_campaign() first"
            )
        world, platform = self.world, self.platform
        return StudyResults(
            config=self.config,
            schedule=platform.schedule,
            vps=platform.vps,
            catalog=world.catalog,
            fabric=world.fabric,
            deployments=world.deployments,
            distributor=world.distributor,
            fault_plan=platform.fault_plan,
            collector=self.collector,
        )
