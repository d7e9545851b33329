"""Study configuration.

The paper's campaign (675 VPs, 30-minute intervals, 174 days) is the
``paper_scale`` preset; ``standard`` and ``quick`` scale the VP count and
the measurement interval down proportionally (the regional mix, event
calendar and fault classes are preserved) so tests and benchmarks run in
seconds to minutes rather than hours.

:class:`StudyConfig` is a thin frozen **facade** over the layered
scenario system (:mod:`repro.scenarios`): the flat fields are the
world/platform knobs every existing caller uses, and the optional
``world`` / ``traffic`` / ``faults`` mappings carry the layer extras a
composed scenario adds (site build-out timelines, population overrides,
query-mix composition, fault-class toggles).  The typed views —
:meth:`world_spec`, :meth:`platform_spec`, :meth:`traffic_spec`,
:meth:`fault_spec` — are what the construction stages consume.

Everything in a config is a JSON primitive: ``asdict()`` crosses
process-pool pipes, lands in ``MANIFEST.json`` / ``CHECKPOINT.json`` as
the study fingerprint (scenario identity included), and round-trips
back through :meth:`from_dict`, which is strict — unknown keys raise a
"did you mean" error instead of being silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.util.timeutil import Timestamp
from repro.vantage.ring import RingConfig
from repro.vantage.scheduler import CAMPAIGN_END, CAMPAIGN_START


@dataclass(frozen=True, eq=True)
class StudyConfig:
    """All knobs of one study run."""

    seed: int = 2024
    ring_scale: float = 0.3
    ring_min_per_region: int = 4
    interval_scale: float = 12.0  # 30 min -> 6 h base interval
    campaign_start: Timestamp = CAMPAIGN_START
    campaign_end: Timestamp = CAMPAIGN_END
    rtt_sample_every: int = 2
    traceroute_sample_every: int = 4
    axfr_sample_every: int = 8
    clean_transfer_keep_one_in: int = 2000
    include_faults: bool = True
    #: VP-ring partitions the campaign is executed in.  Output is
    #: byte-identical for any shard count (the collectors merge back
    #: deterministically); >1 enables parallel execution.
    shards: int = 1
    #: Worker processes for sharded execution; 1 = run shards serially
    #: in-process, >1 = a ProcessPoolExecutor over the shards.
    workers: int = 1
    #: The campaign engine, recorded in every MANIFEST.json /
    #: CHECKPOINT.json study fingerprint.  The epoch-compiled engine
    #: (:mod:`repro.vantage.epoch_engine`) is the only one, so "epoch" is
    #: the only accepted value.
    engine: str = "epoch"
    #: World-layer extras beyond the flat ring knobs (region_scale,
    #: site_scale, buildout, buildout_stage) — see
    #: :class:`repro.scenarios.specs.WorldSpec`.  ``None`` = defaults.
    world: Optional[Dict[str, Any]] = None
    #: Traffic-layer extras (population profile overrides, querymix) —
    #: see :class:`repro.scenarios.specs.TrafficSpec`.
    traffic: Optional[Dict[str, Any]] = None
    #: Fault-layer class toggles (bitflips, stale_sites, clock_skew) —
    #: see :class:`repro.scenarios.specs.FaultSpec`.
    faults: Optional[Dict[str, Any]] = None
    #: Scenario identity when this config was composed by the registry:
    #: ``{"name", "version", "fingerprint", "overlays"}``.  Pure
    #: provenance — never consulted by any construction stage, but it
    #: flows into MANIFEST.json / CHECKPOINT.json so saved data remembers
    #: which scenario produced it.
    scenario: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.ring_scale <= 0:
            raise ValueError(
                f"world spec: ring_scale must be positive: {self.ring_scale}"
            )
        if self.interval_scale <= 0:
            raise ValueError(
                f"platform spec: interval_scale must be positive: "
                f"{self.interval_scale}"
            )
        if self.campaign_end <= self.campaign_start:
            raise ValueError(
                "platform spec: campaign_end must be after campaign_start"
            )
        if self.shards < 1:
            raise ValueError(f"platform spec: shards must be >= 1: {self.shards}")
        if self.workers < 1:
            raise ValueError(
                f"platform spec: workers must be >= 1: {self.workers}"
            )
        if self.engine != "epoch":
            raise ValueError(
                f"study config: engine must be 'epoch': {self.engine!r}"
            )
        for layer in ("world", "traffic", "faults", "scenario"):
            value = getattr(self, layer)
            if value is not None and not isinstance(value, Mapping):
                raise ValueError(
                    f"{layer} layer must be a mapping or None, got "
                    f"{type(value).__name__}"
                )
        # Layer extras validate through their typed specs (raising with
        # layer-named messages); the default None path costs nothing.
        if self.world is not None:
            self.world_spec()
        if self.traffic is not None:
            self.traffic_spec()
        if self.faults is not None:
            self.fault_spec()

    # -- typed layer views -------------------------------------------------------------

    def world_spec(self):
        """This config's :class:`~repro.scenarios.specs.WorldSpec`."""
        from dataclasses import fields as spec_fields

        from repro.scenarios.specs import WorldSpec, reject_unknown_keys

        extras = dict(self.world or {})
        # The flat fields are the single source of truth for the knobs
        # they cover — the extras mapping may only carry the rest.
        reject_unknown_keys(
            "world layer",
            extras,
            [
                f.name
                for f in spec_fields(WorldSpec)
                if f.name not in ("ring_scale", "ring_min_per_region")
            ],
        )
        return WorldSpec(
            ring_scale=self.ring_scale,
            ring_min_per_region=self.ring_min_per_region,
            **extras,
        )

    def platform_spec(self):
        """This config's :class:`~repro.scenarios.specs.PlatformSpec`."""
        from repro.scenarios.specs import PlatformSpec

        return PlatformSpec(
            interval_scale=self.interval_scale,
            campaign_start=self.campaign_start,
            campaign_end=self.campaign_end,
            rtt_sample_every=self.rtt_sample_every,
            traceroute_sample_every=self.traceroute_sample_every,
            axfr_sample_every=self.axfr_sample_every,
            clean_transfer_keep_one_in=self.clean_transfer_keep_one_in,
            shards=self.shards,
            workers=self.workers,
        )

    def traffic_spec(self):
        """This config's :class:`~repro.scenarios.specs.TrafficSpec`."""
        from repro.scenarios.specs import TrafficSpec

        return TrafficSpec.from_dict(self.traffic or {})

    def fault_spec(self):
        """This config's :class:`~repro.scenarios.specs.FaultSpec`."""
        from repro.scenarios.specs import FaultSpec

        extras = dict(self.faults or {})
        if "include_faults" in extras:
            raise ValueError(
                "fault spec: include_faults lives on the flat config "
                "field, not in the faults extras mapping"
            )
        return FaultSpec.from_dict(
            {"include_faults": self.include_faults, **extras}
        )

    @property
    def ring_config(self) -> RingConfig:
        region_scale = (self.world or {}).get("region_scale") or {}
        return RingConfig(
            scale=self.ring_scale,
            min_per_region=self.ring_min_per_region,
            region_scale=tuple(sorted(
                (key, float(value)) for key, value in dict(region_scale).items()
            )),
        )

    @property
    def scenario_name(self) -> Optional[str]:
        """The registered scenario this config was composed from."""
        return (self.scenario or {}).get("name")

    @property
    def scenario_fingerprint(self) -> Optional[str]:
        """The composing scenario's content fingerprint, if any."""
        return (self.scenario or {}).get("fingerprint")

    # -- strict (de)serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudyConfig":
        """Rebuild a config from an ``asdict()``-shaped mapping.

        Strict: unknown keys raise a ``ValueError`` with a "did you
        mean" suggestion — a fingerprint written by a newer schema must
        fail loudly, never silently drop knobs.
        """
        from repro.scenarios.specs import reject_unknown_keys

        reject_unknown_keys(
            "study config", data, [f.name for f in fields(cls)]
        )
        return cls(**dict(data))

    def without_scenario(self) -> "StudyConfig":
        """This config minus its scenario provenance (for comparing a
        composed config against a hand-built one)."""
        return replace(self, scenario=None)

    # -- presets -------------------------------------------------------------------

    @classmethod
    def quick(cls, seed: int = 2024) -> "StudyConfig":
        """~100 VPs, 12-hour base interval: seconds-scale runs."""
        return cls(
            seed=seed,
            ring_scale=0.15,
            interval_scale=24.0,
            rtt_sample_every=1,
            traceroute_sample_every=2,
            axfr_sample_every=4,
            clean_transfer_keep_one_in=500,
        )

    @classmethod
    def standard(cls, seed: int = 2024) -> "StudyConfig":
        """~200 VPs, 6-hour base interval: the benchmark default."""
        return cls(seed=seed)

    @classmethod
    def paper_scale(cls, seed: int = 2024) -> "StudyConfig":
        """The full 675-VP, 30-minute campaign (minutes-long run)."""
        return cls(
            seed=seed,
            ring_scale=1.0,
            ring_min_per_region=1,
            interval_scale=1.0,
            rtt_sample_every=8,
            traceroute_sample_every=16,
            axfr_sample_every=32,
            clean_transfer_keep_one_in=20000,
        )

    @classmethod
    def paper(cls, seed: int = 2024) -> "StudyConfig":
        """The registered ``paper`` scenario (deprecated alias).

        Historically a bare alias of :meth:`paper_scale`; the preset now
        lives in the scenario registry, and this classmethod survives as
        a thin shim for existing callers — identical knobs, plus the
        scenario provenance stamp.
        """
        from repro.scenarios import compose

        return compose("paper").study_config(seed=seed)

    def with_seed(self, seed: int) -> "StudyConfig":
        """Same configuration under a different seed."""
        return replace(self, seed=seed)

    def with_sharding(self, shards: int, workers: int = 1) -> "StudyConfig":
        """Same campaign, executed in *shards* partitions on *workers*
        processes (results are byte-identical to the serial run)."""
        return replace(self, shards=shards, workers=workers)

    def serial(self) -> "StudyConfig":
        """The single-shard, in-process equivalent of this config."""
        return replace(self, shards=1, workers=1)
