"""Typed, serializable scenario spec layers.

The monolithic :class:`~repro.core.config.StudyConfig` decomposes into
four layers, each a frozen dataclass with strict ``to_dict`` /
``from_dict`` round-tripping:

* :class:`WorldSpec` — what world exists: VP ring scale and regional
  mix, per-letter site scaling, and staged site build-out timelines;
* :class:`PlatformSpec` — how the platform measures it: campaign
  window, probing cadences, and the execution knobs (shards,
  workers);
* :class:`TrafficSpec` — what the passive layer observes: population
  profile overrides per capture point plus an optional query-mix
  composition (:class:`~repro.passive.querymix.QueryMixSpec`);
* :class:`FaultSpec` — which fault classes the campaign injects.

``StudyConfig`` remains the flat facade the pipeline passes across
process-pool pipes and into checkpoints; these specs are its typed
views (``config.world_spec()`` etc.) and the vocabulary scenario layer
documents are written in (:mod:`repro.scenarios.registry`).

Mapping-valued fields are stored internally as sorted tuples of pairs
so every spec stays hashable and equality is order-independent;
``to_dict`` thaws them back into plain JSON-ready dicts.

All ``from_dict`` paths are strict: unknown keys raise a
``ValueError`` with a "did you mean" suggestion instead of being
silently dropped, and every validation message names the offending
layer.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.geo.continents import Continent
from repro.passive.clients import (
    ISP_PROFILE,
    IXP_EU_PROFILE,
    IXP_NA_PROFILE,
    PopulationProfile,
)
from repro.passive.querymix import QueryMixSpec
from repro.rss.sites import SITE_PLAN
from repro.util.timeutil import Timestamp, parse_ts
from repro.vantage.ring import RingConfig
from repro.vantage.scheduler import CAMPAIGN_END, CAMPAIGN_START


def reject_unknown_keys(
    layer: str, data: Mapping[str, Any], known: Sequence[str]
) -> None:
    """Strict-loading guard: fail on the first unknown key, with a
    "did you mean" hint against the layer's known keys."""
    for key in data:
        if key in known:
            continue
        close = difflib.get_close_matches(str(key), list(known), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"{layer}: unknown key {key!r}{hint} "
            f"(known keys: {', '.join(sorted(known))})"
        )


def _freeze_scales(layer: str, field_name: str, value: Any) -> Tuple[Tuple[str, float], ...]:
    """Normalise a {key: multiplier} mapping into sorted pairs."""
    if isinstance(value, Mapping):
        items = list(value.items())
    else:
        items = [tuple(pair) for pair in value]
    out: List[Tuple[str, float]] = []
    for key, scale in items:
        scale = float(scale)
        if scale < 0:
            raise ValueError(
                f"{layer}: {field_name}[{key!r}] must be >= 0, got {scale}"
            )
        out.append((str(key), scale))
    return tuple(sorted(out))


def _scales_dict(value: Tuple[Tuple[str, float], ...]) -> Dict[str, float]:
    return {key: scale for key, scale in value}


# --- world ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildoutStage:
    """One stage of a site build-out timeline.

    ``site_scale`` keys are ``"letter"`` or ``"letter/CONTINENT"``
    (continent by enum name, e.g. ``"f/ASIA"``); values multiply the
    letter's Table-4 (global, local) site counts from this stage on.
    Stages apply cumulatively — a later stage's keys override earlier
    stages' entries for the same key.
    """

    label: str
    start: str  # YYYY-MM-DD, documentation of when the wave lands
    site_scale: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("world spec: buildout stage needs a label")
        parse_ts(self.start)  # raises on malformed dates
        object.__setattr__(
            self,
            "site_scale",
            _freeze_scales("world spec", f"buildout[{self.label}].site_scale", self.site_scale),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "start": self.start,
            "site_scale": _scales_dict(self.site_scale),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BuildoutStage":
        reject_unknown_keys(
            "world spec (buildout stage)", data, [f.name for f in fields(cls)]
        )
        return cls(**data)


@dataclass(frozen=True)
class WorldSpec:
    """The world layer: VP ring shape and the site deployment plan."""

    ring_scale: float = 0.3
    ring_min_per_region: int = 4
    #: Per-continent VP multipliers (by enum name, e.g. ``"ASIA"``),
    #: applied on top of ``ring_scale``.
    region_scale: Tuple[Tuple[str, float], ...] = ()
    #: Per-letter (or per ``"letter/CONTINENT"``) site-count multipliers
    #: over the paper's Table 4 plan.
    site_scale: Tuple[Tuple[str, float], ...] = ()
    #: Ordered build-out stages; their ``site_scale`` entries stack
    #: cumulatively on top of :attr:`site_scale`.
    buildout: Tuple[BuildoutStage, ...] = ()
    #: How many build-out stages apply (-1 = all) — pinning earlier
    #: values replays the timeline as a sequence of campaigns.
    buildout_stage: int = -1

    def __post_init__(self) -> None:
        if self.ring_scale <= 0:
            raise ValueError(
                f"world spec: ring_scale must be positive: {self.ring_scale}"
            )
        if self.ring_min_per_region < 0:
            raise ValueError(
                f"world spec: ring_min_per_region must be >= 0: "
                f"{self.ring_min_per_region}"
            )
        object.__setattr__(
            self, "region_scale",
            _freeze_scales("world spec", "region_scale", self.region_scale),
        )
        continents = {c.name for c in Continent}
        for key, _scale in self.region_scale:
            if key not in continents:
                raise ValueError(
                    f"world spec: region_scale key {key!r} is not a "
                    f"continent name ({', '.join(sorted(continents))})"
                )
        object.__setattr__(
            self, "site_scale",
            _freeze_scales("world spec", "site_scale", self.site_scale),
        )
        stages = tuple(
            stage if isinstance(stage, BuildoutStage)
            else BuildoutStage.from_dict(stage)
            for stage in self.buildout
        )
        object.__setattr__(self, "buildout", stages)
        if not -1 <= self.buildout_stage <= len(stages):
            raise ValueError(
                f"world spec: buildout_stage must be -1 or 0..{len(stages)}: "
                f"{self.buildout_stage}"
            )
        for key, _scale in self._site_scales().items():
            self._split_scale_key(key)
        plan = self.site_plan()
        if plan is not None:
            for letter, per_continent in plan.items():
                if sum(g + l for g, l in per_continent.values()) < 1:
                    raise ValueError(
                        f"world spec: site scaling leaves {letter}.root "
                        f"with no sites"
                    )

    @staticmethod
    def _split_scale_key(key: str) -> Tuple[str, Optional[Continent]]:
        letter, _, continent = key.partition("/")
        if letter not in SITE_PLAN:
            raise ValueError(
                f"world spec: site_scale key {key!r} names unknown letter "
                f"{letter!r}"
            )
        if not continent:
            return letter, None
        try:
            return letter, Continent[continent]
        except KeyError:
            raise ValueError(
                f"world spec: site_scale key {key!r} names unknown "
                f"continent {continent!r}"
            ) from None

    def stages_applied(self) -> Tuple[BuildoutStage, ...]:
        """The build-out stages in effect under ``buildout_stage``."""
        if self.buildout_stage == -1:
            return self.buildout
        return self.buildout[: self.buildout_stage]

    def _site_scales(self) -> Dict[str, float]:
        """The effective site multipliers: base scales plus the applied
        stages, later stages overriding per key."""
        scales = _scales_dict(self.site_scale)
        for stage in self.stages_applied():
            scales.update(_scales_dict(stage.site_scale))
        return scales

    def site_plan(self) -> Optional[Dict[str, Dict[Continent, Tuple[int, int]]]]:
        """The scaled Table-4 site plan, or ``None`` when this spec
        keeps the default catalog (the byte-identity fast path)."""
        scales = self._site_scales()
        if not scales:
            return None
        per_key: Dict[Tuple[str, Optional[Continent]], float] = {
            self._split_scale_key(key): scale for key, scale in scales.items()
        }
        plan: Dict[str, Dict[Continent, Tuple[int, int]]] = {}
        for letter, per_continent in SITE_PLAN.items():
            scaled: Dict[Continent, Tuple[int, int]] = {}
            for continent, (n_global, n_local) in per_continent.items():
                scale = per_key.get(
                    (letter, continent), per_key.get((letter, None), 1.0)
                )
                scaled[continent] = (
                    int(round(n_global * scale)), int(round(n_local * scale))
                )
            plan[letter] = scaled
        return plan

    def cache_token(self) -> Tuple[Any, ...]:
        """The hashable part of this spec a built world depends on."""
        return (self.site_scale, self.buildout, self.buildout_stage)

    def ring_config(self, first_asn: int = 50000) -> RingConfig:
        return RingConfig(
            scale=self.ring_scale,
            first_asn=first_asn,
            min_per_region=self.ring_min_per_region,
            region_scale=self.region_scale,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ring_scale": self.ring_scale,
            "ring_min_per_region": self.ring_min_per_region,
            "region_scale": _scales_dict(self.region_scale),
            "site_scale": _scales_dict(self.site_scale),
            "buildout": [stage.to_dict() for stage in self.buildout],
            "buildout_stage": self.buildout_stage,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorldSpec":
        reject_unknown_keys("world spec", data, [f.name for f in fields(cls)])
        return cls(**data)


# --- platform ------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformSpec:
    """The measurement-platform layer: window, cadences, execution."""

    interval_scale: float = 12.0
    campaign_start: Timestamp = CAMPAIGN_START
    campaign_end: Timestamp = CAMPAIGN_END
    rtt_sample_every: int = 2
    traceroute_sample_every: int = 4
    axfr_sample_every: int = 8
    clean_transfer_keep_one_in: int = 2000
    shards: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        for attr in ("campaign_start", "campaign_end"):
            value = getattr(self, attr)
            if isinstance(value, str):
                object.__setattr__(self, attr, parse_ts(value))
        if self.interval_scale <= 0:
            raise ValueError(
                f"platform spec: interval_scale must be positive: "
                f"{self.interval_scale}"
            )
        if self.campaign_end <= self.campaign_start:
            raise ValueError(
                "platform spec: campaign_end must be after campaign_start"
            )
        for attr in (
            "rtt_sample_every",
            "traceroute_sample_every",
            "axfr_sample_every",
            "clean_transfer_keep_one_in",
            "shards",
            "workers",
        ):
            if getattr(self, attr) < 1:
                raise ValueError(
                    f"platform spec: {attr} must be >= 1: {getattr(self, attr)}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        reject_unknown_keys("platform spec", data, [f.name for f in fields(cls)])
        return cls(**data)


# --- traffic -------------------------------------------------------------------------

#: The capture-point profiles a traffic layer may override.
BASE_PROFILES: Dict[str, PopulationProfile] = {
    "isp": ISP_PROFILE,
    "ixp-eu": IXP_EU_PROFILE,
    "ixp-na": IXP_NA_PROFILE,
}


def _freeze_profiles(value: Any) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    if isinstance(value, Mapping):
        items = list(value.items())
    else:
        items = [(name, overrides) for name, overrides in value]
    out = []
    for name, overrides in items:
        if isinstance(overrides, Mapping):
            pairs = tuple(sorted(overrides.items()))
        else:
            pairs = tuple(sorted(tuple(pair) for pair in overrides))
        out.append((str(name), pairs))
    return tuple(sorted(out))


@dataclass(frozen=True)
class TrafficSpec:
    """The passive-traffic layer: population overrides and query mix."""

    #: Per-capture-point :class:`PopulationProfile` field overrides,
    #: e.g. ``{"isp": {"n_clients": 2000, "ipv6_share": 0.7}}``.
    profiles: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    #: Query-name composition synthesised through the passive flow
    #: engine (``None`` = no query-mix synthesis configured).
    querymix: Optional[QueryMixSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", _freeze_profiles(self.profiles))
        profile_fields = [
            f.name for f in fields(PopulationProfile) if f.name != "name"
        ]
        for name, overrides in self.profiles:
            if name not in BASE_PROFILES:
                raise ValueError(
                    f"traffic spec: unknown capture profile {name!r} "
                    f"(known: {', '.join(sorted(BASE_PROFILES))})"
                )
            reject_unknown_keys(
                f"traffic spec (profile {name!r})",
                dict(overrides),
                profile_fields,
            )
        if self.querymix is not None and not isinstance(self.querymix, QueryMixSpec):
            object.__setattr__(
                self, "querymix", QueryMixSpec.from_dict(self.querymix)
            )
        # Applying the overrides validates them through the profile's
        # own __post_init__ range checks.
        self.capture_profiles()

    def profile(self, name: str) -> PopulationProfile:
        """The effective profile for capture point *name*."""
        base = BASE_PROFILES[name]
        for profile_name, overrides in self.profiles:
            if profile_name == name and overrides:
                return replace(base, **dict(overrides))
        return base

    def capture_profiles(self) -> Dict[str, PopulationProfile]:
        """Every capture point's effective profile, by name."""
        return {name: self.profile(name) for name in BASE_PROFILES}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "profiles": {
                name: dict(overrides) for name, overrides in self.profiles
            },
            "querymix": None if self.querymix is None else self.querymix.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        reject_unknown_keys("traffic spec", data, [f.name for f in fields(cls)])
        return cls(**data)


# --- faults --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """The fault layer: which Table-2 fault classes run."""

    include_faults: bool = True
    bitflips: bool = True
    stale_sites: bool = True
    clock_skew: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            if not isinstance(getattr(self, f.name), bool):
                raise ValueError(
                    f"fault spec: {f.name} must be a boolean, got "
                    f"{getattr(self, f.name)!r}"
                )

    def apply(self, plan: FaultPlan) -> FaultPlan:
        """Filter a default fault plan down to the enabled classes."""
        if not self.include_faults:
            return FaultPlan()
        from repro.faults.clock import ClockSkewPlan

        return FaultPlan(
            bitflips=plan.bitflips if self.bitflips else (),
            stale_sites=plan.stale_sites if self.stale_sites else (),
            clocks=plan.clocks if self.clock_skew else ClockSkewPlan(),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        reject_unknown_keys("fault spec", data, [f.name for f in fields(cls)])
        return cls(**data)
