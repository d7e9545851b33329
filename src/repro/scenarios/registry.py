"""Named, versioned scenario registry.

A :class:`Scenario` is a stack of layer documents — plain JSON-ready
dicts written in the vocabulary of the typed specs
(:mod:`repro.scenarios.specs`): a ``world`` doc, a ``platform`` doc, a
``traffic`` doc and a ``faults`` doc.  An :class:`Overlay` is a partial
stack that :func:`compose` folds onto a registered scenario with the
deterministic deep-merge (:mod:`repro.scenarios.merge`), in the order
given on the command line.

Identity: every composed scenario has a content :meth:`fingerprint` —
a truncated SHA-256 over the canonical JSON of its *normalised* layers
(specs round-tripped through ``to_dict`` so equivalent spellings hash
identically).  The fingerprint deliberately excludes the seed and the
execution knobs (shards / workers): the same scenario run sharded or
serial produces byte-identical data, so those must not change what the
data claims to be.  The identity dict
(``{"name", "version", "fingerprint", "overlays"}``) is stamped into
the :class:`~repro.core.config.StudyConfig` a scenario builds and flows
from there into ``MANIFEST.json`` and ``CHECKPOINT.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.scenarios.merge import deep_merge
from repro.scenarios.specs import (
    FaultSpec,
    PlatformSpec,
    TrafficSpec,
    WorldSpec,
    reject_unknown_keys,
)

#: Layer doc names, in canonical order.
LAYERS: Tuple[str, ...] = ("world", "platform", "traffic", "faults")

#: The world-doc keys that live as flat ``StudyConfig`` fields; the
#: rest travel in the config's ``world`` extras mapping.
_WORLD_FLAT = ("ring_scale", "ring_min_per_region")

#: Execution knobs callers may override per run without changing what
#: scenario the data belongs to (excluded from the fingerprint).
EXECUTION_KNOBS = ("shards", "workers")


def _spec_for(layer: str, doc: Mapping[str, Any]):
    cls = {
        "world": WorldSpec,
        "platform": PlatformSpec,
        "traffic": TrafficSpec,
        "faults": FaultSpec,
    }[layer]
    return cls.from_dict(doc)


@dataclass(frozen=True)
class Overlay:
    """A partial layer stack folded onto a scenario at compose time."""

    name: str
    description: str = ""
    world: Mapping[str, Any] = field(default_factory=dict)
    platform: Mapping[str, Any] = field(default_factory=dict)
    traffic: Mapping[str, Any] = field(default_factory=dict)
    faults: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("overlay needs a name")
        # Key-level strictness only: a partial doc need not stand alone
        # as a valid spec (e.g. an overlay pinning buildout_stage), so
        # full validation waits until compose() merges the stack.
        spec_classes = {
            "world": WorldSpec,
            "platform": PlatformSpec,
            "traffic": TrafficSpec,
            "faults": FaultSpec,
        }
        for layer in LAYERS:
            reject_unknown_keys(
                f"overlay {self.name!r} ({layer} layer)",
                getattr(self, layer),
                [f.name for f in fields(spec_classes[layer])],
            )


@dataclass(frozen=True)
class Scenario:
    """A named, versioned stack of layer documents."""

    name: str
    version: int = 1
    description: str = ""
    world: Mapping[str, Any] = field(default_factory=dict)
    platform: Mapping[str, Any] = field(default_factory=dict)
    traffic: Mapping[str, Any] = field(default_factory=dict)
    faults: Mapping[str, Any] = field(default_factory=dict)
    #: Overlay names this scenario was composed with (in order).
    overlays: Tuple[str, ...] = ()
    #: Registered analyses that headline this scenario — what the CI
    #: smoke run (and ``rootsim-report --scenario``) exercises.
    analyses: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.version < 1:
            raise ValueError(
                f"scenario {self.name!r}: version must be >= 1: {self.version}"
            )
        object.__setattr__(self, "overlays", tuple(self.overlays))
        object.__setattr__(self, "analyses", tuple(self.analyses))
        # Constructing the typed specs validates every layer doc (strict
        # keys, ranges, cross-field invariants) with layer-named errors.
        for layer in LAYERS:
            _spec_for(layer, getattr(self, layer))

    # -- identity ----------------------------------------------------------------------

    def normalized_layers(self) -> Dict[str, Dict[str, Any]]:
        """Every layer doc round-tripped through its typed spec, so
        equivalent spellings normalise to identical dicts."""
        return {
            layer: _spec_for(layer, getattr(self, layer)).to_dict()
            for layer in LAYERS
        }

    def fingerprint(self) -> str:
        """Content hash of the composed scenario (seed- and
        execution-independent)."""
        layers = self.normalized_layers()
        for knob in EXECUTION_KNOBS:
            layers["platform"].pop(knob, None)
        doc = {"name": self.name, "version": self.version, "layers": layers}
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def identity(self) -> Dict[str, Any]:
        """The provenance stamp carried into manifests/checkpoints."""
        return {
            "name": self.name,
            "version": self.version,
            "overlays": list(self.overlays),
            "fingerprint": self.fingerprint(),
        }

    # -- composition -------------------------------------------------------------------

    def with_overlay(self, overlay: Overlay) -> "Scenario":
        """This scenario with *overlay*'s partial docs folded on."""
        return Scenario(
            name=self.name,
            version=self.version,
            description=self.description,
            world=deep_merge(self.world, overlay.world),
            platform=deep_merge(self.platform, overlay.platform),
            traffic=deep_merge(self.traffic, overlay.traffic),
            faults=deep_merge(self.faults, overlay.faults),
            overlays=self.overlays + (overlay.name,),
            analyses=self.analyses,
        )

    def study_config(self, seed: int = 2024, **execution: Any) -> StudyConfig:
        """Materialise the composed layers into a flat
        :class:`StudyConfig`, stamped with this scenario's identity.

        ``execution`` may override the per-run knobs (``shards``,
        ``workers``) without touching the fingerprint.
        """
        reject_unknown_keys(
            f"scenario {self.name!r} execution overrides",
            execution,
            list(EXECUTION_KNOBS),
        )
        platform_doc = dict(self.platform)
        platform_doc.update(execution)
        world_spec = WorldSpec.from_dict(self.world)
        platform_spec = PlatformSpec.from_dict(platform_doc)
        fault_spec = FaultSpec.from_dict(self.faults)
        world_norm = world_spec.to_dict()
        traffic_norm = TrafficSpec.from_dict(self.traffic).to_dict()
        # Only keys a layer doc actually sets travel in the extras
        # mappings — the default scenario keeps them None, so its
        # StudyConfig equals a hand-built StudyConfig() exactly.
        world_extra = {
            key: world_norm[key] for key in self.world if key not in _WORLD_FLAT
        }
        traffic_extra = {key: traffic_norm[key] for key in self.traffic}
        fault_extra = {
            key: getattr(fault_spec, key)
            for key in self.faults
            if key != "include_faults"
        }
        return StudyConfig(
            seed=seed,
            ring_scale=world_spec.ring_scale,
            ring_min_per_region=world_spec.ring_min_per_region,
            interval_scale=platform_spec.interval_scale,
            campaign_start=platform_spec.campaign_start,
            campaign_end=platform_spec.campaign_end,
            rtt_sample_every=platform_spec.rtt_sample_every,
            traceroute_sample_every=platform_spec.traceroute_sample_every,
            axfr_sample_every=platform_spec.axfr_sample_every,
            clean_transfer_keep_one_in=platform_spec.clean_transfer_keep_one_in,
            include_faults=fault_spec.include_faults,
            shards=platform_spec.shards,
            workers=platform_spec.workers,
            world=world_extra or None,
            traffic=traffic_extra or None,
            faults=fault_extra or None,
            scenario=self.identity(),
        )

    # -- serialization -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "description": self.description,
            "world": dict(self.world),
            "platform": dict(self.platform),
            "traffic": dict(self.traffic),
            "faults": dict(self.faults),
            "overlays": list(self.overlays),
            "analyses": list(self.analyses),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        reject_unknown_keys("scenario", data, [f.name for f in fields(cls)])
        return cls(**dict(data))


# --- the registry --------------------------------------------------------------------

_SCENARIOS: Dict[str, Scenario] = {}
_OVERLAYS: Dict[str, Overlay] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry (its name must be free)."""
    if scenario.name in _SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def register_overlay(overlay: Overlay) -> Overlay:
    """Add *overlay* to the registry (its name must be free)."""
    if overlay.name in _OVERLAYS:
        raise ValueError(f"overlay {overlay.name!r} is already registered")
    _OVERLAYS[overlay.name] = overlay
    return overlay


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def overlay_names() -> List[str]:
    """All registered overlay names, sorted."""
    return sorted(_OVERLAYS)


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} "
            f"(registered: {', '.join(scenario_names()) or 'none'})"
        ) from None


def get_overlay(name: str) -> Overlay:
    try:
        return _OVERLAYS[name]
    except KeyError:
        raise KeyError(
            f"unknown overlay {name!r} "
            f"(registered: {', '.join(overlay_names()) or 'none'})"
        ) from None


def compose(name: str, overlays: Sequence[str] = ()) -> Scenario:
    """The registered scenario *name* with *overlays* folded on, in
    order.  The result is fully validated — a stack whose merge would
    change a key's category, or whose merged docs violate a spec
    invariant, raises here rather than mid-campaign."""
    scenario = get_scenario(name)
    for overlay_name in overlays:
        scenario = scenario.with_overlay(get_overlay(overlay_name))
    return scenario
