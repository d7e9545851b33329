"""The typed spec layers: round-trip identity and strict loading.

Every spec must survive ``to_dict -> from_dict`` unchanged (the
fingerprint normalises layer documents through exactly that round
trip), and every ``from_dict`` must reject unknown keys with a
"did you mean" hint naming the offending layer — the satellite-2
strict-loading contract.
"""

from __future__ import annotations

import pytest

from repro.passive.clients import ISP_PROFILE
from repro.passive.querymix import QueryBurst, QueryMixSpec
from repro.scenarios.specs import (
    BuildoutStage,
    FaultSpec,
    PlatformSpec,
    TrafficSpec,
    WorldSpec,
    reject_unknown_keys,
)


SPEC_SAMPLES = [
    WorldSpec(),
    WorldSpec(
        ring_scale=0.5,
        ring_min_per_region=2,
        region_scale={"ASIA": 1.6, "OCEANIA": 1.5},
        site_scale={"f": 0.8},
        buildout=(
            BuildoutStage("wave-1", "2023-06-01", {"f/ASIA": 0.7}),
            BuildoutStage("wave-2", "2023-11-01", {"f/ASIA": 1.0}),
        ),
        buildout_stage=1,
    ),
    PlatformSpec(),
    PlatformSpec(interval_scale=1.0, rtt_sample_every=8, shards=2),
    TrafficSpec(),
    TrafficSpec(
        profiles={"isp": {"n_clients": 4000}},
        querymix=QueryMixSpec(
            zipf_alpha=1.1,
            bursts=(QueryBurst("2024-02-12", "2024-02-15", 3.0, "junk"),),
        ),
    ),
    FaultSpec(),
    FaultSpec(include_faults=True, bitflips=False, clock_skew=False),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec", SPEC_SAMPLES, ids=lambda s: type(s).__name__
    )
    def test_to_dict_from_dict_identity(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "spec", SPEC_SAMPLES, ids=lambda s: type(s).__name__
    )
    def test_double_round_trip_is_stable(self, spec):
        once = type(spec).from_dict(spec.to_dict())
        assert once.to_dict() == spec.to_dict()

    def test_buildout_stages_accepted_as_dicts(self):
        spec = WorldSpec.from_dict(
            {
                "buildout": [
                    {"label": "w", "start": "2023-06-01",
                     "site_scale": {"f": 0.5}}
                ]
            }
        )
        assert spec.buildout[0] == BuildoutStage(
            "w", "2023-06-01", {"f": 0.5}
        )


class TestStrictLoading:
    def test_did_you_mean_on_typoed_key(self):
        with pytest.raises(ValueError) as err:
            WorldSpec.from_dict({"ring_scal": 0.5})
        message = str(err.value)
        assert "world spec" in message
        assert "unknown key 'ring_scal'" in message
        assert "did you mean 'ring_scale'" in message

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(ValueError, match="known keys:.*include_faults"):
            FaultSpec.from_dict({"totally_unknown": True})

    @pytest.mark.parametrize(
        "cls,bad_key",
        [
            (WorldSpec, "ring_sizes"),
            (PlatformSpec, "interval_scales"),
            (TrafficSpec, "profile"),
            (FaultSpec, "bitflip"),
        ],
    )
    def test_every_layer_rejects_unknown_keys(self, cls, bad_key):
        with pytest.raises(ValueError, match="unknown key"):
            cls.from_dict({bad_key: 1})

    def test_reject_unknown_keys_names_the_layer(self):
        with pytest.raises(ValueError, match="my layer: unknown key 'z'"):
            reject_unknown_keys("my layer", {"a": 1, "z": 2}, ["a", "b"])

    def test_traffic_profile_overrides_are_strict(self):
        with pytest.raises(ValueError) as err:
            TrafficSpec(profiles={"isp": {"n_client": 4000}})
        assert "did you mean 'n_clients'" in str(err.value)

    def test_unknown_capture_point_rejected(self):
        with pytest.raises(ValueError, match="unknown capture profile"):
            TrafficSpec(profiles={"cdn": {"n_clients": 10}})


class TestValidationNamesTheLayer:
    def test_world_ring_scale(self):
        with pytest.raises(ValueError, match="world spec: ring_scale"):
            WorldSpec(ring_scale=0.0)

    def test_world_unknown_continent(self):
        with pytest.raises(ValueError, match="world spec: region_scale key"):
            WorldSpec(region_scale={"ATLANTIS": 2.0})

    def test_world_unknown_letter(self):
        with pytest.raises(ValueError, match="world spec: site_scale key"):
            WorldSpec(site_scale={"z": 1.0})

    def test_world_scaling_to_zero_sites(self):
        with pytest.raises(ValueError, match="world spec: .*no sites"):
            WorldSpec(site_scale={"f": 0.0})

    def test_world_buildout_stage_range(self):
        with pytest.raises(ValueError, match="world spec: buildout_stage"):
            WorldSpec(buildout_stage=3)

    def test_platform_interval_scale(self):
        with pytest.raises(ValueError, match="platform spec: interval_scale"):
            PlatformSpec(interval_scale=-1.0)

    def test_platform_window_order(self):
        with pytest.raises(ValueError, match="platform spec: campaign_end"):
            PlatformSpec(
                campaign_start="2023-11-30", campaign_end="2023-11-25"
            )

    def test_platform_engine(self):
        # one campaign engine: "engine" is no longer a platform key
        with pytest.raises(ValueError, match="platform spec: unknown key 'engine'"):
            PlatformSpec.from_dict({"engine": "epoch"})

    def test_fault_flags_must_be_boolean(self):
        with pytest.raises(ValueError, match="fault spec: bitflips"):
            FaultSpec(bitflips=1)


class TestSpecBehaviour:
    def test_effective_profile_applies_overrides(self):
        spec = TrafficSpec(profiles={"isp": {"n_clients": 4000}})
        assert spec.profile("isp").n_clients == 4000
        assert spec.profile("isp").ipv6_share == ISP_PROFILE.ipv6_share
        assert spec.profile("ixp-eu").n_clients > 0

    def test_default_world_has_no_site_plan(self):
        # None is the byte-identity fast path: the default catalog is
        # built from SITE_PLAN itself, untouched.
        assert WorldSpec().site_plan() is None

    def test_buildout_stages_stack_cumulatively(self):
        spec = WorldSpec(
            buildout=(
                BuildoutStage("a", "2023-01-01", {"f": 0.5, "k": 0.5}),
                BuildoutStage("b", "2023-06-01", {"f": 1.0}),
            ),
        )
        assert spec._site_scales() == {"f": 1.0, "k": 0.5}
        pinned = WorldSpec(buildout=spec.buildout, buildout_stage=1)
        assert pinned._site_scales() == {"f": 0.5, "k": 0.5}

    def test_fault_spec_apply_filters_classes(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan()
        assert FaultSpec(include_faults=False).apply(plan) == FaultPlan()
