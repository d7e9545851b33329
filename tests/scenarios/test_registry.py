"""The scenario registry: composition, identity, and the facade bridge.

The contracts under test: ``compose`` folds overlays deterministically;
the fingerprint identifies scenario *content* (stable under execution
knobs and seed, sensitive to layer changes and overlays); and
``study_config`` materialises the default scenario into exactly the
hand-built ``StudyConfig()`` — the refactor's byte-identity anchor.
"""

from __future__ import annotations

import json

import pytest

from repro.core import StudyConfig
from repro.scenarios import (
    Overlay,
    Scenario,
    compose,
    get_overlay,
    get_scenario,
    overlay_names,
    register_overlay,
    register_scenario,
    scenario_names,
)


class TestRegistry:
    def test_shipped_packs_are_registered(self):
        assert scenario_names() == [
            "broot-querymix", "default", "froot-sea", "paper",
        ]
        assert overlay_names() == [
            "froot-sea-stage1", "froot-sea-stage2", "no-faults",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario(name="default"))
        with pytest.raises(ValueError, match="already registered"):
            register_overlay(Overlay(name="no-faults"))

    def test_unknown_names_list_the_registry(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="unknown overlay 'nope'"):
            get_overlay("nope")


class TestComposition:
    def test_overlay_folds_onto_world_layer(self):
        base = compose("froot-sea")
        staged = compose("froot-sea", ["froot-sea-stage1"])
        assert base.world.get("buildout_stage") is None
        assert staged.world["buildout_stage"] == 1
        assert staged.overlays == ("froot-sea-stage1",)
        # untouched layer keys survive the fold
        assert staged.world["region_scale"] == base.world["region_scale"]

    def test_later_overlay_wins(self):
        composed = compose(
            "froot-sea", ["froot-sea-stage1", "froot-sea-stage2"]
        )
        assert composed.world["buildout_stage"] == 2
        assert composed.overlays == ("froot-sea-stage1", "froot-sea-stage2")

    def test_no_faults_overlay_disables_fault_injection(self):
        config = compose("default", ["no-faults"]).study_config()
        assert config.include_faults is False

    def test_overlay_strictness_is_key_level(self):
        with pytest.raises(ValueError, match="overlay 'typo'.*unknown key"):
            Overlay(name="typo", world={"ring_scal": 1.0})


class TestFingerprint:
    def test_stable_and_content_addressed(self):
        a = compose("default").fingerprint()
        b = compose("default").fingerprint()
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0
        # distinct content, distinct fingerprint
        names = ["default", "paper", "froot-sea", "broot-querymix"]
        prints = {name: compose(name).fingerprint() for name in names}
        assert len(set(prints.values())) == len(names)

    def test_overlays_change_the_fingerprint(self):
        assert (
            compose("froot-sea").fingerprint()
            != compose("froot-sea", ["froot-sea-stage1"]).fingerprint()
        )

    def test_execution_knobs_and_seed_do_not(self):
        scenario = compose("default")
        base = scenario.fingerprint()
        sharded = Scenario(
            name=scenario.name,
            description=scenario.description,
            platform={"shards": 4, "workers": 4},
            analyses=scenario.analyses,
        )
        assert sharded.fingerprint() == base
        # seed is a study_config argument, never part of the layers
        assert scenario.study_config(seed=1).scenario_fingerprint == base
        assert scenario.study_config(seed=2).scenario_fingerprint == base

    def test_equivalent_spellings_normalise_identically(self):
        # int vs float scale, mapping vs pair-list: same normalised doc
        a = Scenario(name="x", world={"site_scale": {"f": 1}})
        b = Scenario(name="x", world={"site_scale": [("f", 1.0)]})
        assert a.fingerprint() == b.fingerprint()

    def test_identity_stamp_shape(self):
        identity = compose("froot-sea", ["froot-sea-stage1"]).identity()
        assert identity == {
            "name": "froot-sea",
            "version": 1,
            "overlays": ["froot-sea-stage1"],
            "fingerprint": identity["fingerprint"],
        }


class TestStudyConfigBridge:
    def test_default_scenario_equals_hand_built_config(self):
        config = compose("default").study_config()
        assert config.without_scenario() == StudyConfig()
        assert config.scenario_name == "default"

    def test_paper_scenario_equals_paper_scale_preset(self):
        config = compose("paper").study_config(seed=5)
        assert config.without_scenario() == StudyConfig.paper_scale(seed=5)
        assert StudyConfig.paper(seed=5) == config

    def test_extras_stay_none_for_default(self):
        config = compose("default").study_config()
        assert config.world is None
        assert config.traffic is None
        assert config.faults is None

    def test_execution_overrides_apply_without_fingerprint_change(self):
        scenario = compose("default")
        config = scenario.study_config(shards=2, workers=2)
        assert (config.shards, config.workers) == (2, 2)
        assert config.scenario_fingerprint == scenario.fingerprint()

    def test_unknown_execution_override_rejected(self):
        with pytest.raises(ValueError, match="execution overrides"):
            compose("default").study_config(shard=2)
        # one campaign engine: "engine" is neither an override nor a
        # platform-layer key
        with pytest.raises(ValueError, match="unknown key 'engine'"):
            compose("default").study_config(engine="epoch")
        with pytest.raises(ValueError, match="platform spec: unknown key 'engine'"):
            Scenario(name="x", platform={"engine": "epoch"}).fingerprint()

    def test_config_round_trips_through_json(self):
        config = compose("froot-sea", ["froot-sea-stage1"]).study_config()
        from dataclasses import asdict

        thawed = StudyConfig.from_dict(
            json.loads(json.dumps(asdict(config)))
        )
        assert thawed == config

    def test_scenario_round_trips_through_dict(self):
        scenario = compose("broot-querymix")
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert (
            Scenario.from_dict(scenario.to_dict()).fingerprint()
            == scenario.fingerprint()
        )

    def test_strict_config_from_dict_did_you_mean(self):
        with pytest.raises(ValueError) as err:
            StudyConfig.from_dict({"sed": 7})
        assert "did you mean 'seed'" in str(err.value)
