"""The paper preset builds a world at the paper's magnitudes.

A smoke check, not a simulation run: world + platform construction at
``ring_scale=1.0`` is fast, and the resulting VP ring and site catalog
must land in the ballpark the paper reports (675 VPs; §3 describes
~1 750 root sites across the 13 letters).
"""

from repro.core import StudyConfig
from repro.core.pipeline import build_platform, build_world
from repro.rss.operators import ROOT_LETTERS, all_service_addresses


class TestPaperPreset:
    def test_paper_is_paper_scale(self):
        # paper() now materialises the registered "paper" scenario; the
        # knobs still equal the paper_scale preset exactly, plus the
        # scenario provenance stamp.
        assert StudyConfig.paper().without_scenario() == StudyConfig.paper_scale()
        assert StudyConfig.paper().scenario_name == "paper"
        assert StudyConfig.paper(seed=7).seed == 7
        assert StudyConfig.paper().ring_scale == 1.0

    def test_world_and_platform_magnitudes(self):
        config = StudyConfig.paper()
        world = build_world(config, reuse=False)
        platform = build_platform(config, world)

        assert len(platform.vps) == 675  # the paper's VP count

        sites = sum(
            len(world.catalog.of_letter(letter)) for letter in ROOT_LETTERS
        )
        # Paper ballpark (~1 750 sites); the synthetic catalog sits in
        # the same magnitude.
        assert 1200 <= sites <= 2200

        # 174 days at 30-minute rounds ~ 8.3k rounds; all 28 service
        # addresses (13 letters dual-stack + b.root's old/new pairs).
        assert platform.schedule.round_count() > 8000
        addresses = all_service_addresses()
        assert len(addresses) == 28
