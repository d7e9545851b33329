"""The stacked capture group: one region's exchanges in one grid.

:func:`repro.passive.flow_engine.capture_group` evaluates a region's
exchanges stacked on the client axis and folds the regional merge into
the same call.  It must equal the scalar oracle's exchange-order fold
and :func:`~repro.passive.traces.merge_captures` over the single
captures, byte for byte, at every client-block width — including widths
that split an exchange's clients or fall on the boundary — and for
groups it cannot stack.  The left-to-right sums it relies on are pinned
against a Python fold here too, so a numpy change that regroups them
fails a test instead of moving the digests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.continents import Continent
from repro.netsim.facilities import IXP_CATALOG, PASSIVE_IXP_IDS
from repro.passive import clients as clients_module
from repro.passive import ixp as ixp_module
from repro.passive import recipes
from repro.passive.flow_engine import (
    _fold,
    capture_group,
    capture_with_membership,
)
from repro.passive.isp import IspCapture
from repro.passive.ixp import build_ixp_captures
from repro.passive.traces import merge_captures
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, parse_ts

from tests.passive.scalar_capture import ScalarAggregate, expand, scalar_capture
from tests.passive.test_flow_engine import assert_identical

SEED = 42
WINDOW = (parse_ts("2023-12-08"), parse_ts("2023-12-12"))
REGIONS = (Continent.EUROPE, Continent.NORTH_AMERICA)


def oracle_fold(engines) -> ScalarAggregate:
    """The scalar oracle's regional view: each exchange cell by cell,
    folded in exchange order."""
    fold = ScalarAggregate(DAY)
    for engine in engines:
        fold.merge_from(scalar_capture(engine, *WINDOW))
    return fold


def merged_singles(engines, client_block=None):
    """The regional merge over each exchange captured on its own."""
    return merge_captures(
        DAY,
        [
            capture_with_membership(engine, *WINDOW, DAY, client_block)
            for engine in engines
        ],
    )


@pytest.fixture(scope="module")
def regions():
    """Per region: its exchange capture points (120 clients each, as at
    report scale) and the oracle's fold over them."""
    captures = build_ixp_captures(
        RngFactory(SEED).fork("ixp"), seed=SEED, clients_per_ixp=120
    )
    out = {}
    for region in REGIONS:
        engines = [c.engine for c in captures if c.region is region]
        out[region] = (engines, oracle_fold(engines))
    return out


class TestStackedRegions:
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.name)
    @pytest.mark.parametrize("block", [1, 41, 119, 120, 121])
    def test_block_widths_match_oracle_and_merge(self, regions, region, block):
        engines, fold = regions[region]
        stacked = capture_group(engines, *WINDOW, DAY, client_block=block)
        assert_identical(fold, stacked)
        default = capture_group(engines, *WINDOW, DAY)
        assert expand(stacked) == expand(default)
        assert expand(stacked) == expand(merged_singles(engines, block))
        assert list(stacked.prefixes) == list(default.prefixes)

    def test_uneven_exchanges_pad_with_idle_clients(self, regions):
        """Members of different sizes stack padded to the largest."""
        engines = [
            rebuilt(engine, clients=engine.clients[:size])
            for engine, size in zip(regions[Continent.EUROPE][0], (120, 7, 64, 1))
        ]
        fold = oracle_fold(engines)
        for block in (None, 5, 64):
            assert_identical(fold, capture_group(engines, *WINDOW, DAY, block))

    @pytest.mark.parametrize("case", ["rates", "prefixes"])
    def test_unstackable_group_raises(self, regions, case):
        """Members that differ in a capture parameter, or whose prefixes
        do not line up by client index, are not one group."""
        engines = list(regions[Continent.NORTH_AMERICA][0][:3])
        if case == "rates":
            engines[1] = rebuilt(engines[1], sampling_rate=0.5)
        else:
            engines[1] = rebuilt(engines[1], clients=engines[1].clients[::-1])
        with pytest.raises(ValueError, match="capture group"):
            capture_group(engines, *WINDOW, DAY)

    def test_empty_group(self):
        assert capture_group([], *WINDOW, DAY).buckets() == []


def rebuilt(engine: IspCapture, **changes) -> IspCapture:
    """*engine*'s capture point with some constructor arguments changed."""
    kwargs = {
        "clients": engine.clients,
        "seed": engine.seed,
        "sampling_rate": engine.sampling_rate,
        "letter_weights": engine.letter_weights,
    }
    return IspCapture(**(kwargs | changes))


class TestLeftToRightSums:
    """The kernel's sums are ``np.add.reduce`` along the outer axis of
    a C-contiguous grid; numpy adds whole rows in order there."""

    @staticmethod
    def values(shape):
        rng = np.random.default_rng(7)
        return rng.lognormal(0.0, 3.0, size=shape) * rng.choice(
            [1e-9, 1.0, 1e9], size=shape
        )

    @staticmethod
    def python_fold(grid):
        total = np.zeros(grid.shape[1:])
        for row in grid:
            total = total + row
        return total

    def test_pairwise_differs_on_these_values(self):
        """Precondition: on one column numpy sums pairwise, and that
        gives other bits than the fold — so the pins below can fail."""
        column = self.values((257, 1))
        assert not np.array_equal(
            np.add.reduce(column, axis=0), self.python_fold(column)
        )

    @pytest.mark.parametrize(
        "shape", [(257, 2), (257, 3), (257, 28, 1), (121, 21, 8), (2, 8), (257, 1, 2)]
    )
    def test_outer_axis_reduce_is_the_fold(self, shape):
        grid = self.values(shape)
        assert np.array_equal(np.add.reduce(grid, axis=0), self.python_fold(grid))

    @pytest.mark.parametrize("shape", [(257, 1), (257, 1, 1), (1, 1), (257, 4)])
    def test_kernel_fold_is_the_fold(self, shape):
        grid = self.values(shape)
        assert np.array_equal(_fold(grid), self.python_fold(grid))


class TestRegionRecipe:
    @pytest.mark.parametrize(
        "name,region",
        [("ixp-eu", Continent.EUROPE), ("ixp-na", Continent.NORTH_AMERICA)],
    )
    def test_region_builds_only_its_exchanges(self, monkeypatch, name, region):
        built = []
        real = ixp_module.build_client_population

        def counted(profile, rng_factory, *args, **kwargs):
            built.append(profile.name.split(".", 1)[1])
            return real(profile, rng_factory, *args, **kwargs)

        monkeypatch.setattr(ixp_module, "build_client_population", counted)
        recipes.build_capture(name, SEED)
        regional = {ixp.ixp_id for ixp in IXP_CATALOG if ixp.continent is region}
        assert built == [ixp_id for ixp_id in PASSIVE_IXP_IDS if ixp_id in regional]

    def test_region_populations_match_the_full_build(self):
        """Each exchange draws from its own named stream, so building
        one region leaves every population byte-identical."""
        clients_module.clear_population_cache()
        full = {c.ixp.ixp_id: c.engine.clients for c in recipes.ixp_captures(SEED)}
        for region in REGIONS:
            clients_module.clear_population_cache()
            members = recipes.ixp_captures(SEED, region=region)
            assert {c.region for c in members} == {region}
            for capture in members:
                assert capture.engine.clients is not full[capture.ixp.ixp_id]
                assert capture.engine.clients == full[capture.ixp.ixp_id]
