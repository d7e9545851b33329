"""The columnar candidate table equals the scalar route oracle.

``RouteSelector.table`` ranks every key's candidates in array passes;
``tests/netsim/scalar_routes.py`` builds them one ``Route`` at a time.
On every (attachment, letter, family) key of the tiny and fault-window
campaigns the two must agree exactly: order, site, via, transit, entry
PoP, path and direct distance, hop count, congestion and stable key.
"""

import pytest

from repro.core.pipeline import build_platform, build_world
from repro.geo.cities import CITY_CATALOG
from repro.geo.coords import haversine_km, nearest
from repro.netsim.routing import LETTERS, VIA
from repro.netsim.transit import TRANSIT_CATALOG
from tests.netsim.scalar_routes import ScalarRoutes
from tests.vantage.test_collector_merge import tiny_config
from tests.vantage.test_epoch_engine import fault_window_config


@pytest.fixture(
    scope="module", params=[tiny_config, fault_window_config], ids=["tiny", "fault-window"]
)
def campaign(request):
    config = request.param()
    platform = build_platform(config, build_world(config))
    keys = [
        (vp.attachment, letter, family)
        for vp in platform.vps
        for letter in LETTERS
        for family in (4, 6)
    ]
    return platform, keys, ScalarRoutes(platform.prober.fabric)


def test_table_matches_scalar_oracle(campaign):
    platform, keys, oracle = campaign
    selector = platform.selector
    table = selector.table(keys)
    assert len(table.ptr) == len(keys) + 1
    rows_checked = 0
    for k, (att, letter, family) in enumerate(keys):
        want = oracle.candidates(att, letter, family)
        rows = slice(int(table.ptr[k]), int(table.ptr[k + 1]))
        assert [selector.sites[s].key for s in table.site[rows]] == [
            r.site.key for r in want
        ]
        assert [VIA[v] for v in table.via[rows]] == [r.via for r in want]
        assert table.transit[rows].tolist() == [
            0 if r.transit is None else r.transit.asn for r in want
        ]
        assert table.path_km[rows].tolist() == [r.path_km for r in want]
        assert table.direct_km[rows].tolist() == [r.direct_km for r in want]
        assert table.hop_count[rows].tolist() == [r.hop_count for r in want]
        assert table.extra_ms[rows].tolist() == [r.extra_ms for r in want]
        assert table.stable_key[rows].tolist() == [r.stable_key for r in want]
        # Every Route field, entry PoP, facility and AS path included.
        assert table.routes(k) == want
        rows_checked += len(want)
    assert rows_checked == int(table.ptr[-1]) > len(keys)


def test_single_key_path_matches_scalar_oracle(campaign):
    """``candidates`` (one key per table, as the per-request paths and
    ``best`` use it) gives the oracle's routes too."""
    platform, keys, oracle = campaign
    selector = platform.selector
    for att, letter, family in keys[:: max(1, len(keys) // 200)]:
        assert selector.candidates(att, letter, family) == oracle.candidates(
            att, letter, family
        )
        assert selector.best(att, letter, family) == oracle.candidates(
            att, letter, family
        )[0]


def test_closest_global_km_matches_scalar_min(campaign):
    platform, keys, oracle = campaign
    got = platform.selector.closest_global_km(
        [att.city for att, _letter, _family in keys],
        [letter for _att, letter, _family in keys],
    )
    assert got.tolist() == [
        oracle.closest_global_km(att.city, letter) for att, letter, _family in keys
    ]


def test_nearest_picks_the_scalar_minimum():
    """``nearest`` prunes with a numpy haversine but picks and measures
    with the scalar one: the first minimal target, its exact distance."""
    cities = list(CITY_CATALOG.values())
    origins = [c.location for c in cities]
    for transit in TRANSIT_CATALOG:
        pops = [p.location for p in transit.pops]
        index, km = nearest(origins, pops)
        for origin, i, d in zip(origins, index, km):
            scalar = [haversine_km(origin, p) for p in pops]
            assert i == scalar.index(min(scalar))
            assert d == min(scalar)
            assert nearest([origin], pops) == ([i], [d])  # no numpy pass
        assert [p.iata for p in transit.nearest_pops(cities)] == [
            min(transit.pops, key=lambda p: haversine_km(c.location, p.location)).iata
            for c in cities
        ]
    # Ties go to the first target, like min().
    assert nearest([origins[0]], [origins[1], origins[0], origins[0]])[0] == [1]


def test_no_keys_compile_to_an_empty_table(campaign):
    """A shard with no VPs (more shards than VPs) compiles no keys."""
    platform, _keys, _oracle = campaign
    table = platform.selector.table([])
    assert table.ptr.tolist() == [0]
    assert len(table.site) == len(table.stable_key) == 0
