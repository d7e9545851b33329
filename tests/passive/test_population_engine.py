"""The paper-scale population engine and the widened address plan.

Two contracts: (1) `client_prefix_v4`/`client_prefix_v6` stay unique out
to 10⁶ clients and byte-compatible with the historical strings below
id 65 536 (the old plan silently collided v4 /24s and emitted invalid
v6 groups there); (2) `compile_population`'s vectorized kernels are
byte-identical to the scalar golden reference, `build_population_clients`
compiled through `ClientColumns.from_clients`, for every profile shape,
and captures over a columns-only population match captures over the
reference client list.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.passive.clients import (
    ISP_PROFILE,
    IXP_NA_PROFILE,
    MAX_CLIENTS,
    client_prefix_v4,
    client_prefix_v6,
)
from repro.passive.flow_engine import ClientColumns
from repro.passive.isp import IspCapture
from repro.passive.population_engine import (
    build_population_clients,
    compile_population,
)
from repro.util.timeutil import parse_ts

SEED = 2024


class TestAddressPlan:
    def test_first_block_matches_historical_strings(self):
        """Ids below 2**16 must keep the exact old prefixes — cache keys
        and golden captures depend on them."""
        for client_id in (0, 1, 255, 256, 4095, 65535):
            assert client_prefix_v4(client_id) == (
                f"203.{(client_id >> 8) & 0xFF}.{client_id & 0xFF}.0/24"
            )
            assert client_prefix_v6(client_id) == f"2001:4d0:{client_id:x}::/48"

    def test_old_plan_collision_is_fixed(self):
        """Id 65 536 used to wrap back onto id 0's /24."""
        assert client_prefix_v4(65536) != client_prefix_v4(0)
        assert client_prefix_v4(65536) == "204.0.0.0/24"
        assert client_prefix_v6(65536) == "2001:4d1:0::/48"

    @pytest.mark.parametrize("family", [4, 6])
    def test_unique_at_one_million(self, family):
        fn = client_prefix_v4 if family == 4 else client_prefix_v6
        n = 1_000_000
        prefixes = {fn(i) for i in range(n)}
        assert len(prefixes) == n

    def test_v4_octets_stay_valid_at_one_million(self):
        for client_id in (999_999, MAX_CLIENTS - 1):
            octets = client_prefix_v4(client_id).split("/")[0].split(".")
            assert all(0 <= int(o) <= 255 for o in octets)

    def test_v6_groups_stay_valid_at_one_million(self):
        for client_id in (999_999, MAX_CLIENTS - 1):
            groups = client_prefix_v6(client_id).split("/")[0].split(":")
            assert all(len(g) <= 4 for g in groups)

    def test_plan_bounds(self):
        with pytest.raises(ValueError, match="address plan"):
            client_prefix_v4(MAX_CLIENTS)
        with pytest.raises(ValueError, match="address plan"):
            client_prefix_v6(-1)


def assert_columns_identical(got: ClientColumns, want: ClientColumns) -> None:
    assert got.client_ids.tobytes() == want.client_ids.tobytes()
    assert got.volumes.tobytes() == want.volumes.tobytes()
    assert got.has_v6.tobytes() == want.has_v6.tobytes()
    assert got.adoption_ts.tobytes() == want.adoption_ts.tobytes()
    for family in (4, 6):
        assert got.switchish[family].tobytes() == want.switchish[family].tobytes()
        assert got.primer[family].tobytes() == want.primer[family].tobytes()
        assert got.prefixes[family] == want.prefixes[family]


#: Small versions of both profile shapes (volume-aware and stratified):
#: the scalar reference is a Python loop.
VOLUME_AWARE = replace(ISP_PROFILE, name="isp-pe-test", n_clients=400)
STRATIFIED = replace(IXP_NA_PROFILE, name="ixp-pe-test", n_clients=400)


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "profile", [VOLUME_AWARE, STRATIFIED], ids=["volume-aware", "stratified"]
    )
    def test_vectorized_matches_scalar_reference(self, profile):
        got = compile_population(profile, SEED)
        want = ClientColumns.from_clients(build_population_clients(profile, SEED))
        assert_columns_identical(got, want)

    def test_seed_and_profile_separate_populations(self):
        base = compile_population(VOLUME_AWARE, SEED)
        other_seed = compile_population(VOLUME_AWARE, SEED + 1)
        assert base.volumes.tobytes() != other_seed.volumes.tobytes()

    def test_reference_clients_compile_to_same_columns(self):
        clients = build_population_clients(STRATIFIED, SEED)
        assert [c.client_id for c in clients] == list(range(400))
        assert_columns_identical(
            ClientColumns.from_clients(clients),
            compile_population(STRATIFIED, SEED),
        )

    def test_volume_distribution_is_paper_shaped(self):
        """Lognormal with median ~30/day and a heavy tail."""
        columns = compile_population(
            replace(ISP_PROFILE, name="isp-pe-big", n_clients=20_000), SEED
        )
        median = float(np.median(columns.volumes))
        assert 25.0 < median < 36.0
        assert float(columns.volumes.max()) > 30.0 * 50.0


class TestColumnsOnlyCapture:
    WINDOW = (parse_ts("2024-02-05"), parse_ts("2024-02-12"))

    def test_capture_over_columns_matches_capture_over_clients(self):
        columns = compile_population(VOLUME_AWARE, SEED)
        clients = build_population_clients(VOLUME_AWARE, SEED)
        via_columns = IspCapture(columns, seed=SEED).capture(*self.WINDOW)
        via_clients = IspCapture(clients, seed=SEED).capture(*self.WINDOW)
        assert list(via_columns.prefixes) == list(via_clients.prefixes)
        for table in ("flow_table", "client_table"):
            mine, theirs = getattr(via_columns, table), getattr(via_clients, table)
            for column, values in mine.items():
                assert values.tobytes() == theirs[column].tobytes(), (table, column)
