"""The array FNV-1a string hashes equal the scalar ``mix_str``.

:func:`~repro.netsim.mix.mix_str_array` and
:func:`~repro.netsim.mix.mix_str_pieces` fold a padded UTF-8 byte matrix
column by column under a length mask; these properties pin them to
:func:`~repro.netsim.mix.mix_str` element by element, including every
stable key the route table hashes for the tiny campaign.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import build_platform, build_world
from repro.netsim.mix import ByteTable, mix_str, mix_str_array, mix_str_pieces
from repro.netsim.routing import LETTERS
from tests.netsim.scalar_routes import ScalarRoutes
from tests.vantage.test_collector_merge import tiny_config


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=60))
def test_array_hash_equals_scalar(strings):
    got = mix_str_array(strings)
    assert got.dtype == np.uint64
    assert got.tolist() == [mix_str(s) for s in strings]


def test_empty_multibyte_and_mixed_lengths_in_one_batch():
    strings = ["", "a", "", "héllo", "日本語の鍵", "✓" * 17, "65001|f-012|peer|4", "x" * 90, "\x00"]
    assert mix_str_array(strings).tolist() == [mix_str(s) for s in strings]
    assert mix_str_array([]).tolist() == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(max_size=10), min_size=1, max_size=8),
    st.lists(st.text(max_size=10), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=40),
)
def test_pieces_equal_the_joined_string(heads, tails, picks):
    head = np.array([i % len(heads) for i, _ in picks], dtype=np.int64)
    tail = np.array([j % len(tails) for _, j in picks], dtype=np.int64)
    got = mix_str_pieces([(ByteTable(heads), head), (ByteTable(tails), tail)])
    want = [mix_str(heads[i] + tails[j]) for i, j in zip(head.tolist(), tail.tolist())]
    assert got.tolist() == want


def test_every_stable_key_of_the_tiny_plan():
    """Each candidate route's stable key string, as the scalar oracle
    spells it, hashes the same as an array and as a scalar — and the
    columnar table carries that hash."""
    config = tiny_config()
    platform = build_platform(config, build_world(config))
    oracle = ScalarRoutes(platform.prober.fabric)
    keys = [
        (vp.attachment, letter, family)
        for vp in platform.vps
        for letter in LETTERS
        for family in (4, 6)
    ]
    strings, scalar = [], []
    for att, letter, family in keys:
        for route in oracle.candidates(att, letter, family):
            tag = route.via if route.transit is None else f"as{route.transit.asn}"
            strings.append(f"{att.asn}|{route.site.key}|{tag}|{family}")
            scalar.append(route.stable_key)
    assert len(strings) > 1000
    assert [mix_str(s) for s in strings] == scalar
    assert mix_str_array(strings).tolist() == scalar
    assert platform.selector.table(keys).stable_key.tolist() == scalar
