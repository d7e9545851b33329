"""Streamed campaign memory: the same study streamed through a
checkpoint peaks below the in-memory pipeline, into the same bytes.

Each variant runs in its own process (``tests/gates/_child.py``): the
materialized child runs the pipeline and saves it, the streamed child
streams the campaign in chunks of ``CHECKPOINT_EVERY`` rounds and
finalizes.  The streamed child holds one chunk of probe and traceroute
rows at a time, so its peak RSS must stay under
``MAX_RSS_FRACTION`` of the materialized child's.

The config's rows dominate the working set, so the bound separates
bounded from unbounded streaming: the streamed child peaks near 0.4x
the materialized one, while a streamed path that keeps every drained
chunk (about 0.94x) or a finalize that concatenates whole tables in
memory (about 0.81x) does not pass.
"""

from __future__ import annotations

from tests.gates._child import run_child
from tests.streamutil import assert_trees_identical

MAX_RSS_FRACTION = 0.6


def test_streamed_peak_rss_below_materialized(tmp_path):
    materialized = run_child(
        "streamed-rss", "materialized", str(tmp_path / "materialized")
    )
    streamed = run_child("streamed-rss", "streamed", str(tmp_path / "streamed"))

    assert_trees_identical(tmp_path / "materialized", tmp_path / "streamed")
    fraction = streamed["peak_rss_kb"] / materialized["peak_rss_kb"]
    assert fraction < MAX_RSS_FRACTION, (
        f"streamed peak RSS {streamed['peak_rss_kb']} kB is {fraction:.2f}x "
        f"the materialized {materialized['peak_rss_kb']} kB"
    )
