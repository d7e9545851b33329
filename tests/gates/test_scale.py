"""Paper-magnitude scaling: streamed epoch plan memory and the indexed
passive population path.

Each variant runs in its own process (``tests/gates/_child.py``).

* **Epoch plan.**  At ring scale ``EPOCH_RING_SCALE`` of the ``paper``
  config, the plan alone must retain under ``MAX_PLAN_RSS_FRACTION`` of
  what the comparator retains: the same plan plus every pair's
  whole-campaign epoch list.  Chunked and one-range emission of the
  opening rounds must leave identical collector summaries.
* **Population path.**  At ``POPULATION_CLIENTS`` clients, building the
  population and reading per-client flows off the compiled columns must
  be at least ``MIN_POPULATION_SPEEDUP`` times faster than the legacy
  object builder with eager per-client dicts, over the same flow grid.
"""

from __future__ import annotations

from tests.gates._child import run_child

MAX_PLAN_RSS_FRACTION = 0.5
MIN_POPULATION_SPEEDUP = 5.0


def test_streamed_epoch_plan_rss_below_materialized():
    materialized = run_child("epoch-plan", "materialized")
    streamed = run_child("epoch-plan", "streamed")

    assert materialized["held_epochs"] > 0
    assert streamed["summary"] == materialized["summary"]
    fraction = streamed["plan_rss_kb"] / materialized["plan_rss_kb"]
    assert fraction < MAX_PLAN_RSS_FRACTION, (
        f"streamed plan retains {streamed['plan_rss_kb']} kB, {fraction:.2f}x "
        f"the materialized {materialized['plan_rss_kb']} kB"
    )


def test_indexed_population_path_speedup():
    legacy = run_child("population", "legacy")
    indexed = run_child("population", "indexed")

    assert indexed["flow_cells"] == legacy["flow_cells"]
    speedup = legacy["path_seconds"] / indexed["path_seconds"]
    assert speedup >= MIN_POPULATION_SPEEDUP, (
        f"population path {indexed['path_seconds']:.2f} s indexed vs "
        f"{legacy['path_seconds']:.2f} s legacy: {speedup:.1f}x"
    )
