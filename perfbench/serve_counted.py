"""``rootsim-serve`` with counters on the campaign and sealing layers,
for the traced ``query`` run.

    PYTHONPATH=src python3 perfbench/serve_counted.py COUNTS_JSON DATASET --port 0

Wraps the two campaign drivers (``repro.core.pipeline.run_campaign`` and
``repro.core.streaming.run_streaming_campaign``) so the rounds they run
are counted, then serves exactly as ``rootsim-serve`` does.  On SIGTERM
it writes ``{"vantage.rounds": ..., "transfers.contents": ...}`` to
COUNTS_JSON and exits: the rounds any campaign ran in this process, and
``len(shared_cache())``, the distinct zone contents sealing validated
here.  Both stay 0 when serving makes no campaign or seal call.
"""

from __future__ import annotations

import json
import os
import signal
import sys

ROUNDS = [0]


def _rebind(original, replacement) -> None:
    """Point every loaded module's reference to *original* at
    *replacement* (callers that did ``from ... import name``)."""
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_counters() -> None:
    import repro.core.pipeline as pipeline
    import repro.core.streaming as streaming

    run_campaign = pipeline.run_campaign
    run_streaming_campaign = streaming.run_streaming_campaign

    def counted_campaign(config, world, platform):
        collector = run_campaign(config, world, platform)
        ROUNDS[0] += platform.schedule.round_count()
        return collector

    def counted_streaming(*args, **kwargs):
        run = run_streaming_campaign(*args, **kwargs)
        ROUNDS[0] += run.n_rounds
        return run

    _rebind(run_campaign, counted_campaign)
    _rebind(run_streaming_campaign, counted_streaming)


def main() -> int:
    counts_path, argv = sys.argv[1], sys.argv[2:]
    from repro.serving.app import serve_main

    install_counters()

    def on_term(_signum, _frame):
        from repro.dnssec.digestcache import shared_cache

        with open(counts_path, "w") as handle:
            json.dump({"vantage.rounds": ROUNDS[0], "transfers.contents": len(shared_cache())}, handle)
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main())
