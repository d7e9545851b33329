"""Command-line tools.

Four entry points, mirroring the workflows a downstream user runs:

* ``rootsim-study`` — run a campaign preset and print the headline
  results (``--save DIR`` persists the measurement dataset),
* ``rootsim-analyze`` — run any registered analysis against a saved
  dataset directory, with zero re-simulation,
* ``rootsim-dig`` — a dig-alike against the simulated root system,
* ``rootsim-zonecheck`` — build/fetch a root zone copy for a date and
  fully validate it (with an optional bitflip demo).

All tools are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.util.timeutil import format_ts, parse_ts


def _build_world(seed: int):
    """A small shared world for dig/zonecheck: fabric + deployments.

    Goes through the pipeline's world stage, so repeated invocations in
    one process (and the study CLI itself) share the cached world."""
    from repro.core.config import StudyConfig
    from repro.core.pipeline import build_world

    world = build_world(StudyConfig(seed=seed))
    return world.fabric, world.deployments, world.distributor


# --- rootsim-dig -----------------------------------------------------------------


def dig_main(argv: Optional[List[str]] = None) -> int:
    """Query the simulated root system, dig-style."""
    parser = argparse.ArgumentParser(
        prog="rootsim-dig",
        description="dig against the simulated root server system",
    )
    parser.add_argument("server", help="root service address, e.g. @198.41.0.4")
    parser.add_argument("qname", help="query name, e.g. . or world.")
    parser.add_argument("qtype", nargs="?", default="NS", help="query type")
    parser.add_argument("--chaos", action="store_true", help="CHAOS class query")
    parser.add_argument("--dnssec", action="store_true", help="set the DO bit")
    parser.add_argument("--from-city", default="FRA", help="client city (IATA)")
    parser.add_argument("--at", default="2023-12-10T12:00:00", help="query time")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    from repro.dns.constants import RRClass, RRType
    from repro.dns.edns import add_edns
    from repro.dns.message import Message
    from repro.dns.name import Name
    from repro.geo.cities import city
    from repro.netsim.attachment import Attachment
    from repro.netsim.transit import TRANSIT_CATALOG
    from repro.resolver.netclient import RootNetworkClient

    if not args.server.startswith("@"):
        parser.error("server must start with @")
    address = args.server[1:]
    ts = parse_ts(args.at)

    fabric, deployments, _distributor = _build_world(args.seed)
    attachment = Attachment(
        asn=64999,
        city=city(args.from_city),
        transits_v4=(TRANSIT_CATALOG[2], TRANSIT_CATALOG[3]),
        transits_v6=(TRANSIT_CATALOG[0], TRANSIT_CATALOG[2]),
    )
    client = RootNetworkClient(
        attachment, fabric.selector(seed=args.seed, expected_rounds=100), deployments, 0
    )

    qclass = RRClass.CH if args.chaos else RRClass.IN
    query = Message.make_query(
        Name.from_text(args.qname), RRType.from_text(args.qtype), qclass
    )
    if args.dnssec:
        add_edns(query, dnssec_ok=True)
    outcome = client.query(address, query, ts)

    response = outcome.response
    print(f";; {args.qname} {qclass.name} {args.qtype} @{address} "
          f"(from {args.from_city}, {format_ts(ts)})")
    print(f";; ->>HEADER<<- rcode: {response.header.rcode.name}, "
          f"aa: {int(response.header.aa)}, answers: {len(response.answers)}, "
          f"authority: {len(response.authority)}")
    for section, records in (("ANSWER", response.answers), ("AUTHORITY", response.authority)):
        if records:
            print(f";; {section} SECTION:")
            for record in records:
                print(record.to_text())
    print(f";; SERVER: {address} ({outcome.letter}.root, site {outcome.site_key})")
    print(f";; Query time: {outcome.rtt_ms:.1f} ms")
    return 0


# --- rootsim-zonecheck ------------------------------------------------------------


def zonecheck_main(argv: Optional[List[str]] = None) -> int:
    """Validate a root zone copy for a given date."""
    parser = argparse.ArgumentParser(
        prog="rootsim-zonecheck",
        description="build and fully validate a simulated root zone copy",
    )
    parser.add_argument("--at", default="2023-12-10T12:00:00", help="zone date")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--bitflip", action="store_true",
        help="flip one bit before validating (detection demo)",
    )
    parser.add_argument("--dump", metavar="FILE", help="write master file")
    args = parser.parse_args(argv)

    from repro.dns.name import ROOT_NAME
    from repro.dnssec.digestcache import shared_cache
    from repro.zone.distribution import ZoneDistributor
    from repro.zone.rootzone import RootZoneBuilder
    from repro.zone.zonefile import render_zone_text

    ts = parse_ts(args.at)
    distributor = ZoneDistributor(RootZoneBuilder(seed=args.seed))
    zone = distributor.zone_at_site("zonecheck", ts)
    if args.bitflip:
        from repro.faults.bitflip import BitflipEvent, flip_bit_in_zone

        event = BitflipEvent(vp_id=0, start_ts=ts - 1, end_ts=ts + 1)
        zone, report = flip_bit_in_zone(zone, event, ts)
        print(f";; injected bitflip: {report.description}")

    print(f";; zone serial {zone.serial} ({len(zone)} records) at {format_ts(ts)}")
    analysis = shared_cache().analyse_zone(zone, ROOT_NAME)
    report = analysis.report_at(ts, check_zonemd=False)
    print(f";; DNSSEC: {'valid' if report.valid else 'INVALID'} "
          f"({report.rrsets_checked} RRsets checked)")
    for issue in report.issues[:5]:
        print(f";;   {issue.error.value} at {issue.name.to_text()}")
    status, detail = analysis.zonemd
    print(f";; ZONEMD: {status.name} — {detail}")

    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write(render_zone_text(zone))
        print(f";; zone written to {args.dump}")
    return 0 if report.valid and status.name in ("VALID", "ABSENT", "UNSUPPORTED_ALGORITHM") else 1


# --- rootsim-study ------------------------------------------------------------------


#: ``--preset`` name -> the :class:`~repro.core.config.StudyConfig`
#: classmethod that builds it.
PRESETS = {"quick": "quick", "standard": "standard", "paper": "paper_scale"}


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`config_from_args` reads: ``--preset``,
    ``--scenario``, ``--overlay`` and ``--seed``."""
    parser.add_argument("--preset", choices=tuple(PRESETS), default="quick")
    parser.add_argument(
        "--scenario", metavar="NAME",
        help="run a registered scenario (see repro.scenarios; e.g. "
             "'default', 'paper', 'froot-sea', 'broot-querymix'); "
             "overrides --preset",
    )
    parser.add_argument(
        "--overlay", metavar="NAME", action="append", default=[],
        help="fold a registered overlay onto --scenario (repeatable, "
             "applied in order)",
    )
    parser.add_argument("--seed", type=int, default=2024)


def _compose_scenario(parser: argparse.ArgumentParser, args):
    """The composed scenario for --scenario/--overlay (exits on error)."""
    from repro.scenarios import MergeError, compose

    try:
        return compose(args.scenario, args.overlay)
    except (KeyError, MergeError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))


def study_main(argv: Optional[List[str]] = None) -> int:
    """Run a campaign preset or registered scenario and print headline
    results."""
    parser = argparse.ArgumentParser(
        prog="rootsim-study",
        description="run a simulated root measurement campaign",
    )
    add_config_arguments(parser)
    parser.add_argument(
        "--save", "--export", dest="save", metavar="DIR",
        help="persist the measurement dataset to DIR "
             "(reload with rootsim-analyze)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="partition the VP ring into N independently probed shards "
             "(output is identical to a serial run)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="run shards across N worker processes (requires --shards > 1)",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print per-stage wall times"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the campaign stage and print its hot functions",
    )
    parser.add_argument(
        "--checkpoint", metavar="DIR",
        help="stream the campaign through a checkpoint directory, sealing "
             "a resumable chunk every --checkpoint-every rounds; a killed "
             "run restarts from the last sealed chunk with --resume DIR",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="N",
        help="rounds per sealed chunk in --checkpoint/--resume mode "
             "(default: 8)",
    )
    parser.add_argument(
        "--resume", metavar="DIR",
        help="resume a streamed campaign from its checkpoint directory; "
             "the study configuration comes from the checkpoint, so "
             "--preset/--seed/--shards are ignored "
             "(--scenario, if given, is validated against the "
             "checkpoint's scenario fingerprint)",
    )
    args = parser.parse_args(argv)

    from repro.analysis import registry
    from repro.core import StudyPipeline

    if args.resume and args.checkpoint:
        parser.error("--checkpoint and --resume are mutually exclusive")
    if args.resume or args.checkpoint:
        if args.profile:
            parser.error("--profile is not available in streaming mode")
        return _streaming_study_main(args, parser)

    config, label = _study_config(parser, args)
    print(f"building study: {label} seed={args.seed}")
    pipeline = StudyPipeline(config)
    timings = []

    def timed(stage, call):
        started = time.perf_counter()
        out = call()
        timings.append((stage, time.perf_counter() - started))
        return out

    world = timed("build_world", pipeline.build_world)
    platform = timed("build_platform", pipeline.build_platform)
    print(f"  {len(platform.vps)} VPs, {len(world.catalog)} sites, "
          f"{platform.schedule.round_count()} rounds")
    if config.shards > 1:
        print(f"  sharding: {config.shards} shards, {config.workers} worker(s)")
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        timed("run_campaign", lambda: profiler.runcall(pipeline.run_campaign))
    else:
        timed("run_campaign", pipeline.run_campaign)
    results = pipeline.results()
    summary = results.summary()
    print(f"  {summary['queries']:,} queries, {summary['transfers']:,} transfers")

    colocation = registry.run("colocation", results)
    print(f"RQ1  co-location >=2 letters: "
          f"{100 * colocation.fraction_with_colocation():.1f}% of VPs")
    stability = registry.run("stability", results)
    print(f"RQ2  median changes: b.root v4="
          f"{stability.median_changes('b', 4, 'new'):g} "
          f"g.root v4={stability.median_changes('g', 4):g} "
          f"v6={stability.median_changes('g', 6):g}")
    findings, valid = registry.run("zonemd_audit", results).validate_transfers()
    print(f"RQ3  transfer audit: {valid} valid, {len(findings)} finding groups")
    coverage = registry.run("coverage", results)
    total, unmapped = coverage.observed_identifier_count()
    print(f"coverage: {total} identifiers observed, {unmapped} unmapped")

    if args.timings or args.profile:
        for stage, seconds in timings:
            print(f"timing  {stage:<14s} {seconds:8.2f}s")
    if args.profile:
        import pstats

        pstats.Stats(profiler).strip_dirs().sort_stats("cumulative").print_stats(30)

    if args.save:
        path = results.save(args.save)
        print(f"dataset saved to {path}")
    return 0


def config_from_args(parser: argparse.ArgumentParser, args):
    """``(config, label)`` from the flags of :func:`add_config_arguments`
    (exits on error)."""
    from repro.core import StudyConfig

    if args.scenario:
        config = _compose_scenario(parser, args).study_config(seed=args.seed)
        label = "scenario=" + "+".join([args.scenario, *args.overlay])
    elif args.overlay:
        parser.error("--overlay requires --scenario")
    else:
        config = getattr(StudyConfig, PRESETS[args.preset])(seed=args.seed)
        label = f"preset={args.preset}"
    return config, label


def _study_config(parser: argparse.ArgumentParser, args):
    """:func:`config_from_args` with ``rootsim-study``'s ``--shards``
    and ``--workers`` applied.  Workers only ever run shards, so
    ``--workers`` without ``--shards`` is an error rather than a
    silently serial run."""
    config, label = config_from_args(parser, args)
    if args.shards < 1 or args.workers < 1:
        parser.error("--shards and --workers must be >= 1")
    if args.workers > 1 and args.shards == 1:
        parser.error("--workers requires --shards > 1")
    if args.shards > 1:
        config = config.with_sharding(args.shards, workers=args.workers)
    return config, label


def _streaming_study_main(args, parser) -> int:
    """The --checkpoint/--resume path of ``rootsim-study``.

    Runs the campaign through :func:`run_streaming_campaign` so progress
    survives a crash; ``--save`` finalizes the sealed chunks into an
    ordinary dataset directory, byte-identical to a batch save."""
    from repro.core.streaming import (
        config_from_checkpoint,
        finalize_streaming_campaign,
        run_streaming_campaign,
    )
    from repro.data import CheckpointError

    resume = args.resume is not None
    checkpoint_dir = args.resume if resume else args.checkpoint
    try:
        if resume:
            config = config_from_checkpoint(checkpoint_dir)
            if args.scenario:
                expected = _compose_scenario(parser, args).fingerprint()
                actual = config.scenario_fingerprint
                if actual != expected:
                    raise CheckpointError(
                        f"checkpoint at {checkpoint_dir} was produced by "
                        f"scenario {config.scenario_name!r} (fingerprint "
                        f"{actual}), not the requested {args.scenario!r} "
                        f"(fingerprint {expected}); refusing to resume"
                    )
            print(f"resuming streamed study from {checkpoint_dir}: "
                  f"seed={config.seed} shards={config.shards}")
        else:
            config, label = _study_config(parser, args)
            print(f"streaming study: {label} seed={args.seed} "
                  f"-> {checkpoint_dir}")

        def progress(index, _chunk_dir, lo, hi):
            print(f"  sealed chunk {index:06d}: rounds [{lo}, {hi})")

        run = run_streaming_campaign(
            config,
            checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=resume,
            after_chunk=progress,
        )
        summary = run.collector.summary()
        print(f"  {run.rounds_done}/{run.n_rounds} rounds in "
              f"{run.chunks} chunk(s): {summary['queries']:,} queries, "
              f"{summary['transfers']:,} transfers")
        if args.save:
            path = finalize_streaming_campaign(checkpoint_dir, args.save)
            print(f"dataset saved to {path}")
        else:
            print(f"analyze sealed rounds with: rootsim-analyze "
                  f"{checkpoint_dir}")
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# --- rootsim-analyze ----------------------------------------------------------------


def analyze_main(argv: Optional[List[str]] = None) -> int:
    """Run a registered analysis against a saved dataset directory."""
    parser = argparse.ArgumentParser(
        prog="rootsim-analyze",
        description="run a registered analysis against a dataset saved by "
                    "rootsim-study --save, without re-running the campaign",
    )
    parser.add_argument("dataset", metavar="DIR", help="dataset directory")
    parser.add_argument(
        "analysis", nargs="?",
        help="registered analysis name (omit to list the dataset's "
             "contents and the runnable analyses)",
    )
    parser.add_argument(
        "--scenario", metavar="NAME",
        help="require the dataset to have been produced by this "
             "registered scenario (fingerprint-checked; exits 2 on "
             "mismatch)",
    )
    parser.add_argument(
        "--overlay", metavar="NAME", action="append", default=[],
        help="overlays the requested --scenario was composed with",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON document instead of the text "
             "summary (byte-identical to what rootsim-serve returns "
             "for the same analysis)",
    )
    args = parser.parse_args(argv)

    from repro.analysis import registry
    from repro.analysis.summaries import (
        PASSIVE_ANALYSES,
        analysis_inputs,
        canonical_json_bytes,
        render_json,
        render_summary,
    )
    from repro.data import DatasetError, load_dataset

    try:
        dataset = load_dataset(args.dataset)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.overlay and not args.scenario:
        parser.error("--overlay requires --scenario")
    if args.scenario:
        expected = _compose_scenario(parser, args).fingerprint()
        stamp = (dataset.study or {}).get("scenario") or {}
        actual = stamp.get("fingerprint")
        if actual != expected:
            produced = (
                f"scenario {stamp['name']!r} (fingerprint {actual})"
                if stamp else "no registered scenario"
            )
            print(
                f"error: dataset {args.dataset} was produced by {produced}, "
                f"not the requested {args.scenario!r} (fingerprint "
                f"{expected}); refusing to analyze it as that scenario",
                file=sys.stderr,
            )
            return 2

    if args.analysis is None:
        if args.json:
            parser.error("--json requires an analysis name")
        summary = dataset.summary()
        print(f"dataset {args.dataset} (schema v{dataset.version})")
        checkpoint = dataset.meta.get("checkpoint") if dataset.meta else None
        if checkpoint:
            print(f"  streamed checkpoint: {checkpoint['rounds_done']}/"
                  f"{checkpoint['n_rounds']} rounds sealed in "
                  f"{checkpoint['chunks']} chunk(s)")
        print(f"  tables: {', '.join(dataset.table_names())}")
        if dataset.passive is not None:
            print(f"  passive captures: {', '.join(dataset.passive.names())}")
        print(f"  {summary.get('queries', 0):,} queries, "
              f"{summary.get('probe_samples', 0):,} probe samples, "
              f"{summary.get('transfer_observations', 0):,} transfer records")
        runnable = sorted(set(registry.runnable(dataset)) | set(PASSIVE_ANALYSES))
        print(f"  runnable analyses: {', '.join(runnable)}")
        return 0

    try:
        # Datasets saved with passive tables replay the capture aggregate
        # straight from disk; older live saves rebuild it from the
        # recorded study seed — resolved by analysis_inputs, shared with
        # the serving layer so both feed the analysis identical inputs.
        inputs = analysis_inputs(dataset, args.analysis)
        analysis = registry.run(args.analysis, dataset, **inputs)
    except (KeyError, DatasetError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.buffer.write(
            canonical_json_bytes(render_json(args.analysis, analysis)) + b"\n"
        )
        sys.stdout.buffer.flush()
    else:
        print(render_summary(args.analysis, analysis))
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution helper
    sys.exit(study_main())
