"""Command-line interface.

    repro generate    --out-dir data/            # export topology artifacts
    repro campaign    --tests 20000 --out ndt.csv --traces traces.jsonl
    repro analyze     --ndt ndt.csv --pfx2as data/pfx2as.txt --orgs data/as-org.txt
    repro experiments fig1 fig5                  # regenerate paper artifacts
    repro report      out.md fig1 fig5           # markdown report
    repro validate    --seed 7                   # world contracts + shape gates

Every subcommand operates on the same seeded world (``--seed``), so a
campaign exported today reproduces bit-for-bit tomorrow.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Challenges in Inferring Internet "
        "Congestion Using Throughput Measurements' (IMC 2017)",
    )
    parser.add_argument("--seed", type=int, default=7, help="root seed for the world")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="pipeline log level (default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="export public topology artifacts")
    generate.add_argument("--out-dir", required=True)
    generate.add_argument("--epoch", choices=("2015", "2017"), default="2015")

    campaign = sub.add_parser("campaign", help="run an NDT campaign and export it")
    campaign.add_argument("--tests", type=int, default=10_000)
    campaign.add_argument("--days", type=int, default=28)
    campaign.add_argument("--orgs", nargs="*", default=None, help="client ISPs")
    campaign.add_argument("--policy", default="nearest",
                          choices=("nearest", "regional", "direct"))
    campaign.add_argument("--out", required=True, help="NDT CSV path")
    campaign.add_argument("--traces", help="traceroute JSONL path")
    campaign.add_argument("--ground-truth", action="store_true",
                          help="include gt_* columns (not part of a public export)")
    campaign.add_argument("--validate", action="store_true",
                          help="run fast world contracts while building the study")

    analyze = sub.add_parser("analyze", help="diurnal congestion verdicts from a CSV")
    analyze.add_argument("--ndt", required=True)
    analyze.add_argument("--threshold", type=float, default=0.5)
    analyze.add_argument("--min-samples", type=int, default=200)

    experiments = sub.add_parser("experiments", help="regenerate paper artifacts")
    experiments.add_argument("ids", nargs="+")
    experiments.add_argument("--jobs", default=1, metavar="N",
                             help="process-pool width for fan-out (>= 1)")
    experiments.add_argument("--trace", action="store_true",
                             help="print the span tree and write trace.json")
    experiments.add_argument("--validate", action="store_true",
                             help="run fast world contracts while building the study")

    world_stats = sub.add_parser(
        "world-stats",
        help="per-table row counts/bytes and generation telemetry for a world",
    )
    world_stats.add_argument("--scale", type=float, default=1.0,
                             help="stub-population scale of the world")
    world_stats.add_argument("--epoch", choices=("2015", "2017"), default="2015")
    world_stats.add_argument("--fresh", action="store_true",
                             help="force a fresh generation (reports phase "
                                  "timings) instead of the snapshot fast path")

    report = sub.add_parser("report", help="write a markdown reproduction report")
    report.add_argument("path")
    report.add_argument("ids", nargs="+")

    validate = sub.add_parser(
        "validate", help="run world contracts and EXPERIMENTS.md shape gates"
    )
    # Also accepted after the subcommand (python -m repro validate --seed N);
    # the subparser value overwrites the global default.
    validate.add_argument("--seed", type=int, default=7,
                          help="root seed for the world")
    validate.add_argument("--scale", type=float, default=1.0,
                          help="stub-population scale of the world")
    validate.add_argument("--contracts-only", action="store_true",
                          help="skip shape gates (no experiments run)")
    validate.add_argument("--gates-only", action="store_true",
                          help="skip world contracts")
    validate.add_argument("--gates", nargs="*", default=None, metavar="EXPERIMENT",
                          help="experiment ids to gate (default: every gated one)")
    validate.add_argument("--fast-contracts", action="store_true",
                          help="skip slow contracts (coverage traceroute sweep)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.obs.log import configure_logging

    configure_logging(level=args.log_level, json_lines=args.log_json)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "campaign":
        if args.validate:
            from repro.core.pipeline import set_inline_validation

            set_inline_validation(True)
        return _cmd_campaign(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "experiments":
        from repro.experiments.__main__ import main as experiments_main

        if args.validate:
            from repro.core.pipeline import set_inline_validation

            set_inline_validation(True)
        forwarded = [*args.ids, "--jobs", str(args.jobs),
                     "--log-level", args.log_level]
        if args.trace:
            forwarded.append("--trace")
        if args.log_json:
            forwarded.append("--log-json")
        return experiments_main(forwarded)
    if args.command == "world-stats":
        return _cmd_world_stats(args)
    if args.command == "report":
        from repro.reporting.__main__ import main as report_main

        return report_main([args.path, *args.ids])
    if args.command == "validate":
        from repro.validate.__main__ import main as validate_main

        forwarded = ["--seed", str(args.seed), "--scale", str(args.scale)]
        if args.contracts_only:
            forwarded.append("--contracts-only")
        if args.gates_only:
            forwarded.append("--gates-only")
        if args.fast_contracts:
            forwarded.append("--fast-contracts")
        if args.gates is not None:
            forwarded.extend(["--gates", *args.gates])
        return validate_main(forwarded)
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    from repro.data.topology_io import (
        write_as_org_map,
        write_prefix_table,
        write_relationships,
    )
    from repro.topology.generator import InternetConfig, generate_internet
    from repro.util.ip import prefix_str

    internet = generate_internet(InternetConfig(seed=args.seed, epoch=args.epoch))
    os.makedirs(args.out_dir, exist_ok=True)
    prefix_count = write_prefix_table(
        internet.prefix_table, os.path.join(args.out_dir, "pfx2as.txt")
    )
    edge_count = write_relationships(
        internet.graph, os.path.join(args.out_dir, "as-rel.txt")
    )
    org_count = write_as_org_map(
        internet.orgs, os.path.join(args.out_dir, "as-org.txt")
    )
    with open(os.path.join(args.out_dir, "ixp-prefixes.txt"), "w") as handle:
        for prefix in internet.ixps.prefixes():
            handle.write(prefix_str(prefix.base, prefix.length) + "\n")
    print(
        f"wrote {prefix_count} prefixes, {edge_count} relationships, "
        f"{org_count} orgs, {len(internet.ixps)} IXP prefixes to {args.out_dir}"
    )
    return 0


def _cmd_world_stats(args) -> int:
    """Table sizes + generation telemetry without building a study.

    Default path resolves the config through the compiled-snapshot cache
    (milliseconds on a warm cache, memory-mapped, no generator run);
    ``--fresh`` generates instead, which is what populates the per-phase
    timing section.
    """
    import resource

    from repro.net.compiled import CompiledWorld, compile_world, compiled_world_for
    from repro.topology.generator import (
        InternetConfig,
        generate_internet,
        last_generation_stats,
    )

    config = InternetConfig(seed=args.seed, scale=args.scale, epoch=args.epoch)
    if args.fresh:
        world = compile_world(generate_internet(config))
    else:
        world = compiled_world_for(config)

    print(f"world: {world.digest}")
    print(f"\n{'table':<18s} {'rows':>10s} {'bytes':>14s}  dtype")
    total_bytes = 0
    for name in CompiledWorld._ARRAY_FIELDS:
        arr = getattr(world, name)
        total_bytes += arr.nbytes
        rows = arr.shape[0]
        shape = "x".join(str(d) for d in arr.shape)
        print(f"{name:<18s} {rows:>10,d} {arr.nbytes:>14,d}  {arr.dtype} ({shape})")
    print(f"{'total':<18s} {'':>10s} {total_bytes:>14,d}")

    stats = last_generation_stats()
    if stats is not None:
        print(f"\n{'phase':<12s} {'wall_s':>9s} {'cpu_s':>9s}")
        for name, timing in stats["phases"].items():
            print(f"{name:<12s} {timing['wall_s']:>9.3f} {timing['cpu_s']:>9.3f}")
        print(f"{'total':<12s} {stats['total_wall_s']:>9.3f} "
              f"{stats['total_cpu_s']:>9.3f}")
        print(f"\nworldgen.peak_rss_mb: {stats['peak_rss_mb']:.1f}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("\ngeneration: snapshot fast path (no generator run; "
              "use --fresh to time the phases)")
        print(f"process peak_rss_mb: {rss_mb:.1f}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.pipeline import StudyConfig, build_study
    from repro.data.ndt_io import write_ndt_csv, write_traceroutes_jsonl
    from repro.platforms.campaign import CampaignConfig

    study = build_study(StudyConfig(seed=args.seed))
    result = study.run_campaign(
        CampaignConfig(
            seed=args.seed,
            days=args.days,
            total_tests=args.tests,
            orgs=tuple(args.orgs) if args.orgs else None,
            selection_policy=args.policy,
        )
    )
    rows = write_ndt_csv(result.ndt_records, args.out, args.ground_truth)
    print(f"wrote {rows} NDT rows to {args.out}")
    if args.traces:
        lines = write_traceroutes_jsonl(
            result.traceroute_records, args.traces, args.ground_truth
        )
        print(f"wrote {lines} traceroutes to {args.traces}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.core.congestion import classify_series, diurnal_series
    from repro.data.ndt_io import load_ndt_csv

    records = load_ndt_csv(args.ndt)
    groups = defaultdict(list)
    for record in records:
        groups[record.server_asn].append(record)

    print(f"{'server ASN':>10s} {'tests':>7s} {'off-peak':>9s} {'peak':>8s} "
          f"{'drop':>6s}  verdict")
    for server_asn, group in sorted(groups.items()):
        if len(group) < args.min_samples:
            continue
        verdict = classify_series(diurnal_series(group), threshold=args.threshold)
        label = "CONGESTED" if verdict.congested else "ok"
        print(
            f"{server_asn:>10d} {len(group):>7d} {verdict.offpeak_median:>8.1f}M "
            f"{verdict.peak_median:>7.1f}M {verdict.relative_drop:>5.1%}  {label}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
