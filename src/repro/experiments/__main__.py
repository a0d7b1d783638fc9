"""Run experiments from the command line.

    python -m repro.experiments                    # list experiment ids
    python -m repro.experiments fig1 fig5          # run selected experiments
    python -m repro.experiments all                # run everything
    python -m repro.experiments fig2 --jobs 4      # parallel per-VP fan-out
    python -m repro.experiments all --jobs 4       # fan experiments out too
    python -m repro.experiments fig1 --profile     # cProfile top-10 per id
    python -m repro.experiments fig1 --trace       # span tree + trace.json

``--jobs N`` raises the session's parallelism: per-VP loops fan out
inside each experiment, and ``all`` additionally distributes experiments
across the pool in units. The readers of one shared product (the May-2015
campaign, the Figure 5 campaign, the §5 coverage reports; see
``SHARED_PRODUCT_GROUPS``) run as one unit in one worker, so the product
is built once; every other experiment is a unit of its own. Output is
printed in registry order and is identical to a serial run apart from
the ``[id in Xs]`` timing lines — observability lives beside results,
never inside them.

Every run writes ``run_manifest.json`` (seed, config digest, cache and
pool stats, per-experiment status + duration, span tree) so two runs can
be diffed; ``--trace`` additionally prints the span tree and writes the
machine-readable ``trace.json``. ``--log-level debug --log-json`` turns
the pipeline's structured logs on as JSONL on stderr. ``--profile``
wraps each experiment in cProfile and prints its top-10 functions by
cumulative time (forces serial execution so the numbers mean something);
per-layer self time under the benchmark's names comes from a traced
``layerbench/rep.py`` repetition instead.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time

from repro.experiments import EXPERIMENTS, experiment_units
from repro.experiments.base import ExperimentResult
from repro.obs import manifest, metrics, trace
from repro.obs.log import configure_logging, get_logger
from repro.obs.trace import span
from repro.util import artifact_cache
from repro.util.parallel import (
    parallel_map,
    pool_stats,
    set_default_jobs,
    validate_jobs,
)

_log = get_logger(__name__)


def _run_experiment(experiment_id: str) -> ExperimentResult:
    """One experiment end-to-end, inside an ``experiment:<id>`` span.

    The span makes every experiment a named node in the timing tree —
    in-process for serial runs; under ``all --jobs N`` each unit's spans
    come back from its worker and are grafted in unit order, so the same
    nodes appear either way.
    """
    with span(f"experiment:{experiment_id}"):
        return EXPERIMENTS[experiment_id]()


def _run_unit(unit: tuple[str, ...]) -> list[tuple[ExperimentResult, float]]:
    """Pool worker: one unit's experiments in order, each with its own
    wall seconds (module-level for pickling)."""
    timed = []
    for experiment_id in unit:
        start = time.time()
        result = _run_experiment(experiment_id)
        timed.append((result, time.time() - start))
    return timed


def _worldgen_stats() -> dict[str, object] | None:
    """Generation telemetry for the manifest's ``worldgen`` section.

    Present only when this process actually generated a world (a
    snapshot-cache hit never runs the generator, so there is nothing to
    report and the section is omitted).
    """
    from repro.topology.generator import last_generation_stats

    stats = last_generation_stats()
    if stats is None:
        return None
    return {
        "peak_rss_mb": round(stats["peak_rss_mb"], 1),
        "total_wall_s": round(stats["total_wall_s"], 3),
        "total_cpu_s": round(stats["total_cpu_s"], 3),
        "phases": {
            name: {"wall_s": round(t["wall_s"], 4), "cpu_s": round(t["cpu_s"], 4)}
            for name, t in stats["phases"].items()
        },
        "counts": stats["counts"],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids, or 'all'")
    parser.add_argument("--jobs", default=1, metavar="N",
                        help="process-pool width for fan-out (>= 1)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each experiment (forces serial)")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree and write trace.json")
    parser.add_argument("--obs-dir", default=".", metavar="DIR",
                        help="directory for run_manifest.json / trace.json")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="pipeline log level (default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines instead of text")
    return parser


def _print_result(experiment_id: str, result: ExperimentResult, elapsed_s: float) -> None:
    print(result.to_text())
    print(f"  [{experiment_id} in {elapsed_s:.1f}s]\n")


def _run_profiled(experiment_id: str) -> tuple[ExperimentResult, float]:
    profiler = cProfile.Profile()
    start = time.time()
    profiler.enable()
    result = _run_experiment(experiment_id)
    profiler.disable()
    elapsed = time.time() - start
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(10)
    print(f"--- profile: {experiment_id} (top 10 by cumulative time) ---")
    print(stream.getvalue())
    return result, elapsed


def _experiment_durations(span_tree: list[dict], ids: list[str]) -> dict[str, float]:
    """Per-experiment wall seconds, read off the merged span tree."""
    durations: dict[str, float] = {}

    def walk(nodes: list[dict]) -> None:
        for node in nodes:
            name = str(node.get("name", ""))
            if name.startswith("experiment:"):
                durations[name.split(":", 1)[1]] = float(node.get("duration_s", 0.0))
            walk(node.get("children", []))

    walk(span_tree)
    return {i: durations.get(i, 0.0) for i in ids if i in durations}


def main(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        jobs = validate_jobs(args.jobs)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    configure_logging(level=args.log_level, json_lines=args.log_json)

    ids = list(args.ids)
    if not ids:
        print("available experiments:")
        for experiment_id in EXPERIMENTS:
            print(f"  {experiment_id}")
        print("usage: python -m repro.experiments <id>... | all "
              "[--jobs N] [--trace] [--profile]")
        return 0
    run_all = ids == ["all"]
    if run_all:
        ids = list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2

    set_default_jobs(jobs)
    metrics.reset()
    trace.set_enabled(True)
    trace.reset()

    _log.info("running %d experiment(s) with jobs=%d", len(ids), jobs)

    suite_start = time.time()
    statuses: dict[str, dict[str, object]] = {}
    with span("suite", ids=len(ids), jobs=jobs):
        if args.profile:
            for experiment_id in ids:
                result, elapsed = _run_profiled(experiment_id)
                _print_result(experiment_id, result, elapsed)
                statuses[experiment_id] = {"status": "ok"}
        elif run_all and jobs > 1:
            # Fan units out; each worker runs its unit serially (nested
            # fan-out degrades to serial inside workers). Results print in
            # registry order — identical text to jobs=1.
            units = experiment_units(ids)
            timed = {}
            for unit, unit_results in zip(units, parallel_map(_run_unit, units, jobs=jobs)):
                timed.update(zip(unit, unit_results))
            for experiment_id in ids:
                result, elapsed = timed[experiment_id]
                _print_result(experiment_id, result, elapsed)
                statuses[experiment_id] = {"status": "ok"}
        else:
            for experiment_id in ids:
                start = time.time()
                result = _run_experiment(experiment_id)
                _print_result(experiment_id, result, time.time() - start)
                statuses[experiment_id] = {"status": "ok"}
    wall_s = time.time() - suite_start
    if run_all:
        print(f"== {len(ids)} experiments in {wall_s:.1f}s total ==")

    # --- observability artifacts (beside the results, never inside) -----
    span_tree = trace.tree()
    for experiment_id, duration in _experiment_durations(span_tree, ids).items():
        statuses[experiment_id]["duration_s"] = round(duration, 3)
    snapshot = metrics.snapshot()
    payload = manifest.build_manifest(
        ids=ids,
        jobs=jobs,
        seed=7,  # the experiments registry runs the default seed-7 world
        config_digest=artifact_cache.code_salt()[:16],
        experiments=statuses,
        metrics_snapshot=snapshot,
        pool_stats=pool_stats(),
        span_tree=span_tree,
        wall_s=wall_s,
        worldgen=_worldgen_stats(),
    )
    manifest_path = manifest.write_manifest(payload, args.obs_dir)
    _log.info("wrote %s", manifest_path)
    if args.trace:
        trace_path = manifest.write_trace(span_tree, args.obs_dir)
        print(f"--- span tree ({trace_path}) ---")
        print(trace.render(span_tree))
        cache_line = payload["cache"]
        print(f"cache: {cache_line['hits']} hits / {cache_line['misses']} misses; "
              f"pool: {pool_stats()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
