"""Run a set of benchmark repetitions, or compare two sets.

    python3 layerbench/bench.py [--seed 7] [--traced] [--out results.json]
    python3 layerbench/bench.py compare A.json B.json

A set runs every workload ``RUNS`` times, interleaved round robin so
that drift of the host spreads over all of them, each
repetition in a fresh interpreter. It prints every end-to-end metric of
``BENCHMARK.json`` per workload as median, quartiles and ``n`` with its
unit, plus ``failed_frac``: the share of repetitions that raised, exited
non-zero, broke an invariant or produced a digest other than the pinned
one. ``--traced`` adds one traced repetition per workload and prints its
per-layer metrics. The exit code is 1 when any repetition failed.

``compare`` applies the bounds of ``BENCHMARK.json`` to each (workload,
end-to-end metric) pair of two saved sets and prints one verdict each:
improved, unchanged, regressed, or unresolved (the spread between
quartiles is wider than the bound). It refuses sets whose effective
worker counts differ, and exits 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from run import (
    HERE,
    ROOT,
    RUN_CAP_S,
    WORKLOADS,
    check_digests,
    end_to_end,
    load_json,
    per_layer,
    pinned_digest,
    scratch_space,
    spawn_rep,
)

#: Repetitions per workload in a set. With seven, the quartiles
#: (``statistics.quantiles``) are the 2nd and 6th values, so one run
#: caught in a burst of host load does not leave a verdict unresolved;
#: with five, it moves a quartile by half its excess.
RUNS = 7


def describe(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and ``n``."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def summarize(reps: list[dict]) -> dict:
    failed = [r for r in reps if not r["ok"]]
    work = [r for r in reps if r["ok"] and not r["setup_only"]]
    entry = {
        "attempted": len(reps),
        "failed": len(failed),
        "failed_frac": len(failed) / len(reps),
        "errors": [r["error"] for r in failed],
        "nproc": work[0]["nproc"] if work else os.cpu_count(),
        "effective_workers": work[0]["effective_workers"] if work else None,
        "digest": work[0]["digest"] if work else None,
        "end_to_end": {name: describe(v) for name, v in end_to_end(reps).items()},
    }
    if any(r["traced"] for r in work) and any(not r["traced"] for r in work):
        entry["per_layer"] = per_layer(reps)
    return entry


def run_set(seed: int, traced: bool) -> dict:
    reps: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for round_index in range(RUNS):
        for name, workload in WORKLOADS.items():
            reps[name].append(spawn_rep(name, seed, RUN_CAP_S))
            if workload.builds_inside:
                reps[name].append(spawn_rep(name, seed, RUN_CAP_S, setup_only=True))
            print(f"  {name} run {round_index + 1}/{RUNS}: {_brief(reps[name][-1])}",
                  file=sys.stderr, flush=True)
    if traced:
        for name in WORKLOADS:
            reps[name].append(spawn_rep(name, seed, RUN_CAP_S, traced=True))
            print(f"  {name} traced: {_brief(reps[name][-1])}", file=sys.stderr, flush=True)
    pins = load_json(HERE / "pinned.json")
    for name, workload_reps in reps.items():
        check_digests(workload_reps, pinned_digest(pins, name, seed))
    return {
        "schema": "layerbench/set/v1",
        "seed": seed,
        "nproc": os.cpu_count(),
        "workloads": {name: summarize(workload_reps) for name, workload_reps in reps.items()},
    }


def _brief(rep: dict) -> str:
    if not rep["ok"]:
        return "FAILED " + rep["error"]
    if rep["setup_only"]:
        return f"setup {rep['setup_s']:.3f} s"
    return f"wall {rep['wall_s']:.3f} s"


def print_set(results: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in results["workloads"].items():
        print(f"{name}: seed {results['seed']}, {entry['attempted']} runs, "
              f"{entry['failed']} failed, effective workers {entry['effective_workers']}, "
              f"nproc {entry['nproc']}")
        for metric, stats in entry["end_to_end"].items():
            if stats["n"] == 0:
                print(f"  {metric:<16} (no successful run) {units[metric]}")
                continue
            print(f"  {metric:<16} {stats['median']:.6g} {units[metric]}  "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]")
        print(f"  {'failed_frac':<16} {entry['failed_frac']:.6g} fraction")
        for error in entry["errors"]:
            print(f"    failure: {error}")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:<48} {value:.6g} {units[metric]}")


# -- compare ---------------------------------------------------------------------

def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """Classify one metric of ``new`` against ``base`` (both ``describe()``d)."""
    sign = 1.0 if better == "lower" else -1.0
    every_run_better = all(
        sign * (y - x) < 0 for y in new["values"] for x in base["values"]
    )
    if max(spread(base), spread(new)) > bound and not every_run_better:
        return "unresolved"
    worse_by = sign * (new["median"] / base["median"] - 1.0)
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> int:
    regressed = False
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            print(f"{name}: missing from the second set")
            continue
        if base_entry["effective_workers"] != new_entry["effective_workers"]:
            print(f"{name}: refusing to compare {base_entry['effective_workers']} "
                  f"effective workers with {new_entry['effective_workers']}", file=sys.stderr)
            return 2
        cells = []
        for metric in spec["end_to_end"]:
            a = base_entry["end_to_end"][metric["name"]]
            b = new_entry["end_to_end"][metric["name"]]
            unit = metric["unit"]
            if not a["n"] or not b["n"]:
                cells.append(f"{metric['name']} unresolved (no successful run)")
                continue
            outcome = verdict(a, b, metric["bound"], metric["better"])
            regressed |= outcome == "regressed"
            cells.append(
                f"{metric['name']} {b['median']:.4g} {unit} = {b['median'] / a['median']:.3f}x "
                f"of base {a['median']:.4g} {unit} (bound {metric['bound']:.0%}): {outcome}"
            )
        outcome = "regressed" if new_entry["failed_frac"] > base_entry["failed_frac"] else "unchanged"
        regressed |= outcome == "regressed"
        cells.append(f"failed_frac {new_entry['failed_frac']:.3g} vs base "
                     f"{base_entry['failed_frac']:.3g} fraction: {outcome}")
        print(f"{name}: " + "; ".join(cells))
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(load_json(Path(args.base)), load_json(Path(args.new)), spec)
    parser = argparse.ArgumentParser(description="Run one set of benchmark repetitions.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None, help="write the set's results as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    with scratch_space():
        results = run_set(args.seed, args.traced)
    print_set(results, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
    return 1 if any(e["failed"] for e in results["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
