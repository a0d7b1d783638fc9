"""One repetition of a workload in a fresh interpreter; prints one JSON line.

    python3 layerbench/rep.py <workload> --seed N --jobs J --tmp DIR [--traced] [--setup-only]

Run by ``run.py`` and ``bench.py``, which start it with ``src`` on
``PYTHONPATH`` and own ``DIR`` (its artifact cache and observability
output). ``setup_done`` is a ``CLOCK_MONOTONIC`` reading, so the parent
subtracts the time it started this process and gets set-up time from
interpreter start. ``wall_s``, ``cpu_s`` and the traced layers cover the
measured work only; ``peak_rss_mb`` is the high-water mark of this
process and of every worker it reaped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.environ["REPRO_CACHE"] = "1" if workload.builds_inside else "0"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(args.tmp, "cache")
    jobs = args.jobs if workload.parallel else 1

    tracer = None
    if args.traced:
        tracer = layers.Tracer()
        layers.install(tracer)
    workloads.load(workload)
    study = None
    setup_done = None
    if args.setup_only or not workload.builds_inside:
        study = workloads.setup(workload, args.seed)
        setup_done = time.monotonic()
    record = {"workload": workload.name, "seed": args.seed, "traced": args.traced,
              "setup_done": setup_done}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    from repro.util.parallel import effective_jobs

    cpu_before = _cpu_s()
    if tracer is not None:
        tracer.top_ns = 0
    start = time.perf_counter()
    result, units = workloads.run(workload, args.seed, study, jobs, args.tmp)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_before

    problems = workloads.check(workload, result, study)
    layer_values = None
    if tracer is not None:
        layer_values = layers.layer_metrics(tracer, wall_s)
        for span in workload.required:
            if not tracer.stats.get(span + ".calls"):
                problems.append(f"self-check: {span} was never called")
        if effective_jobs(jobs) > 1 and not tracer.stats.get("util.parallel.folded_pools"):
            problems.append("self-check: no worker stats were folded back from a pool")
    record.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "units": units,
        "digest": workloads.digest(workload, result),
        "problems": problems,
        "nproc": os.cpu_count(),
        "effective_workers": effective_jobs(jobs),
        "layers": layer_values,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
