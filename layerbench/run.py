"""One measured run of one workload; the benchmark's command.

    python3 layerbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

A run repeats the workload, each repetition in a fresh interpreter
(``rep.py``), until the next one would end after ``--seconds``; at least
one always runs. Workloads whose repetitions give fewer than five set-up
samples add set-up-only repetitions. With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over repetitions.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing
overhead against the untraced ones.

Every repetition's result digest must equal the pinned one
(``pinned.json``) where the seed has a pin, else the run's first digest.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Without the program's sources beside it, it
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space of repetitions (artifact caches, run manifests).
TMP = ROOT / ".layerbench_tmp"
#: A run must end within 180 s; no repetition may start past this.
RUN_CAP_S = 170.0
MIN_SETUPS = 5

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def jobs() -> int:
    """``J``: the worker count of the parallel workloads."""
    return min(2, os.cpu_count() or 1)


def load_json(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def pinned_digest(pins: dict, workload: str, seed: int) -> str | None:
    by_seed = pins.get(workload, {})
    return by_seed.get("*", by_seed.get(str(seed)))


@contextlib.contextmanager
def scratch_space():
    """Remove the repetitions' scratch root afterwards, when empty (another
    run may still be using it)."""
    try:
        yield
    finally:
        with contextlib.suppress(OSError):
            TMP.rmdir()


def spawn_rep(workload: str, seed: int, timeout: float, traced: bool = False,
              setup_only: bool = False) -> dict:
    """Run ``rep.py`` in a fresh interpreter and return its record.

    The record gains ``ok``, ``setup_s`` (from the spawn to the study
    being built) and ``error``. The child runs in its own session, so a
    timeout kills its pool workers too.
    """
    TMP.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    command = [sys.executable, str(HERE / "rep.py"), workload, "--seed", str(seed),
               "--jobs", str(jobs()), "--tmp", scratch]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    spawned = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"ok": False, "setup_only": setup_only, "traced": traced,
                "error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "setup_only": setup_only, "traced": traced,
                "error": f"exit {process.returncode}: {tail[0]}"}
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_only"] = setup_only
    record["setup_s"] = (
        record["setup_done"] - spawned if record["setup_done"] is not None else None
    )
    record["ok"] = not record.get("problems")
    record["error"] = "; ".join(record.get("problems", ()))
    return record


def check_digests(reps: list[dict], reference: str | None) -> None:
    """Fail every repetition whose digest differs from ``reference`` (or,
    with no pin, from the first digest seen)."""
    for rep in reps:
        if "digest" not in rep:
            continue
        if reference is None:
            reference = rep["digest"]
        if rep["digest"] != reference:
            rep["ok"] = False
            rep["error"] = (rep["error"] + "; " if rep["error"] else "") + (
                f"digest {rep['digest'][:12]} != expected {reference[:12]}"
            )


def setup_samples(reps: list[dict]) -> list[float]:
    """Set-up times of untraced repetitions (installing the tracer is not
    set-up a user pays)."""
    return [r["setup_s"] for r in reps
            if r["ok"] and not r["traced"] and r.get("setup_s") is not None]


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition values of every end-to-end metric."""
    work = [r for r in reps if r["ok"] and not r["setup_only"] and not r["traced"]]
    return {
        "setup_s": setup_samples(reps),
        "wall_s": [r["wall_s"] for r in work],
        "cpu_s": [r["cpu_s"] for r in work],
        "peak_rss_mb": [r["peak_rss_mb"] for r in work],
        "units_per_s": [r["units"] / r["wall_s"] for r in work],
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    """Median per-layer metrics of the traced repetitions, plus the
    tracing overhead against the untraced ones."""
    traced = [r for r in reps if r["ok"] and r["traced"]]
    untraced = [r["wall_s"] for r in reps if r["ok"] and not r["traced"] and not r["setup_only"]]
    names = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(untraced) - 1.0
    )
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    deadline = start + seconds
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        left = RUN_CAP_S - (time.monotonic() - start)
        began = time.monotonic()
        reps.append(spawn_rep(workload, seed, left, traced=trace and len(reps) % 2 == 1))
        durations.append(time.monotonic() - began)
        if not reps[-1]["ok"]:
            break
        pair_open = trace and len(reps) < 2
        if not pair_open and time.monotonic() + statistics.median(durations) > deadline:
            break
    while not trace and reps[-1]["ok"] and len(setup_samples(reps)) < MIN_SETUPS:
        reps.append(spawn_rep(workload, seed, RUN_CAP_S - (time.monotonic() - start),
                              setup_only=True))
    return reps


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="One measured run of one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    spec = load_json(ROOT / "BENCHMARK.json")
    with scratch_space():
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    reference = pinned_digest(load_json(HERE / "pinned.json"), args.workload, args.seed)
    check_digests(reps, reference)
    failed = [r for r in reps if not r["ok"]]
    for rep in failed:
        print(f"failed repetition: {rep['error']}", file=sys.stderr)
    done = [r for r in reps if r["ok"] and not r["setup_only"]]
    kinds_done = {r["traced"] for r in done}
    if kinds_done != ({False, True} if args.trace else {False}):
        print("too few repetitions succeeded; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(reps)
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in end_to_end(reps).items()}
        wanted = spec["end_to_end"]
    first = done[0]
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, nproc "
          f"{first['nproc']}, effective workers {first['effective_workers']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
