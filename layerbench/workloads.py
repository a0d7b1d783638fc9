"""The four benchmark workloads: what one repetition sets up, runs and checks.

Imported inside a fresh benchmark interpreter (see ``rep.py``), with
``src`` already on ``sys.path``. Every ``repro`` import happens inside a
function, so importing this module costs nothing and the import time of
the program lands in the repetition's set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    #: World scale of the study the workload builds.
    scale: float
    #: Whether it fans out over ``J = min(2, nproc)`` workers.
    parallel: bool
    #: Whether the measured work is the experiment suite, run as users run
    #: it: it builds its own worlds and writes to a fresh private artifact
    #: cache. Its repetitions have no set-up phase, so set-up is measured
    #: by repetitions that only build the default world. The other
    #: workloads run with the cache off, so timings measure computation.
    builds_inside: bool
    #: Spans a traced repetition must see called, or it fails.
    required: tuple[str, ...]


# units_per_s counts 60,000 tests (campaign), 16 VPs (coverage*) and 21
# experiments (suite).
WORKLOADS: dict[str, Workload] = {
    # §4: NDT campaign, matching, MAP-IT through the per-flow APIs.
    "campaign": Workload(
        "campaign", scale=1.0, parallel=False, builds_inside=False,
        required=("routing.forwarding.route_flow", "measurement.traceroute.trace",
                  "net.tcp.observe_batch"),
    ),
    # §5: the coverage sweep through the batch APIs of the same layers.
    "coverage": Workload(
        "coverage", scale=1.0, parallel=False, builds_inside=False,
        required=("measurement.traceroute.trace_batch", "inference.mapit.infer"),
    ),
    # The same sweep on a 4x world, fanned out over a fork pool.
    "coverage_x4": Workload(
        "coverage_x4", scale=4.0, parallel=True, builds_inside=False,
        required=("util.parallel.parallel_map", "measurement.traceroute.trace_batch"),
    ),
    # All 21 experiments, writing to an empty artifact cache.
    "suite": Workload(
        "suite", scale=1.0, parallel=True, builds_inside=True,
        required=("util.artifact_cache.store", "inference.bdrmap.run_bdrmap"),
    ),
}

#: Coverage sweeps trace toward the top 500 popular-content targets.
ALEXA_COUNT = 500

#: Suite stdout lines that carry timings; stripped before digesting.
_TIMING_LINE = re.compile(r"^\s*\[\S+ in [0-9.]+s\]$|^== \d+ experiments in [0-9.]+s total ==$")


def load(workload: Workload) -> None:
    """Import every module the work calls, so no import is timed as work."""
    if workload.builds_inside:
        import repro.experiments.__main__  # noqa: F401
    else:
        import repro.core.coverage  # noqa: F401
        import repro.experiments.common  # noqa: F401


def setup(workload: Workload, seed: int):
    """Build the workload's study world."""
    from repro.core.pipeline import StudyConfig, build_study

    if workload.builds_inside:
        return build_study(StudyConfig())  # the experiment registry pins seed 7
    return build_study(StudyConfig(seed=seed, scale=workload.scale))


def run(workload: Workload, seed: int, study, jobs: int, obs_dir: str):
    """The measured work. Returns ``(result, units)``."""
    if workload.name == "campaign":
        from repro.experiments.common import MAY2015_CAMPAIGN, analyze_campaign

        config = replace(MAY2015_CAMPAIGN, seed=seed)
        return analyze_campaign(study, config), config.total_tests
    if workload.name == "suite":
        from repro.experiments import EXPERIMENTS
        from repro.experiments.__main__ import main

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["all", "--jobs", str(jobs), "--obs-dir", obs_dir])
        return (code, stdout.getvalue()), len(EXPERIMENTS)
    from repro.core.coverage import collect_coverage_reports

    reports = collect_coverage_reports(study, alexa_count=ALEXA_COUNT, jobs=jobs)
    return reports, len(reports)


def strip_timings(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not _TIMING_LINE.match(line))


def _sha256(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def digest(workload: Workload, result) -> str:
    """A digest of the outputs that must depend only on (workload, seed)."""
    if workload.name == "campaign":
        def lines():
            for record in result.campaign.ndt_records:
                yield repr(record)
            yield "match"
            for record, trace in result.matched_pairs:
                yield f"{record.test_id}:{trace.trace_id}"
            yield "mapit"
            for ip, owner in sorted(result.mapit_result.ownership.items()):
                yield f"{ip}:{owner}"
        return _sha256(lines())
    if workload.name == "suite":
        return _sha256([strip_timings(result[1])])

    def border_lines():
        for label, report in result.items():
            yield label
            for border_set in [report.discovered, *(report.reachable[n] for n in sorted(report.reachable))]:
                yield f"{border_set.name} {sorted(border_set.as_level)} {sorted(border_set.router_level)}"
    return _sha256(border_lines())


def check(workload: Workload, result, study) -> list[str]:
    """Invariants that hold for every seed; each breach is one problem."""
    problems = []
    if workload.name == "campaign":
        records = result.campaign.ndt_records
        if not records:
            problems.append("campaign produced no NDT records")
        for record, trace in result.matched_pairs:
            if trace.dst_ip != record.client_ip:
                problems.append(f"test {record.test_id} matched a trace to another client")
                break
        if not result.mapit_result.ownership:
            problems.append("MAP-IT inferred no ownership")
    elif workload.name == "suite":
        code, stdout = result
        if code != 0:
            problems.append(f"suite exited {code}")
        if "experiments in" not in stdout:
            problems.append("suite printed no summary line")
    else:
        labels = [vp.label for vp in study.ark_vps()]
        if list(result) != labels:
            problems.append("coverage reports do not cover every VP in order")
        for label, report in result.items():
            if not report.discovered.as_level:
                problems.append(f"{label}: bdrmap discovered no borders")
            for name in report.reachable:
                fraction = report.coverage_fraction(name)
                if not 0.0 <= fraction <= 1.0:
                    problems.append(f"{label}: {name} coverage {fraction} outside [0, 1]")
    return problems
