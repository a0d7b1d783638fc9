"""Run manifest: one JSON file that makes two runs diffable.

Every ``python -m repro.experiments`` invocation writes
``run_manifest.json`` next to its working directory: the seed and config
digest that determine the world, per-experiment status and duration, the
cache hit/miss counters, pool stats, the span tree, and any flow-probe
series. Two runs that should have been identical can be diffed at this
level before anyone re-reads 60k NDT records.

Schema v2 adds two sections that are recorded *even when metrics are
off* (they come from ``getrusage`` and the span tree, not the metrics
registry): ``resource`` (peak RSS and CPU split of the whole run) and
``phases`` (per-phase wall-clock flattened from the top of the span
tree), plus optional ``profile`` / ``timeseries`` sections when the
sampling profiler or cadence sampler ran.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

MANIFEST_SCHEMA = "repro.obs/run-manifest/v2"
TRACE_SCHEMA = "repro.obs/trace/v1"


def resource_usage() -> dict[str, object]:
    """Peak RSS and CPU time of this process and its reaped children.

    From ``getrusage``: the peak is the larger of ``RUSAGE_SELF`` and
    ``RUSAGE_CHILDREN`` (the biggest pool worker under ``--jobs``, since
    workers peak far above the parent), the CPU times are their sums.
    ``ru_maxrss`` is kilobytes on Linux (bytes on macOS — normalized
    here by assuming kB, which is right for the CI/runtime platform).
    Independent of the metrics registry so the manifest records it even
    under ``REPRO_METRICS=0``.
    """
    try:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {
            "peak_rss_bytes": max(own.ru_maxrss, children.ru_maxrss) * 1024,
            "ru_utime_s": round(own.ru_utime + children.ru_utime, 3),
            "ru_stime_s": round(own.ru_stime + children.ru_stime, 3),
        }
    except Exception:  # pragma: no cover - platforms without getrusage
        return {"peak_rss_bytes": None, "ru_utime_s": None, "ru_stime_s": None}


def phase_walls(span_tree: list[dict[str, object]]) -> list[dict[str, object]]:
    """Per-phase wall-clock from the top two levels of the span tree.

    Flattens roots and their direct children into ``{phase, wall_s}``
    rows (children as ``root/child``), preserving tree order — a quick
    "where did the time go" table without parsing the nested trace.
    """
    rows: list[dict[str, object]] = []
    for root in span_tree:
        if root.get("duration_s") is not None:
            rows.append({"phase": root["name"], "wall_s": root["duration_s"]})
        for child in root.get("children", ()):  # type: ignore[union-attr]
            if child.get("duration_s") is not None:
                rows.append(
                    {
                        "phase": f"{root['name']}/{child['name']}",
                        "wall_s": child["duration_s"],
                    }
                )
    return rows


def build_manifest(
    ids: list[str],
    jobs: int,
    seed: int,
    config_digest: str,
    experiments: dict[str, dict[str, object]],
    metrics_snapshot: dict[str, object],
    pool_stats: dict[str, object],
    span_tree: list[dict[str, object]],
    wall_s: float,
    flow_probes: list[dict[str, object]] | None = None,
    timeseries_snapshot: dict[str, object] | None = None,
    profile_summary: dict[str, object] | None = None,
    worldgen: dict[str, object] | None = None,
) -> dict[str, object]:
    """Assemble the manifest payload (pure; callers decide where it goes)."""
    cache = {
        "hits": metrics_snapshot.get("artifact_cache.hits", 0),
        "misses": metrics_snapshot.get("artifact_cache.misses", 0),
        "corrupt_drops": metrics_snapshot.get("artifact_cache.corrupt_drops", 0),
    }
    manifest: dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "written_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "seed": seed,
        "config_digest": config_digest,
        "ids": list(ids),
        "jobs": jobs,
        "wall_s": round(wall_s, 3),
        "resource": resource_usage(),
        "phases": phase_walls(span_tree),
        "experiments": experiments,
        "cache": cache,
        "pool": pool_stats,
        "metrics": metrics_snapshot,
        "trace": span_tree,
        "flow_probes": list(flow_probes or []),
    }
    if timeseries_snapshot:
        manifest["timeseries"] = timeseries_snapshot
    if profile_summary:
        manifest["profile"] = profile_summary
    if worldgen:
        # Array-native generation telemetry (PR 8): per-phase wall/CPU,
        # worldgen.peak_rss_mb, and the headline table counts — recorded
        # only when this run actually generated a world (a snapshot-cache
        # hit leaves the section out).
        manifest["worldgen"] = worldgen
    return manifest


def write_manifest(manifest: dict[str, object], directory: str | Path = ".") -> Path:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


def write_trace(span_tree: list[dict[str, object]], directory: str | Path = ".") -> Path:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "trace.json"
    payload = {"schema": TRACE_SCHEMA, "spans": span_tree}
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path
