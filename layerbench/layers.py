"""Per-layer timing measured from outside the program.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
from benchmark code. Every wrapped call is a span: the tracer counts
calls, total and self time (a span's duration minus the time of the
wrapped calls it made), and whatever counts the span's arguments and
result give. Nothing under ``src/`` knows it is being measured.

Pool workers fork with the wrappers installed. Their totals come back
through ``repro.util.parallel.register_worker_stats`` as integer
nanoseconds and counts, and the ``parallel_map`` wrapper folds them in.

Functions imported by name (``from repro.x import f``) are separate
module globals bound to the same object, so :meth:`Tracer.wrap_function`
rebinds every global in the scanned modules that *is* the original. The
original lives only in the wrapper's closure: a module-level variable
holding it would itself be rebound by the scan.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import statistics
import sys
import time
from typing import Callable

#: Name under which worker totals travel back through the pool.
WORKER_STATS_NAME = "layerbench"

#: Keys of the flat stats that hold one sample each rather than a sum.
#: ``<name>#<pid>:<index>`` keeps them unique across worker processes, so
#: the pool's per-key sum folds them without collisions.
_SAMPLE_SEP = "#"

Counter = Callable[[tuple, dict, object], dict[str, int]]


class Tracer:
    """Spans around wrapped callables, kept in memory as flat integers."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: ``<span>.calls`` / ``.ns`` / ``.self_ns`` plus per-span counts.
        self.stats: dict[str, int] = {}
        #: Per-sample stats as ``name -> [(pid, value), ...]``.
        self.samples: dict[str, list[tuple[int, int]]] = {}
        #: Open spans, innermost last; each holds its children's time.
        self._stack: list[list[int]] = []
        #: Time inside spans opened with no span open around them.
        self.top_ns = 0
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = 0

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def sample(self, name: str, value: int) -> None:
        self.samples.setdefault(name, []).append((os.getpid(), int(value)))

    def wrap(self, name: str, func: Callable, count: Counter | None = None,
             keep_samples: bool = False) -> Callable:
        """Return ``func`` timed as span ``name``; the original stays in
        this closure only."""
        clock = self._clock
        stack = self._stack
        stats = self.stats
        calls_key, ns_key, self_key = name + ".calls", name + ".ns", name + ".self_ns"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_ns += elapsed
                stats[calls_key] = stats.get(calls_key, 0) + 1
                stats[ns_key] = stats.get(ns_key, 0) + elapsed
                stats[self_key] = stats.get(self_key, 0) + elapsed - frame[0]
                if keep_samples:
                    tracer.sample(name, elapsed)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.add(f"{name}.{key}", value)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def wrap_method(self, name: str, cls: type, attr: str,
                    count: Counter | None = None, keep_samples: bool = False) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count, keep_samples))

    def wrap_function(self, name: str, module, attr: str,
                      count: Counter | None = None, keep_samples: bool = False,
                      prefix: str = "repro") -> Callable:
        """Wrap ``module.attr`` and rebind every by-name import of it in the
        loaded modules under ``prefix`` (``__main__`` is never touched)."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, count, keep_samples)
        self.rebind(original, wrapper, prefix)
        return wrapper

    def wrap_module(self, name: str, module, prefix: str = "repro") -> None:
        """Wrap every public function defined in ``module`` as one span."""
        functions = [
            attr for attr, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not attr.startswith("_")
        ]
        for attr in functions:
            self.wrap_function(name, module, attr, prefix=prefix)

    def rebind(self, original: object, replacement: object, prefix: str) -> None:
        """Point every global under ``prefix`` that is ``original`` at
        ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name == "__main__":
                continue
            if module_name != prefix and not module_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        """Restore every rebound attribute and drop the GC hook."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self._clock()
            return
        pause = self._clock() - self._gc_start
        self.add("runtime.gc.pause_ns", pause)
        if info.get("generation") == 2:
            # Full collections are few and hold the longest pauses.
            self.add("runtime.gc.gen2", 1)
            self.sample("runtime.gc.gen2_pause", pause)

    # -- worker folding ----------------------------------------------------

    def flat(self) -> dict[str, int]:
        """This process's totals as ``name -> int``, for the pool's provider.

        Sums are cumulative (the pool subtracts what a forked worker
        inherited); samples are emitted only for this pid, so inherited
        ones never travel back twice.
        """
        out = dict(self.stats)
        pid = os.getpid()
        for name, values in self.samples.items():
            index = 0
            for owner, value in values:
                if owner == pid:
                    out[f"{name}{_SAMPLE_SEP}{pid}:{index}"] = value
                    index += 1
        return out

    def fold(self, flat: dict[str, int]) -> None:
        """Add totals shipped back from worker processes."""
        for key, value in flat.items():
            if _SAMPLE_SEP in key:
                name, tag = key.split(_SAMPLE_SEP, 1)
                self.samples.setdefault(name, []).append((int(tag.split(":")[0]), value))
            elif value:
                self.add(key, value)

    def values(self, name: str) -> list[int]:
        return [value for _pid, value in self.samples.get(name, ())]


# -- the repro layers ----------------------------------------------------------

def _none_result(args, kwargs, result) -> dict[str, int]:
    return {"nones": int(result is None)}


def _sized_arg(key: str, param: str):
    """Count the length of a method's first argument (after ``self``)."""
    def count(args, kwargs, result) -> dict[str, int]:
        return {key: len(args[1] if len(args) > 1 else kwargs[param])}
    return count


def _trace_batch_counts(args, kwargs, result) -> dict[str, int]:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return {"requests": len(requests), "nones": sum(1 for r in result if r is None)}


def _match_counts(args, kwargs, result) -> dict[str, int]:
    return {"matched": len(result.matched), "tests": result.total_tests}


def _load_counts(args, kwargs, result) -> dict[str, int]:
    return {"hits": int(result is not None)}


def _store_counts(args, kwargs, result) -> dict[str, int]:
    from repro.util import artifact_cache

    kind = args[0] if args else kwargs["kind"]
    key = args[1] if len(args) > 1 else kwargs["key"]
    try:
        return {"bytes": artifact_cache._path_for(kind, key).stat().st_size}
    except OSError:  # cache disabled or the write failed: nothing stored
        return {"bytes": 0}


def _destination_counter() -> Counter:
    seen: set[tuple[int, int]] = set()

    def count(args, kwargs, result) -> dict[str, int]:
        key = (id(args[0]), args[2] if len(args) > 2 else kwargs["dst"])
        if key in seen:
            return {}
        seen.add(key)
        return {"destinations": 1}
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads reach.

    Imports the layer modules first so the by-name scan sees every
    importer; modules imported later read the already-wrapped attribute.
    """
    import repro.experiments  # noqa: F401  (loads every experiment module)
    import repro.experiments.common  # noqa: F401
    from repro.core import congestion, coverage, localization, matching, pipeline, tomography
    from repro.inference import alias, bdrmap, mapit
    from repro.measurement import ndt, traceroute
    from repro.net import compiled, link, tcp
    from repro.platforms import campaign
    from repro.routing import bgp, forwarding
    from repro.topology import generator
    from repro.util import artifact_cache, parallel

    def ases(args, kwargs, result) -> dict[str, int]:
        return {"ases": result.summary()["ases"]}

    def tests(args, kwargs, result) -> dict[str, int]:
        return {"tests": len(result.ndt_records)}

    fn = tracer.wrap_function
    method = tracer.wrap_method
    fn("pipeline.build_study", pipeline, "build_study")
    fn("topology.generate_internet", generator, "generate_internet", ases)
    fn("net.compiled.compile_world", compiled, "compile_world")
    method("net.compiled.prime_oracle", compiled.CompiledWorld, "prime_oracle")
    fn("net.link.provision_links", link, "provision_links")
    fn("platforms.run_ndt_campaign", campaign, "run_ndt_campaign", tests)
    method("measurement.ndt.plan", ndt.NDTRunner, "plan")
    method("measurement.ndt.complete", ndt.NDTRunner, "complete")
    method("routing.forwarding.route_flow", forwarding.Forwarder, "route_flow", _none_result)
    method("routing.forwarding.resolve_paths_batch", forwarding.Forwarder,
           "resolve_paths_batch", _sized_arg("paths", "requests"))
    method("routing.bgp.as_path", bgp.BGPRouting, "as_path", _destination_counter())
    method("measurement.traceroute.trace", traceroute.TracerouteEngine, "trace", _none_result)
    method("measurement.traceroute.trace_batch", traceroute.TracerouteEngine,
           "trace_batch", _trace_batch_counts)
    method("net.tcp.observe_batch", tcp.TCPModel, "observe_batch",
           _sized_arg("requests", "requests"))
    fn("core.matching.match", matching, "match_ndt_to_traceroutes", _match_counts)
    method("inference.mapit.infer", mapit.MapIt, "infer", _sized_arg("paths", "traces"))
    method("inference.alias.resolve", alias.AliasResolver, "resolve")
    fn("inference.bdrmap.collect_traces", bdrmap, "collect_bdrmap_traces")
    fn("inference.bdrmap.run_bdrmap", bdrmap, "run_bdrmap")
    fn("core.coverage.analysis", coverage, "coverage_analysis")
    fn("core.coverage.vp_report", coverage, "vp_coverage_report", keep_samples=True)
    fn("core.localization.localize_per_link", localization, "localize_per_link")
    tracer.wrap_module("core.tomography", tomography)
    tracer.wrap_module("core.congestion", congestion)
    fn("util.artifact_cache.load", artifact_cache, "load", _load_counts)
    fn("util.artifact_cache.store", artifact_cache, "store", _store_counts)

    original_map = parallel.parallel_map
    tracer.rebind(
        original_map,
        tracer.wrap("util.parallel.parallel_map", pool_aware(tracer, original_map)),
        "repro",
    )
    parallel.register_worker_stats(WORKER_STATS_NAME, tracer.flat)
    tracer.watch_gc()


def pool_aware(tracer: Tracer, parallel_map: Callable) -> Callable:
    """``parallel_map`` that folds its workers' totals into ``tracer``.

    Worker totals arrive only when a pool ran; a serial fallback ran in
    this process, where the wrappers already counted it.
    """
    from repro.util.parallel import pool_stats

    @functools.wraps(parallel_map)
    def pool_aware_map(func, items, *args, **kwargs):
        items = list(items)
        results = parallel_map(func, items, *args, **kwargs)
        tracer.add("util.parallel.parallel_map.units", len(items))
        stats = pool_stats()
        if stats["fallback"] is None:
            worker_stats = stats["worker_stats"]
            tracer.fold(worker_stats.get(WORKER_STATS_NAME, {}))
            tracer.add("util.parallel.folded_pools", 1)
            tracer.add("util.parallel.worker_rebuilds",
                       worker_stats.get("study_cache", {}).get("rebuilds", 0))
            if stats["chunk_skew"] is not None:
                tracer.sample("util.parallel.chunk_skew_milli", round(stats["chunk_skew"] * 1000))
            if stats["worker_peak_rss_mb"] is not None:
                tracer.sample("util.parallel.worker_peak_rss_kb",
                              round(stats["worker_peak_rss_mb"] * 1024))
        return results

    return pool_aware_map


# -- metrics -----------------------------------------------------------------------

def _frac(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by its stable name."""
    stats = tracer.stats

    def get(key: str) -> int:
        return stats.get(key, 0)

    def seconds(key: str) -> float:
        return get(key) / 1e9

    metrics: dict[str, float] = {
        "pipeline.build_study.s": seconds("pipeline.build_study.ns"),
        "topology.generate_internet.s": seconds("topology.generate_internet.ns"),
        "topology.ases": get("topology.generate_internet.ases"),
        "net.compiled.compile_world.s": seconds("net.compiled.compile_world.ns"),
        "net.compiled.prime_oracle.s": seconds("net.compiled.prime_oracle.ns"),
        "net.link.provision_links.s": seconds("net.link.provision_links.ns"),
        "platforms.run_ndt_campaign.self_s": seconds("platforms.run_ndt_campaign.self_ns"),
        "platforms.run_ndt_campaign.tests": get("platforms.run_ndt_campaign.tests"),
        "measurement.ndt.plan.self_s": seconds("measurement.ndt.plan.self_ns"),
        "measurement.ndt.complete.self_s": seconds("measurement.ndt.complete.self_ns"),
    }
    for span, extra in (
        ("routing.forwarding.route_flow", ()),
        ("routing.forwarding.resolve_paths_batch", ("paths",)),
        ("routing.bgp.as_path", ()),
        ("measurement.traceroute.trace", ()),
        ("measurement.traceroute.trace_batch", ("requests",)),
        ("net.tcp.observe_batch", ("requests",)),
        ("inference.mapit.infer", ("paths",)),
    ):
        metrics[f"{span}.calls"] = get(f"{span}.calls")
        for key in extra:
            metrics[f"{span}.{key}"] = get(f"{span}.{key}")
        metrics[f"{span}.self_s"] = seconds(f"{span}.self_ns")
    metrics["routing.forwarding.route_flow.none_frac"] = _frac(
        get("routing.forwarding.route_flow.nones"), get("routing.forwarding.route_flow.calls"))
    metrics["routing.bgp.destinations"] = get("routing.bgp.as_path.destinations")
    metrics["measurement.traceroute.trace.none_frac"] = _frac(
        get("measurement.traceroute.trace.nones"), get("measurement.traceroute.trace.calls"))
    metrics["measurement.traceroute.trace_batch.none_frac"] = _frac(
        get("measurement.traceroute.trace_batch.nones"),
        get("measurement.traceroute.trace_batch.requests"))
    metrics["core.matching.match.self_s"] = seconds("core.matching.match.self_ns")
    metrics["core.matching.matched_frac"] = _frac(
        get("core.matching.match.matched"), get("core.matching.match.tests"))
    for span in ("inference.alias.resolve", "inference.bdrmap.collect_traces",
                 "inference.bdrmap.run_bdrmap", "core.coverage.analysis",
                 "core.localization.localize_per_link", "core.tomography", "core.congestion"):
        metrics[f"{span}.self_s"] = seconds(f"{span}.self_ns")
    reports = tracer.values("core.coverage.vp_report")
    metrics["core.coverage.vp_report.p50_s"] = statistics.median(reports) / 1e9 if reports else 0.0
    metrics["core.coverage.vp_report.max_s"] = max(reports) / 1e9 if reports else 0.0
    metrics["core.coverage.vp_report.n"] = len(reports)
    metrics["util.artifact_cache.load.calls"] = get("util.artifact_cache.load.calls")
    metrics["util.artifact_cache.load.s"] = seconds("util.artifact_cache.load.ns")
    metrics["util.artifact_cache.store.calls"] = get("util.artifact_cache.store.calls")
    metrics["util.artifact_cache.store.s"] = seconds("util.artifact_cache.store.ns")
    metrics["util.artifact_cache.store.bytes"] = get("util.artifact_cache.store.bytes")
    metrics["util.artifact_cache.hit_frac"] = _frac(
        get("util.artifact_cache.load.hits"), get("util.artifact_cache.load.calls"))
    metrics["util.parallel.parallel_map.calls"] = get("util.parallel.parallel_map.calls")
    metrics["util.parallel.parallel_map.units"] = get("util.parallel.parallel_map.units")
    metrics["util.parallel.parallel_map.s"] = seconds("util.parallel.parallel_map.ns")
    skews = tracer.values("util.parallel.chunk_skew_milli")
    metrics["util.parallel.chunk_skew"] = max(skews) / 1000 if skews else 0.0
    worker_rss = tracer.values("util.parallel.worker_peak_rss_kb")
    metrics["util.parallel.worker_peak_rss_mb"] = max(worker_rss) / 1024 if worker_rss else 0.0
    metrics["util.parallel.worker_rebuilds"] = get("util.parallel.worker_rebuilds")
    metrics["runtime.gc.pause_s"] = seconds("runtime.gc.pause_ns")
    metrics["runtime.gc.gen2_collections"] = get("runtime.gc.gen2")
    pauses = tracer.values("runtime.gc.gen2_pause")
    metrics["runtime.gc.max_pause_s"] = max(pauses) / 1e9 if pauses else 0.0
    metrics["trace.untraced_remainder_s"] = max(0.0, wall_s - tracer.top_ns / 1e9)
    return metrics
