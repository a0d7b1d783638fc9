"""Deterministic process-pool fan-out for per-VP and per-experiment work.

The experiment suite's heavy loops (bdrmap sweeps, coverage trace
collection, the experiment registry itself) are embarrassingly parallel
*only if* each unit of work is a pure function of its inputs. The
contract here:

* every unit carries its own configuration (and, where randomness is
  involved, its own derived seed or stream label) — no unit reads
  mutable state another unit wrote;
* work is partitioned deterministically (``ProcessPoolExecutor.map``
  with a fixed chunksize) and results are merged back in input order,
  so ``jobs=N`` output is byte-identical to ``jobs=1`` output.

Workers reuse expensive per-process state: on Linux the pool forks, so
children inherit the parent's already-built study worlds for free; under
spawn each worker builds its world on first use and the in-process memo
(:func:`repro.core.pipeline.build_study`) serves every later unit.

``set_default_jobs`` is the wiring point for ``--jobs N``: loops that
accept ``jobs=None`` fall back to it, which lets the CLI raise
parallelism without threading a parameter through every experiment
signature.

Observability rides along without touching results: when metrics or span
tracing are enabled, each pool unit is wrapped so the worker returns
``(result, metrics snapshot, span subtree)``; the parent unwraps the
results (identical to the unwrapped path) and folds the metric deltas
and span subtrees back in input order. :func:`pool_stats` reports what
the last fan-out actually did — workers used, units, and *why* it fell
back to serial when it did.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger

T = TypeVar("T")
R = TypeVar("R")

_log = get_logger(__name__)

_default_jobs = 1
#: Set in pool workers so nested fan-out degrades to serial instead of
#: spawning pools-of-pools.
_in_worker = False

#: The fan-out context of the current worker (or of the serial loop while
#: it runs): whatever picklable value the caller handed parallel_map as
#: ``context``. Units read it back with :func:`worker_context`, which is
#: what lets them ship only per-unit parameters instead of re-pickling
#: the shared configuration into every task.
_worker_context: object = None

#: Named worker-side stats providers (e.g. the study cache), registered by
#: the owning module at import time. Each provider returns a flat
#: name→count dict; parallel_map folds the per-process totals back into
#: pool_stats()["worker_stats"].
_WORKER_STATS_PROVIDERS: dict[str, Callable[[], dict[str, int]]] = {}

#: Provider totals sampled at worker init, before any setup or unit ran.
#: Stats shipped back to the parent are deltas against this base, so a
#: fork-inherited count (e.g. the study the parent built before the pool
#: started) is not misattributed to the worker.
_worker_stats_base: dict[str, dict[str, int]] = {}

_UNITS = obs_metrics.counter("parallel.units_dispatched")
_POOLS = obs_metrics.counter("parallel.pools_started")
_SERIAL = obs_metrics.counter("parallel.serial_fallbacks")
_CLAMPS = obs_metrics.counter("parallel.cpu_clamps")
_UNIT_WALL = obs_metrics.histogram("parallel.unit_wall_s")
_SKEW = obs_metrics.gauge("parallel.chunk_skew")
#: Units submitted to the current fan-out and not yet merged back; the
#: telemetry sampler graphs this as pool queue depth.
_INFLIGHT = obs_metrics.gauge("parallel.inflight_units")

#: What the most recent :func:`parallel_map` call did (see pool_stats()).
#: ``requested_workers`` is the caller's ask (--jobs after None
#: resolution); ``effective_workers`` is what actually ran after the
#: cpu clamp and the unit count were applied — the two are reported
#: distinctly so a clamped manifest entry reads unambiguously.
#: ``workers`` is kept as a legacy alias of ``effective_workers``.
_last_stats: dict[str, object] = {
    "workers": 0,
    "requested_workers": 0,
    "effective_workers": 0,
    "units": 0,
    "chunksize": 1,
    "fallback": None,
    "chunk_skew": None,
    "requested_jobs": 0,
    "cpu_clamped": False,
    "start_method": None,
    "worker_stats": {},
    "worker_peak_rss_mb": None,
}


def _peak_rss_mb() -> float:
    """This process's high-water RSS in MB (ru_maxrss is KB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_context() -> object:
    """The ``context`` value of the enclosing parallel_map call (or None)."""
    return _worker_context


def register_worker_stats(name: str, provider: Callable[[], dict[str, int]]) -> None:
    """Register a per-process stats provider surfaced via pool_stats()."""
    _WORKER_STATS_PROVIDERS[name] = provider


def _providers_raw() -> dict[str, dict[str, int]]:
    return {name: dict(provider()) for name, provider in _WORKER_STATS_PROVIDERS.items()}


def _provider_totals() -> dict[str, dict[str, int]]:
    """Per-provider counts attributable to this process's fan-out work."""
    totals: dict[str, dict[str, int]] = {}
    for name, stats in _providers_raw().items():
        base = _worker_stats_base.get(name, {})
        totals[name] = {key: value - base.get(key, 0) for key, value in stats.items()}
    return totals


def _fold_worker_stats(per_pid: dict[int, dict[str, dict[str, int]]]) -> dict[str, dict[str, int]]:
    """Sum each provider's per-process totals across worker pids."""
    folded: dict[str, dict[str, int]] = {}
    for totals in per_pid.values():
        for name, stats in totals.items():
            bucket = folded.setdefault(name, {})
            for key, value in stats.items():
                bucket[key] = bucket.get(key, 0) + value
    return folded


def set_default_jobs(jobs: int) -> None:
    """Set the process count used when a loop is called with ``jobs=None``."""
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def default_jobs() -> int:
    return _default_jobs


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` argument: None → session default, floor 1."""
    if jobs is None:
        return _default_jobs
    return max(1, int(jobs))


def validate_jobs(value: str | int) -> int:
    """Parse a user-facing ``--jobs`` value, rejecting 0/negative/garbage.

    ``resolve_jobs`` floors silently (library-friendly); the CLIs call
    this instead so ``--jobs 0`` is an error, not a surprise serial run.
    """
    try:
        jobs = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"--jobs requires an integer, got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def effective_jobs(jobs: int | None = None) -> int:
    """Worker count a fan-out would actually use, clamp included.

    Mirrors :func:`parallel_map`'s own resolution — session default for
    ``None``, cpu clamp unless ``REPRO_POOL_OVERSUBSCRIBE=1``, and serial
    inside a pool worker — so callers sizing work blocks (e.g. the
    coverage sweep's VP-block sharding) agree with the pool they feed.
    """
    if _in_worker:
        return 1
    requested = resolve_jobs(jobs)
    limit = _cpu_limit()
    return requested if limit is None else min(requested, limit)


def pool_stats() -> dict[str, object]:
    """Snapshot of the most recent fan-out (workers, units, fallback reason).

    ``requested_workers`` vs ``effective_workers`` distinguishes what the
    caller asked for from what ran (they differ when the cpu-count clamp
    or the unit count bit); ``fallback`` carries the reason when the
    fan-out degraded to serial.
    """
    return dict(_last_stats)


def _worker_init(
    trace_enabled: bool = False,
    metrics_enabled: bool | None = None,
    context: object = None,
    setup: Callable[[object], None] | None = None,
) -> None:
    global _in_worker, _worker_context, _worker_stats_base
    _in_worker = True
    _worker_context = context
    _worker_stats_base = _providers_raw()
    # Under spawn the worker never saw the parent's runtime toggles; under
    # fork it inherited them along with stale span/metric state. Both
    # start from a clean slate with the parent's enablement.
    obs_trace.set_enabled(trace_enabled)
    obs_trace.reset()
    if metrics_enabled is not None:
        obs_metrics.set_enabled(metrics_enabled)
    obs_metrics.reset()
    if setup is not None:
        # Per-worker one-time setup (e.g. build the study world) so the
        # cost is paid once per process, not once per unit.
        setup(context)


def pool_start_method() -> str:
    """The multiprocessing start method fan-outs will use.

    Fork shares the parent's built topologies copy-on-write and is the
    default wherever available; ``REPRO_POOL_START`` overrides it (e.g.
    ``REPRO_POOL_START=spawn`` to exercise the per-worker world rebuild
    on a fork platform).
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_POOL_START", "").strip()
    if override:
        if override not in methods:
            raise ValueError(
                f"REPRO_POOL_START={override!r} is not available here "
                f"(choose from {methods})"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


def _pool_context() -> multiprocessing.context.BaseContext:
    return multiprocessing.get_context(pool_start_method())


def _observed_unit(
    func: Callable[[T], R], observe: bool, item: T
) -> tuple[R, dict | None, list | None, float, int, dict, float]:
    """Pool worker wrapper: run one unit, capture its obs by-products.

    The worker's registry and span forest are reset per unit, so the
    returned snapshot/subtree describe exactly this unit; the parent
    merges them in input order, which keeps the merged span tree's shape
    independent of scheduling. Worker-stats totals are cumulative per
    process (keyed by pid on the way back), so the parent keeps the last
    value per pid and sums across pids. The worker's high-water RSS rides
    along the same way and surfaces as ``pool_stats()["worker_peak_rss_mb"]``.
    """
    if observe:
        obs_metrics.reset()
        obs_trace.reset()
    start = time.perf_counter()
    result = func(item)
    wall = time.perf_counter() - start
    snapshot = obs_metrics.snapshot() if observe else None
    subtree = obs_trace.tree() if observe else None
    return (
        result, snapshot, subtree, wall, os.getpid(), _provider_totals(),
        _peak_rss_mb(),
    )


def _cpu_limit() -> int | None:
    """Worker cap: ``os.cpu_count()``, unless oversubscription is forced.

    ``REPRO_POOL_OVERSUBSCRIBE=1`` disables the clamp — for pool-machinery
    tests on small containers, or genuinely IO-bound units.
    """
    if os.environ.get("REPRO_POOL_OVERSUBSCRIBE"):
        return None
    return os.cpu_count()


def _record_serial(
    units: int, reason: str, requested: int = 1, clamped: bool = False
) -> None:
    _SERIAL.inc()
    _UNITS.inc(units)
    _last_stats.update(
        {
            "workers": 1,
            "requested_workers": requested,
            "effective_workers": 1,
            "units": units,
            "chunksize": 1,
            "fallback": reason,
            "chunk_skew": None,
            "requested_jobs": requested,
            "cpu_clamped": clamped,
            "start_method": None,
            "worker_stats": {},
            "worker_peak_rss_mb": None,
        }
    )


def _run_serial(
    func: Callable[[T], R],
    work: list[T],
    context: object,
    setup: Callable[[object], None] | None,
) -> list[R]:
    """The serial-fallback loop, with the same context/setup contract as
    a pool worker: ``worker_context()`` reads ``context`` while units run,
    ``setup`` fires once up front, and provider deltas land in
    ``pool_stats()["worker_stats"]``."""
    global _worker_context, _worker_stats_base
    prev_context = _worker_context
    prev_base = _worker_stats_base
    _worker_context = context
    _worker_stats_base = _providers_raw()
    try:
        if setup is not None:
            setup(context)
        results = []
        _INFLIGHT.set(len(work))
        for index, item in enumerate(work):
            results.append(func(item))
            _INFLIGHT.set(len(work) - index - 1)
        _last_stats["worker_stats"] = _fold_worker_stats(
            {os.getpid(): _provider_totals()}
        )
        _last_stats["worker_peak_rss_mb"] = round(_peak_rss_mb(), 1)
        return results
    finally:
        _INFLIGHT.set(0)
        _worker_context = prev_context
        _worker_stats_base = prev_base


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int = 1,
    context: object = None,
    setup: Callable[[object], None] | None = None,
) -> list[R]:
    """``[func(item) for item in items]`` across a process pool.

    Results come back in input order regardless of completion order, so
    the merge is canonical. ``func`` must be a module-level callable and
    every item picklable. With ``jobs<=1``, a single item, or when called
    from inside a pool worker, this degrades to a plain serial loop —
    same results, no pool.

    ``context`` is a picklable value shipped to every worker exactly once
    (via the pool initializer) and readable from units through
    :func:`worker_context`; ``setup(context)`` runs once per worker
    process before its first unit. Together they let callers send shared
    configuration per *worker* instead of per *task* — the serial path
    honors the same contract, so results never depend on which path ran.
    """
    work = list(items)
    requested = resolve_jobs(jobs)
    # Clamp to the machine: oversubscribed CPU-bound workers only add
    # fork/pickle overhead (fig2 with --jobs 4 ran *slower* than serial
    # on one core). The clamp is recorded in pool_stats() and can
    # be disabled with REPRO_POOL_OVERSUBSCRIBE=1. Results are unaffected
    # either way — worker count never changes output, only wall clock.
    limit = _cpu_limit()
    jobs = requested if limit is None else min(requested, limit)
    clamped = jobs < requested
    if clamped:
        _CLAMPS.inc()
        _log.debug("clamping jobs=%d to %d cpus", requested, jobs)
    if _in_worker:
        if jobs > 1 and len(work) > 1:
            _log.debug(
                "nested fan-out of %d units inside a pool worker degrades to serial",
                len(work),
            )
        _record_serial(len(work), "nested-in-worker", requested, clamped)
        return _run_serial(func, work, context, setup)
    if jobs <= 1 or len(work) <= 1:
        if requested <= 1:
            reason = "jobs<=1"
        elif len(work) <= 1:
            reason = "single-unit"
        else:
            reason = "cpu-clamp"
        _record_serial(len(work), reason, requested, clamped)
        return _run_serial(func, work, context, setup)
    max_workers = min(jobs, len(work))
    chunksize = max(1, chunksize)
    observe = obs_metrics.enabled() or obs_trace.enabled()
    _POOLS.inc()
    _UNITS.inc(len(work))
    _last_stats.update(
        {
            "workers": max_workers,
            "requested_workers": requested,
            "effective_workers": max_workers,
            "units": len(work),
            "chunksize": chunksize,
            "fallback": None,
            "chunk_skew": None,
            "requested_jobs": requested,
            "cpu_clamped": clamped,
            "start_method": pool_start_method(),
            "worker_stats": {},
            "worker_peak_rss_mb": None,
        }
    )
    _log.debug(
        "fan-out: %d units across %d workers (chunksize %d)",
        len(work), max_workers, chunksize,
    )
    _INFLIGHT.set(len(work))
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(
                obs_trace.enabled(), obs_metrics.enabled_override(), context, setup,
            ),
        ) as pool:
            wrapped = functools.partial(_observed_unit, func, observe)
            outs = list(pool.map(wrapped, work, chunksize=chunksize))
    finally:
        _INFLIGHT.set(0)
    results: list[R] = []
    unit_walls: list[float] = []
    # Provider totals are cumulative per worker process; keeping the last
    # sample per pid and summing across pids gives pool-wide counts.
    stats_by_pid: dict[int, dict[str, dict[str, int]]] = {}
    rss_by_pid: dict[int, float] = {}
    for result, snapshot, subtree, wall, pid, totals, rss_mb in outs:
        results.append(result)
        if observe:
            obs_metrics.merge_snapshot(snapshot)
            obs_trace.attach_subtrees(subtree)
        stats_by_pid[pid] = totals
        # ru_maxrss is a high-water mark, so the last sample per pid is
        # also the max; across pids the pool-wide peak is the max of maxes.
        rss_by_pid[pid] = rss_mb
        unit_walls.append(wall)
        _UNIT_WALL.observe(wall)
    _last_stats["worker_stats"] = _fold_worker_stats(stats_by_pid)
    _last_stats["worker_peak_rss_mb"] = (
        round(max(rss_by_pid.values()), 1) if rss_by_pid else None
    )
    # Chunk skew: with map()'s deterministic round-robin chunking, the
    # per-chunk wall totals show how unevenly the units were sized —
    # max/mean of 1.0 is perfectly balanced.
    chunk_walls = [
        sum(unit_walls[i:i + chunksize]) for i in range(0, len(unit_walls), chunksize)
    ]
    mean_wall = sum(chunk_walls) / len(chunk_walls) if chunk_walls else 0.0
    skew = round(max(chunk_walls) / mean_wall, 3) if mean_wall > 0 else None
    _last_stats["chunk_skew"] = skew
    if skew is not None:
        _SKEW.set(skew)
    return results


def partition(items: Sequence[T], parts: int) -> list[list[T]]:
    """Split ``items`` into ``parts`` contiguous, deterministic slices.

    Sizes differ by at most one and concatenating the slices reproduces
    the input — the invariant ordered merges rely on.
    """
    parts = max(1, min(int(parts), len(items))) if items else 1
    base, extra = divmod(len(items), parts)
    out: list[list[T]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        out.append(list(items[start:start + size]))
        start += size
    return out
