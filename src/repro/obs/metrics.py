"""Process-local metrics registry: counters, gauges, histograms.

Instrumentation points across the pipeline (artifact cache, forwarder,
the process pool, the TCP model) grab their metric objects once at
import time and bump them on the hot path; every mutator is a no-op
behind a single module-level flag check, so ``REPRO_METRICS=0`` reduces
the whole layer to one boolean test per event.

The registry is flat (``name -> metric``) and metric objects are stable:
:func:`reset` zeroes values in place rather than replacing objects, so a
counter bound at import time keeps working across runs. Pool workers
return :func:`snapshot` payloads that the parent folds back in with
:func:`merge_snapshot` (counters add, histograms combine, gauges take
the incoming value), which is how per-worker activity survives process
boundaries without touching the workers' result payloads.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Union

try:  # numpy speeds up bulk bucket counting; the scalar path is complete.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the toolchain
    _np = None

_ENV_TOGGLE = "REPRO_METRICS"

_lock = threading.Lock()
_enabled_override: bool | None = None


def _env_enabled() -> bool:
    return os.environ.get(_ENV_TOGGLE, "1").lower() not in ("0", "false", "no", "off")


#: Hot-path flag: every mutator checks this one global before doing work.
_enabled: bool = _env_enabled()


def enabled() -> bool:
    """Whether metric mutations are recorded."""
    return _enabled


def set_enabled(value: bool | None) -> None:
    """Force collection on/off (``None`` restores the environment's choice)."""
    global _enabled, _enabled_override
    _enabled_override = value
    _enabled = _env_enabled() if value is None else value


def enabled_override() -> bool | None:
    """The programmatic override, if any (pool workers replicate it)."""
    return _enabled_override


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if _enabled:
            self.value += amount

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> int:
        return self.value


class Gauge:
    """Last-observed value (cache sizes, worker counts, skew ratios)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if _enabled:
            self.value = float(value)

    def _reset(self) -> None:
        self.value = 0.0

    def _snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming log-bucket summary of observed values.

    Aggregates (count/total/min/max/mean) plus fixed log2 buckets: a
    positive value lands in the bucket of its binary exponent — bucket
    ``b`` covers ``[2**(b-1), 2**b)`` — and non-positive values land in
    :data:`ZERO_BUCKET`. Fixed boundaries make the cross-process merge a
    plain bucket-wise addition, so merging is associative and
    commutative: merge order can never change :func:`snapshot`.

    :meth:`quantile` reads p50/p95/p99 off the cumulative bucket counts
    as the target bucket's upper bound clamped to the observed min/max —
    accurate to within a factor of two, which is what latency telemetry
    needs (is p99 8 ms or 8 s?) at the cost of one dict bump per
    observation.
    """

    #: Bucket for values <= 0 — below the exponent of the smallest
    #: subnormal float, so it can never collide with a real exponent.
    ZERO_BUCKET = -1075

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: Binary exponent -> observation count (sparse).
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = math.frexp(value)[1] if value > 0.0 else self.ZERO_BUCKET
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def observe_many(self, values) -> None:
        """Bulk :meth:`observe` for hot loops that already hold a block.

        Aggregates match a sequential ``observe`` loop: the total is
        accumulated left-to-right (bit-identical to repeated ``+=``) and
        min/max are the same comparisons. Bucket counting is vectorized
        when numpy is available — one ``frexp`` over the block instead
        of a dict bump per value.
        """
        if not _enabled:
            return
        if _np is not None and len(values) >= 32:
            arr = _np.asarray(values, dtype=_np.float64)
            floats = arr.tolist()
        else:
            arr = None
            floats = [float(value) for value in values]
        n = len(floats)
        if n == 0:
            return
        self.count += n
        total = self.total
        low = high = floats[0]
        for value in floats:
            total += value
            if value < low:
                low = value
            elif value > high:
                high = value
        self.total = total
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        buckets = self.buckets
        if arr is not None:
            exponents = _np.where(arr > 0.0, _np.frexp(arr)[1], self.ZERO_BUCKET)
            uniq, counts = _np.unique(exponents, return_counts=True)
            for bucket, bucket_count in zip(uniq.tolist(), counts.tolist()):
                bucket = int(bucket)
                buckets[bucket] = buckets.get(bucket, 0) + int(bucket_count)
        else:
            for value in floats:
                bucket = math.frexp(value)[1] if value > 0.0 else self.ZERO_BUCKET
                buckets[bucket] = buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from the buckets."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                upper = 0.0 if bucket == self.ZERO_BUCKET else 2.0 ** bucket
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to self.count

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets.clear()

    def _snapshot(self) -> dict[str, object]:
        snap: dict[str, object] = {
            "count": self.count,
            "total": round(self.total, 6),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": round(self.mean, 6),
        }
        if self.count:
            snap["p50"] = self.quantile(0.50)
            snap["p95"] = self.quantile(0.95)
            snap["p99"] = self.quantile(0.99)
            snap["buckets"] = dict(self.buckets)
        return snap

    def _merge(self, snap: dict[str, object]) -> None:
        count = int(snap.get("count") or 0)
        if count <= 0:
            # A worker that recorded nothing may ship its seed state
            # (min=inf / max=-inf); folding that in would corrupt the
            # merged extrema, so an empty snapshot merges as a no-op.
            return
        self.count += count
        self.total += float(snap.get("total", 0.0))
        low, high = snap.get("min"), snap.get("max")
        if low is not None and math.isfinite(low) and low < self.min:
            self.min = float(low)
        if high is not None and math.isfinite(high) and high > self.max:
            self.max = float(high)
        # Bucket keys arrive as ints from pickle but as strings after a
        # JSON round-trip (manifest replays); accept both.
        for bucket, bucket_count in (snap.get("buckets") or {}).items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + int(bucket_count)


Metric = Union[Counter, Gauge, Histogram]

_registry: dict[str, Metric] = {}


def _get(name: str, cls) -> Metric:
    metric = _registry.get(name)
    if metric is None:
        with _lock:
            metric = _registry.get(name)
            if metric is None:
                metric = cls(name)
                _registry[name] = metric
    if not isinstance(metric, cls):
        raise TypeError(
            f"metric {name!r} already registered as {type(metric).__name__}"
        )
    return metric


def counter(name: str) -> Counter:
    """Get-or-create the counter called ``name`` (stable object identity)."""
    return _get(name, Counter)


def gauge(name: str) -> Gauge:
    return _get(name, Gauge)


def histogram(name: str) -> Histogram:
    return _get(name, Histogram)


def reset() -> None:
    """Zero every registered metric in place (between-runs hygiene)."""
    with _lock:
        for metric in _registry.values():
            metric._reset()


def snapshot() -> dict[str, object]:
    """Name → plain-value dump of every non-empty metric, sorted by name."""
    out: dict[str, object] = {}
    for name in sorted(_registry):
        metric = _registry[name]
        if isinstance(metric, Counter) and metric.value == 0:
            continue
        if isinstance(metric, Histogram) and metric.count == 0:
            continue
        out[name] = metric._snapshot()
    return out


def merge_snapshot(snap: dict[str, object]) -> None:
    """Fold a worker's :func:`snapshot` into this process's registry."""
    for name, value in snap.items():
        if isinstance(value, dict):
            histogram(name)._merge(value)
        elif isinstance(value, float):
            gauge(name).value = value
        else:
            existing = _registry.get(name)
            if isinstance(existing, Gauge):
                existing.value = float(value)
            else:
                counter(name).value += int(value)
