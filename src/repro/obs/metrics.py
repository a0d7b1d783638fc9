"""Process-local event counters.

A counter exists only where something reads it by name: the run
manifest's ``cache`` section (``artifact_cache.*``) and the tests that
hold a campaign or a snapshot load to its counts. Instrumentation points
grab their counter once at import time and bump it where the event
happens.

The registry is flat (``name -> counter``) and counter objects are
stable: :func:`reset` zeroes values in place rather than replacing
objects, so a counter bound at import time keeps working across runs.
Pool workers return :func:`snapshot` payloads that the parent folds back
in with :func:`merge_snapshot` (counts add), which is how per-worker
activity survives process boundaries without touching the workers'
result payloads.
"""

from __future__ import annotations


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


_registry: dict[str, Counter] = {}


def counter(name: str) -> Counter:
    """Get-or-create the counter called ``name`` (stable object identity)."""
    metric = _registry.get(name)
    if metric is None:
        metric = _registry[name] = Counter(name)
    return metric


def reset() -> None:
    """Zero every registered counter in place (between-runs hygiene)."""
    for metric in _registry.values():
        metric.value = 0


def snapshot() -> dict[str, int]:
    """Name → count of every non-zero counter, sorted by name."""
    return {
        name: _registry[name].value
        for name in sorted(_registry)
        if _registry[name].value
    }


def merge_snapshot(snap: dict[str, int]) -> None:
    """Fold a worker's :func:`snapshot` into this process's registry."""
    for name, value in snap.items():
        counter(name).inc(value)
