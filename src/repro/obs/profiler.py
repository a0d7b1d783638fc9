"""Low-overhead sampling profiler for measurement runs.

``cProfile`` (the existing ``--profile`` flag) instruments every call
and distorts exactly the hot loops this repo spends its PRs speeding
up. This module is the production-shaped alternative: a daemon thread
polls ``sys._current_frames()`` for the target thread's stack at
``REPRO_PROFILE_HZ`` (default ~100 Hz, machine-scaled — see
:func:`default_hz`) and counts collapsed stacks. The
measured code runs unmodified — the only cost is the GIL bounce of the
sampling thread.

Output is the collapsed-stack ("folded") format flamegraph tooling
eats: one ``frame;frame;frame count`` line per distinct stack, written
to ``profile_folded.txt`` per run. Samples are also attributed to the
active :mod:`repro.obs.trace` span at sample time — each span
accumulates ``cpu_samples`` in its meta, and :meth:`annotate` converts
those to ``cpu_s`` in the serialized tree, so ``trace.json`` answers
"which phase actually burned the CPU" without a second run.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

from repro.obs import trace
from repro.obs.log import get_logger

_ENV_HZ = "REPRO_PROFILE_HZ"

_log = get_logger(__name__)

FOLDED_FILENAME = "profile_folded.txt"

#: Meta key spans accumulate sample counts under while profiled.
SPAN_SAMPLES_KEY = "cpu_samples"


def default_hz() -> float:
    """Sampling frequency: ``REPRO_PROFILE_HZ``, else machine-scaled.

    The default is ~100 Hz, but on a single-core machine every sampler
    wakeup *must* preempt the measured thread (there is nowhere else to
    run), and the context switch + GIL handoff per wake costs real wall
    time — several percent of the run on its own. There the default
    drops to 25 Hz; the env var overrides either way.
    """
    raw = os.environ.get(_ENV_HZ, "").strip()
    if raw:
        try:
            return min(1000.0, max(1.0, float(raw)))
        except ValueError:
            _log.warning("ignoring unparsable %s=%r", _ENV_HZ, raw)
    return 100.0 if (os.cpu_count() or 2) > 1 else 25.0


#: id(code) -> (code, label). Memoizing keeps the per-sample cost to
#: dict lookups — Path parsing and string formatting at 100 Hz across
#: deep stacks would cost more than the sampling itself. The cache
#: holds the code object itself so its id can never be reused.
_label_cache: dict[int, tuple[object, str]] = {}


def _frame_label(frame) -> str:
    code = frame.f_code
    entry = _label_cache.get(id(code))
    if entry is None:
        entry = (code, f"{Path(code.co_filename).stem}:{code.co_name}")
        _label_cache[id(code)] = entry
    return entry[1]


class SamplingProfiler:
    """Collapsed-stack sampler for one target thread.

    ``start()`` targets the calling thread by default (the measurement
    loop); the sampler thread never touches it beyond reading its frame
    objects, so the profiled run's results are byte-identical to an
    unprofiled run. The target is resolved to its :class:`threading.Thread`
    up front: CPython reuses the idents of joined threads, so the sampler
    thread itself may carry a dead target's ident, and only the
    ``Thread`` object knows that the target is gone.
    """

    def __init__(self, hz: float | None = None, max_depth: int = 128) -> None:
        self.hz = default_hz() if hz is None else min(1000.0, max(1.0, float(hz)))
        self.max_depth = max_depth
        self.samples = 0
        self.missed = 0
        self._counts: dict[tuple[str, ...], int] = {}
        self._span_counts: dict[str, int] = {}
        self._target: threading.Thread | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_monotonic: float | None = None
        self.wall_s = 0.0

    # -- sampling ---------------------------------------------------------

    def _sample(self) -> None:
        target = self._target
        if target is None or not target.is_alive():
            self.missed += 1
            return
        frame = sys._current_frames().get(target.ident)
        if frame is None:
            self.missed += 1
            return
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            stack.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        stack.reverse()
        key = tuple(stack)
        self._counts[key] = self._counts.get(key, 0) + 1
        self.samples += 1
        span = trace.current()
        if span is not None:
            span.meta[SPAN_SAMPLES_KEY] = span.meta.get(SPAN_SAMPLES_KEY, 0) + 1
            name = span.name
        else:
            name = "(no-span)"
        self._span_counts[name] = self._span_counts.get(name, 0) + 1

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self._sample()

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, thread_id: int | None = None) -> "SamplingProfiler":
        if self.running:
            return self
        if thread_id is None:
            self._target = threading.current_thread()
        else:
            self._target = next(
                (t for t in threading.enumerate() if t.ident == thread_id), None
            )
        self._stop.clear()
        self._started_monotonic = time.monotonic()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._started_monotonic is not None:
            self.wall_s += time.monotonic() - self._started_monotonic
            self._started_monotonic = None

    # -- output -----------------------------------------------------------

    def collapsed(self) -> list[str]:
        """``frame;frame;frame count`` lines, flamegraph-compatible."""
        return [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self._counts.items())
        ]

    def write_folded(self, directory: str | Path = ".") -> Path:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / FOLDED_FILENAME
        path.write_text("\n".join(self.collapsed()) + "\n")
        return path

    def span_cpu(self) -> dict[str, float]:
        """Span name → sampled CPU seconds (samples / hz), sorted by cost."""
        return {
            name: round(count / self.hz, 3)
            for name, count in sorted(
                self._span_counts.items(), key=lambda item: -item[1]
            )
        }

    def annotate(self, span_tree: list[dict[str, object]]) -> None:
        """Add ``cpu_s`` beside ``cpu_samples`` in a serialized span tree."""

        def walk(nodes: list[dict[str, object]]) -> None:
            for node in nodes:
                meta = node.get("meta")
                if isinstance(meta, dict) and SPAN_SAMPLES_KEY in meta:
                    meta["cpu_s"] = round(int(meta[SPAN_SAMPLES_KEY]) / self.hz, 3)
                walk(node.get("children", []))  # type: ignore[arg-type]

        walk(span_tree)

    def summary(self) -> dict[str, object]:
        """Manifest payload: volume, rate, and the heaviest leaf frames."""
        leaves: dict[str, int] = {}
        for stack, count in self._counts.items():
            if stack:
                leaves[stack[-1]] = leaves.get(stack[-1], 0) + count
        top = sorted(leaves.items(), key=lambda item: -item[1])[:10]
        return {
            "hz": self.hz,
            "samples": self.samples,
            "missed": self.missed,
            "wall_s": round(self.wall_s, 3),
            "distinct_stacks": len(self._counts),
            "top_frames": [
                {"frame": frame, "samples": count, "cpu_s": round(count / self.hz, 3)}
                for frame, count in top
            ],
            "span_cpu_s": self.span_cpu(),
        }
