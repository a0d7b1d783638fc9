"""Observability layer: logging, counters, tracing and the run manifest.

``repro.obs`` is the cross-cutting instrumentation the measurement
pipeline reports through. It never feeds back into results: counters and
spans live *beside* experiment outputs, so a traced run is byte-identical
to an untraced one.

Sub-modules:

* :mod:`repro.obs.log` — stdlib logging with an optional JSONL formatter,
  wired to ``--log-level`` / ``--log-json`` on the CLIs;
* :mod:`repro.obs.metrics` — process-local event counters, kept only
  where something reads them by name (the manifest's ``cache`` section,
  the campaign and snapshot tests);
* :mod:`repro.obs.trace` — ``span("phase")`` timing trees, merged
  deterministically across pool workers and rendered by ``--trace``;
* :mod:`repro.obs.manifest` — the ``run_manifest.json`` / ``trace.json``
  writers (schema v3: resource usage + per-phase wall-clock).

Spans that time exactly what a layerbench metric times carry that
metric's prefix (``pipeline.build_study``, ``topology.generate_internet``,
``net.link.provision_links``, ``core.coverage.vp_report``,
``inference.bdrmap.collect_traces``, ``core.coverage.analysis``), so the
span tree (``trace.json``, the manifest's ``trace`` section) and the
benchmark speak one layer vocabulary.
The validation subsystem traces each check as a ``contract:<name>`` or
``gate:<name>`` span under ``validate_world``.
"""

from repro.obs.log import JSONLFormatter, configure_logging, get_logger
from repro.obs import metrics, trace
from repro.obs.trace import span

__all__ = [
    "JSONLFormatter",
    "configure_logging",
    "get_logger",
    "metrics",
    "span",
    "trace",
]
