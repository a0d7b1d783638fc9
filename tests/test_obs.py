"""The observability layer: counter semantics, JSONL logs, span trees,
the run manifest — and the invariant that none of it can change a result.
"""

from __future__ import annotations

import io
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.coverage import collect_coverage_reports
from repro.core.pipeline import build_study
from repro.obs import manifest, metrics, trace
from repro.obs.log import JSONLFormatter, configure_logging, get_logger
from repro.util import artifact_cache
from repro.util.parallel import parallel_map, pool_stats, validate_jobs

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with a quiet observability layer."""
    metrics.reset()
    trace.set_enabled(False)
    trace.reset()
    yield
    metrics.reset()
    trace.set_enabled(False)
    trace.reset()


class TestMetricsRegistry:
    def test_counter_semantics(self):
        c = metrics.counter("t.counter")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert metrics.snapshot()["t.counter"] == 5

    def test_reset_keeps_object_identity(self):
        c = metrics.counter("t.reset")
        c.inc(7)
        metrics.reset()
        assert c.value == 0
        assert metrics.counter("t.reset") is c
        c.inc()
        assert c.value == 1

    def test_snapshot_skips_empty_metrics(self):
        metrics.counter("t.zero")
        metrics.counter("t.one").inc()
        snap = metrics.snapshot()
        assert "t.zero" not in snap
        assert snap["t.one"] == 1

    def test_merge_snapshot_adds_counters(self):
        c = metrics.counter("t.merge.c")
        c.inc(2)
        metrics.merge_snapshot({"t.merge.c": 3, "t.merge.new": 4})
        assert c.value == 5
        assert metrics.counter("t.merge.new").value == 4
        # A worker's snapshot survives a reset of the parent's registry:
        # the same objects are refilled, and two workers' counts add.
        worker_snap = metrics.snapshot()
        metrics.reset()
        assert c.value == 0
        metrics.merge_snapshot(worker_snap)
        metrics.merge_snapshot(worker_snap)
        assert metrics.counter("t.merge.c") is c
        assert c.value == 10
        assert metrics.counter("t.merge.new").value == 8


class TestJSONLLogging:
    def test_round_trip_with_extra_fields(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("unit.test").info(
            "cache entry dropped", extra={"path": "/tmp/x.pkl", "kind": "campaign"}
        )
        line = stream.getvalue().strip()
        payload = json.loads(line)
        assert payload["msg"] == "cache entry dropped"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.unit.test"
        assert payload["path"] == "/tmp/x.pkl"
        assert payload["kind"] == "campaign"
        assert isinstance(payload["ts"], float)

    def test_formatter_emits_one_object_per_line(self):
        formatter = JSONLFormatter()
        record = logging.LogRecord("repro.x", logging.WARNING, "f.py", 1, "msg %d", (7,), None)
        text = formatter.format(record)
        assert "\n" not in text
        assert json.loads(text)["msg"] == "msg 7"

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_get_logger_parents_under_repro(self):
        assert get_logger("core.pipeline").name == "repro.core.pipeline"
        assert get_logger("repro.net.tcp").name == "repro.net.tcp"


class TestSpanTree:
    def test_nested_spans_record_shape_and_durations(self):
        trace.set_enabled(True)
        with trace.span("outer", kind="test"):
            with trace.span("inner-a"):
                pass
            with trace.span("inner-b"):
                pass
        tree = trace.tree()
        assert trace.shape(tree) == [["outer", [["inner-a", []], ["inner-b", []]]]]
        assert tree[0]["duration_s"] >= 0.0
        assert tree[0]["meta"] == {"kind": "test"}

    def test_disabled_spans_record_nothing(self):
        with trace.span("ghost"):
            pass
        assert trace.tree() == []

    def test_attach_subtrees_grafts_under_active_span(self):
        trace.set_enabled(True)
        with trace.span("parent"):
            trace.attach_subtrees([{"name": "worker", "duration_s": 0.5}])
        assert trace.shape() == [["parent", [["worker", []]]]]

    def test_render_includes_names_and_durations(self):
        trace.set_enabled(True)
        with trace.span("phase"):
            pass
        text = trace.render()
        assert "phase" in text
        assert "s" in text

    def test_render_shows_child_share_of_parent(self):
        tree = [{"name": "suite", "duration_s": 4.0, "children": [
            {"name": "exp", "duration_s": 1.0, "children": []},
        ]}]
        text = trace.render(tree)
        lines = text.splitlines()
        assert "(" not in lines[0]  # roots have no parent to be a share of
        assert "exp" in lines[1] and "( 25.0%)" in lines[1]

    def test_span_shape_identical_across_jobs(self, small_study, monkeypatch):
        # The determinism invariant: the merged span tree's shape (names
        # and nesting, in order) does not depend on --jobs.
        monkeypatch.setenv("REPRO_CACHE", "0")
        # Warm the study memo: a test that cleared it earlier in the
        # session would otherwise make only the first sweep's setup
        # rebuild the world (a build subtree the second tree lacks).
        build_study(small_study.config)
        shapes = {}
        for jobs in (1, 4):
            trace.set_enabled(True)
            trace.reset()
            collect_coverage_reports(small_study, alexa_count=40, jobs=jobs)
            shapes[jobs] = trace.shape()
        assert shapes[1] == shapes[4]
        assert shapes[1], "tracing recorded no spans"
        assert shapes[1][0][0] == "coverage_sweep"
        for jobs, tree_shape in shapes.items():
            assert "pipeline.build_study" not in _span_names(tree_shape), jobs


class TestManifest:
    def _payload(self):
        return manifest.build_manifest(
            ids=["fig1"],
            jobs=2,
            seed=7,
            config_digest="abc123",
            experiments={"fig1": {"status": "ok", "duration_s": 1.2}},
            metrics_snapshot={"artifact_cache.hits": 3, "artifact_cache.misses": 1},
            pool_stats={"workers": 2, "units": 1, "fallback": None},
            span_tree=[{"name": "suite", "duration_s": 1.3}],
            wall_s=1.3,
        )

    def test_schema_fields(self):
        payload = self._payload()
        assert payload["schema"] == manifest.MANIFEST_SCHEMA
        assert payload["ids"] == ["fig1"]
        assert payload["jobs"] == 2
        assert payload["seed"] == 7
        assert payload["cache"] == {"hits": 3, "misses": 1, "corrupt_drops": 0}
        assert payload["experiments"]["fig1"]["duration_s"] == 1.2
        assert payload["pool"]["workers"] == 2
        assert payload["trace"][0]["name"] == "suite"
        assert manifest.MANIFEST_SCHEMA == "repro.obs/run-manifest/v3"
        assert not {"flow_probes", "timeseries", "profile"} & set(payload)

    def test_resource_usage_present_even_with_metrics_off(self):
        # ``resource`` and ``phases`` come from getrusage and the span
        # tree, so a run that counted nothing still records them.
        payload = manifest.build_manifest(
            ids=["fig1"], jobs=1, seed=7, config_digest="abc",
            experiments={}, metrics_snapshot={}, pool_stats={},
            span_tree=[{"name": "suite", "duration_s": 1.3}], wall_s=1.3,
        )
        assert payload["metrics"] == {}
        assert payload["resource"]["peak_rss_bytes"] > 0
        assert payload["resource"]["ru_utime_s"] >= 0.0
        assert payload["phases"] == [{"phase": "suite", "wall_s": 1.3}]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the probe's units live in a -c script, which only fork can run",
    )
    def test_resource_usage_covers_pool_workers(self):
        """Workers that peak far above the parent set the manifest's peak."""
        buffer_bytes = 96 << 20
        script = textwrap.dedent(f"""
            import json, resource
            from repro.obs.manifest import resource_usage
            from repro.util.parallel import parallel_map, pool_stats

            def touch(_):
                return len(b"x" * {buffer_bytes})

            assert parallel_map(touch, [0, 1], jobs=2) == [{buffer_bytes}] * 2
            print(json.dumps({{
                "fallback": pool_stats()["fallback"],
                "self_peak_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
                "usage": resource_usage(),
            }}))
        """)
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_SRC),
            REPRO_POOL_OVERSUBSCRIBE="1",
            REPRO_POOL_START="fork",
        )
        # ru_maxrss survives fork+exec: a probe started straight from this
        # (large) test process would inherit its watermark, so a small
        # launcher in between resets the probe's floor to the launcher's.
        launcher = (
            "import subprocess, sys; "
            "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
        )
        result = subprocess.run(
            [sys.executable, "-c", launcher, script],
            check=True, capture_output=True, text=True, env=env, timeout=300,
        )
        probe = json.loads(result.stdout.strip().splitlines()[-1])
        assert probe["fallback"] is None  # a real two-worker pool ran
        assert probe["self_peak_bytes"] < buffer_bytes  # the parent alone stays below
        assert probe["usage"]["peak_rss_bytes"] >= buffer_bytes

    def test_phase_walls_flatten_top_two_levels(self):
        tree = [{"name": "suite", "duration_s": 3.0, "children": [
            {"name": "experiment:fig1", "duration_s": 2.0, "children": [
                {"name": "campaign", "duration_s": 1.9, "children": []},
            ]},
        ]}]
        rows = manifest.phase_walls(tree)
        assert rows == [
            {"phase": "suite", "wall_s": 3.0},
            {"phase": "suite/experiment:fig1", "wall_s": 2.0},
        ]

    def test_optional_sections_only_when_present(self):
        bare = self._payload()
        assert "worldgen" not in bare
        rich = manifest.build_manifest(
            ids=["fig1"], jobs=1, seed=7, config_digest="abc",
            experiments={}, metrics_snapshot={}, pool_stats={},
            span_tree=[], wall_s=0.1,
            worldgen={"peak_rss_mb": 80.0, "phases": {}},
        )
        assert rich["worldgen"]["peak_rss_mb"] == 80.0

    def test_write_creates_missing_directory(self, tmp_path):
        target = tmp_path / "deep" / "obs"
        path = manifest.write_manifest(self._payload(), target)
        assert path.exists()
        assert manifest.write_trace([], target).exists()

    def test_write_round_trip(self, tmp_path):
        path = manifest.write_manifest(self._payload(), tmp_path)
        assert path.name == "run_manifest.json"
        assert json.loads(path.read_text())["schema"] == manifest.MANIFEST_SCHEMA
        trace_path = manifest.write_trace([{"name": "suite"}], tmp_path)
        trace_payload = json.loads(trace_path.read_text())
        assert trace_payload["schema"] == manifest.TRACE_SCHEMA
        assert trace_payload["spans"][0]["name"] == "suite"


class TestPoolStats:
    def test_serial_fallback_reason(self):
        parallel_map(_identity, [1, 2, 3], jobs=1)
        stats = pool_stats()
        assert stats["fallback"] == "jobs<=1"
        assert stats["units"] == 3

    def test_single_unit_reason(self):
        parallel_map(_identity, [1], jobs=4)
        assert pool_stats()["fallback"] == "single-unit"

    def test_pool_run_records_workers_and_skew(self, monkeypatch):
        # Oversubscribe so the real pool machinery runs even on one core.
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        out = parallel_map(_identity, list(range(8)), jobs=2)
        assert out == list(range(8))
        stats = pool_stats()
        assert stats["fallback"] is None
        assert stats["workers"] == 2
        assert stats["units"] == 8
        assert stats["requested_jobs"] == 2
        assert stats["cpu_clamped"] is False
        assert stats["chunk_skew"] is None or stats["chunk_skew"] >= 1.0

    def test_cpu_clamp_records_and_falls_back(self, monkeypatch):
        from repro.util import parallel as parallel_module

        monkeypatch.delenv("REPRO_POOL_OVERSUBSCRIBE", raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        out = parallel_map(_identity, list(range(4)), jobs=4)
        assert out == list(range(4))
        stats = pool_stats()
        assert stats["fallback"] == "cpu-clamp"
        assert stats["workers"] == 1
        assert stats["requested_jobs"] == 4
        assert stats["cpu_clamped"] is True

    def test_oversubscribe_env_disables_clamp(self, monkeypatch):
        from repro.util import parallel as parallel_module

        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
        out = parallel_map(_identity, list(range(4)), jobs=2)
        assert out == list(range(4))
        stats = pool_stats()
        assert stats["fallback"] is None
        assert stats["workers"] == 2
        assert stats["cpu_clamped"] is False

    def test_validate_jobs(self):
        assert validate_jobs("4") == 4
        with pytest.raises(ValueError):
            validate_jobs(0)
        with pytest.raises(ValueError):
            validate_jobs(-2)
        with pytest.raises(ValueError):
            validate_jobs("many")


class TestCacheObservability:
    def test_corrupt_entry_warns_and_counts(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # configure_logging() (run by CLI tests in the same process) turns
        # propagation off; caplog listens on the root logger, so restore it.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        artifact_cache.set_enabled(True)
        corrupt = metrics.counter("artifact_cache.corrupt_drops")
        before = corrupt.value
        try:
            key = artifact_cache.artifact_key("unit", "obs")
            artifact_cache.store("unit", key, {"v": 1})
            path = next(tmp_path.glob("unit-*.pkl"))
            path.write_bytes(b"not a pickle")
            with caplog.at_level(logging.WARNING, logger="repro"):
                assert artifact_cache.load("unit", key) is None
        finally:
            artifact_cache.set_enabled(None)
        assert corrupt.value == before + 1
        assert any("corrupt" in rec.message for rec in caplog.records)
        assert not path.exists()

    def test_hit_and_miss_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.set_enabled(True)
        hits = metrics.counter("artifact_cache.hits")
        misses = metrics.counter("artifact_cache.misses")
        h0, m0 = hits.value, misses.value
        try:
            key = artifact_cache.artifact_key("unit", "hm")
            assert artifact_cache.load("unit", key) is None
            artifact_cache.store("unit", key, [1, 2, 3])
            assert artifact_cache.load("unit", key) == [1, 2, 3]
        finally:
            artifact_cache.set_enabled(None)
        assert misses.value == m0 + 1
        assert hits.value == h0 + 1


def _identity(x):
    return x


def _span_names(shape_nodes) -> set[str]:
    """Every span name in a :func:`trace.shape` skeleton, at any depth."""
    names = set()
    for name, children in shape_nodes:
        names.add(name)
        names |= _span_names(children)
    return names
