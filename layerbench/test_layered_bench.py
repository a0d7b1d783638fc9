"""Fast checks of the benchmark's own machinery; builds no world.

    pytest layerbench/test_layered_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _clock(*readings):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_excludes_nested_wrapped_calls():
    tracer = layers.Tracer(clock=_clock(0, 10, 30, 40, 45, 100))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.stats["outer.calls"] == 1
    assert tracer.stats["outer.ns"] == 100
    assert tracer.stats["outer.self_ns"] == 100 - 20 - 5
    assert tracer.stats["inner.calls"] == 2
    assert tracer.stats["inner.ns"] == tracer.stats["inner.self_ns"] == 25
    assert tracer.top_ns == 100


def test_span_closes_when_the_call_raises():
    tracer = layers.Tracer(clock=_clock(0, 7))

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    assert tracer.stats["fails.calls"] == 1 and tracer.top_ns == 7
    assert not tracer._stack


def test_counts_come_from_arguments_and_results():
    tracer = layers.Tracer()
    wrapped = tracer.wrap("lookup", lambda self, key: None, count=layers._none_result)
    wrapped(object(), 1)
    assert tracer.stats["lookup.nones"] == 1


def _fresh_module(monkeypatch, name: str, **attrs) -> types.ModuleType:
    module = types.ModuleType(name)
    for key, value in attrs.items():
        setattr(module, key, value)
    monkeypatch.setitem(sys.modules, name, module)
    return module


def test_by_name_imports_are_rebound_and_main_is_left_alone(monkeypatch):
    def original():
        return "result"

    source = _fresh_module(monkeypatch, "lbfake.source", original=original)
    importer = _fresh_module(monkeypatch, "lbfake.importer", renamed=original)
    outsider = _fresh_module(monkeypatch, "otherpkg.importer", original=original)
    monkeypatch.setattr(sys.modules["__main__"], "lbfake_original", original, raising=False)

    tracer = layers.Tracer()
    wrapper = tracer.wrap_function("source.original", source, "original", prefix="lbfake")
    assert source.original is wrapper and importer.renamed is wrapper
    assert outsider.original is original
    assert sys.modules["__main__"].lbfake_original is original
    assert importer.renamed() == "result"
    assert tracer.stats["source.original.calls"] == 1

    tracer.uninstall()
    assert source.original is original and importer.renamed is original


def test_wrap_method_times_every_instance():
    class Engine:
        def run(self, items):
            return [None for _ in items]

    tracer = layers.Tracer()
    tracer.wrap_method("engine.run", Engine, "run", layers._sized_arg("requests", "items"))
    Engine().run([1, 2, 3])
    assert tracer.stats["engine.run.calls"] == 1
    assert tracer.stats["engine.run.requests"] == 3
    tracer.uninstall()
    assert "run" in Engine.__dict__ and not hasattr(Engine.run, "__wrapped__")


def test_flat_sends_only_this_process_samples_and_fold_adds_them():
    tracer = layers.Tracer()
    tracer.add("span.calls", 3)
    tracer.sample("span", 5)
    tracer.samples["span"].append((-1, 99))  # inherited from another process
    flat = tracer.flat()
    assert flat["span.calls"] == 3
    assert [v for k, v in flat.items() if k.startswith("span#")] == [5]

    parent = layers.Tracer()
    parent.fold(flat)
    parent.fold(flat)
    assert parent.stats["span.calls"] == 6
    assert parent.values("span") == [5, 5]


def _leaf(value: int) -> int:
    return value * value


def _unit(value: int) -> int:
    return _leaf(value)


def test_worker_stats_fold_back_through_the_pool(monkeypatch):
    from repro.util import parallel

    monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
    monkeypatch.setenv("REPRO_POOL_START", "fork")
    tracer = layers.Tracer()
    tracer.wrap_function("leaf", sys.modules[__name__], "_leaf", prefix=__name__,
                         keep_samples=True)
    tracer.add("leaf.calls", 10)  # the parent's own count, inherited by the fork
    pool_map = layers.pool_aware(tracer, parallel.parallel_map)
    parallel.register_worker_stats(layers.WORKER_STATS_NAME, tracer.flat)
    try:
        assert pool_map(_unit, range(4), jobs=2) == [0, 1, 4, 9]
    finally:
        parallel._WORKER_STATS_PROVIDERS.pop(layers.WORKER_STATS_NAME, None)
        tracer.uninstall()
    assert tracer.stats["leaf.calls"] == 14
    assert len(tracer.values("leaf")) == 4
    assert tracer.stats["util.parallel.folded_pools"] == 1
    assert tracer.stats["util.parallel.parallel_map.units"] == 4


def test_layer_metric_names_match_the_benchmark_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(layers.layer_metrics(layers.Tracer(), 0.0)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_suite_digest_ignores_timing_lines():
    first = "tab1 table\n  [tab1 in 2.0s]\n\nfig1 table\n  [fig1 in 13.5s]\n\n== 21 experiments in 42.8s total =="
    second = first.replace("2.0s", "2.3s").replace("42.8s", "39.1s")
    assert workloads.strip_timings(first) == "tab1 table\n\nfig1 table\n"
    assert workloads.strip_timings(first) == workloads.strip_timings(second)
    assert "in a table" in workloads.strip_timings("delay in a table [x in 1s] stays")


def _stats(*values):
    return bench.describe(list(values))


@pytest.mark.parametrize("new, expected", [
    ((10.0, 10.1, 10.2, 10.1, 10.0), "unchanged"),
    ((12.0, 12.1, 12.2, 12.1, 12.0), "regressed"),
    ((8.0, 8.1, 8.2, 8.1, 8.0), "improved"),
    ((7.0, 10.0, 13.0, 9.0, 11.0), "unresolved"),
])
def test_compare_verdicts(new, expected):
    base = _stats(10.0, 10.1, 10.0, 9.9, 10.0)
    assert bench.verdict(base, _stats(*new), 0.10, "lower") == expected


def test_a_wide_spread_resolves_when_every_run_is_better():
    base = _stats(10.0, 14.0, 18.0)
    assert bench.verdict(base, _stats(5.0, 6.0, 9.0), 0.10, "lower") == "improved"
    assert bench.verdict(base, _stats(5.0, 6.0, 9.0), 0.10, "higher") == "unresolved"


def test_higher_is_better_metrics_regress_downwards():
    base = _stats(100.0, 101.0, 100.0)
    assert bench.verdict(base, _stats(80.0, 81.0, 80.0), 0.10, "higher") == "regressed"


def test_compare_refuses_sets_with_different_worker_counts(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def one_set(workers):
        metrics = {m["name"]: _stats(1.0, 1.0, 1.0) for m in spec["end_to_end"]}
        return {"workloads": {"suite": {"effective_workers": workers, "failed_frac": 0.0,
                                        "end_to_end": metrics}}}

    assert bench.compare(one_set(2), one_set(2), spec) == 0
    assert "unchanged" in capsys.readouterr().out
    assert bench.compare(one_set(2), one_set(1), spec) == 2


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
