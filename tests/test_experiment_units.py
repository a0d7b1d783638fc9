"""How ``all --jobs N`` splits the experiment registry into pool units.

No world is built: ``experiment_units`` is a pure function of the ids, the
shared-product check reads the experiment sources with ``ast``, and the
dispatch test runs stub experiments under the real registry ids.
"""

from __future__ import annotations

import ast
import os
import random
import re
import time
from pathlib import Path

import pytest

import repro.experiments
import repro.experiments.__main__ as cli
from repro.experiments import (
    EXPERIMENTS,
    SHARED_PRODUCT_GROUPS,
    ExperimentResult,
    experiment_units,
)
from repro.obs import metrics, trace
from repro.util import parallel

EXPERIMENTS_DIR = Path(repro.experiments.__file__).parent

#: The memoized products of repro.experiments.common.
SHARED_PRODUCTS = ("analyzed_campaign", "coverage_reports")

REGISTRY = list(EXPERIMENTS)


def _product_readers() -> dict[tuple, set[str]]:
    """Each product call, keyed on its arguments after the study → the
    experiment ids whose module makes that call."""
    ids_of_module: dict[str, list[str]] = {}
    for experiment_id, run in EXPERIMENTS.items():
        ids_of_module.setdefault(run.__module__.rsplit(".", 1)[-1], []).append(experiment_id)
    readers: dict[tuple, set[str]] = {}
    for path in sorted(EXPERIMENTS_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in SHARED_PRODUCTS:
                continue
            ids = ids_of_module.get(path.stem)
            assert ids, f"{path.name} calls {name}() but runs no registered experiment"
            key = (
                name,
                tuple(ast.dump(arg) for arg in node.args[1:]),
                tuple((kw.arg, ast.dump(kw.value)) for kw in node.keywords),
            )
            readers.setdefault(key, set()).update(ids)
    return readers


class TestExperimentUnits:
    def test_every_id_lands_in_exactly_one_unit(self):
        members = [m for unit in experiment_units(REGISTRY) for m in unit]
        assert sorted(members) == sorted(REGISTRY)

    def test_registry_order_inside_and_across_units(self):
        shuffled = list(REGISTRY)
        random.Random(5).shuffle(shuffled)
        units = experiment_units(shuffled)
        assert units == experiment_units(REGISTRY)
        for unit in units:
            assert list(unit) == sorted(unit, key=REGISTRY.index)
        firsts = [REGISTRY.index(unit[0]) for unit in units]
        assert firsts == sorted(firsts)

    def test_groups_run_whole_and_the_rest_alone(self):
        units = experiment_units(REGISTRY)
        grouped = {m for group in SHARED_PRODUCT_GROUPS for m in group}
        assert [u for u in units if len(u) > 1] == sorted(
            SHARED_PRODUCT_GROUPS, key=lambda g: REGISTRY.index(g[0])
        )
        assert [u for u in units if len(u) == 1] == [
            (i,) for i in REGISTRY if i not in grouped
        ]

    def test_subset_keeps_only_the_requested_ids(self):
        assert experiment_units(["sec62", "tab1", "fig1"]) == [("tab1",), ("fig1", "sec62")]


class TestSharedProductReaders:
    def test_readers_of_one_product_share_a_unit(self):
        unit_of = {m: index for index, unit in enumerate(experiment_units(REGISTRY)) for m in unit}
        readers = _product_readers()
        assert len(readers) >= 3, readers  # May 2015, Figure 5, coverage
        for key, ids in readers.items():
            units = {unit_of[i] for i in ids}
            assert len(units) == 1, (
                f"{key[0]} call {key[1:]} is read by {sorted(ids)}, "
                "which all --jobs N would spread over several units"
            )

    def test_every_group_is_the_reader_set_of_one_product(self):
        shared = {frozenset(ids) for ids in _product_readers().values() if len(ids) > 1}
        assert shared == {frozenset(group) for group in SHARED_PRODUCT_GROUPS}


#: A timing line of the suite's stdout: ``  [<id> in <seconds>s]``.
TIMING = re.compile(r"^  \[(\S+) in ([0-9.]+)s\]$")

SLOW_ID, SLOW_S = "tab3", 0.3


@pytest.fixture
def stub_suite(monkeypatch, tmp_path):
    """Stub experiments under the registry's ids; each records its pid."""
    pids = tmp_path / "pids"
    pids.mkdir()

    def stub(experiment_id):
        def run():
            if experiment_id == SLOW_ID:
                time.sleep(SLOW_S)
            (pids / experiment_id).write_text(str(os.getpid()))
            return ExperimentResult(experiment_id, "stub", ["id"], [[experiment_id]])
        return run

    monkeypatch.setattr(cli, "EXPERIMENTS", {i: stub(i) for i in EXPERIMENTS})
    monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
    monkeypatch.delenv("REPRO_POOL_START", raising=False)
    monkeypatch.setattr(parallel, "_default_jobs", parallel.default_jobs())
    yield pids
    metrics.reset()
    trace.set_enabled(False)
    trace.reset()


def _run(argv, obs_dir, capsys) -> tuple[str, dict[str, float]]:
    assert cli.main([*argv, "--obs-dir", str(obs_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    timings = {m[1]: float(m[2]) for m in map(TIMING.match, lines) if m}
    kept = [line for line in lines if not TIMING.match(line) and "total ==" not in line]
    return "\n".join(kept), timings


class TestAllJobsDispatch:
    def test_units_share_a_worker_and_output_matches_serial(self, stub_suite, tmp_path, capsys):
        serial, _ = _run(["all"], tmp_path, capsys)
        fanned, timings = _run(["all", "--jobs", "2"], tmp_path, capsys)
        assert fanned == serial
        assert list(timings) == REGISTRY
        assert parallel.pool_stats()["units"] == len(experiment_units(REGISTRY))
        pid = {i: (stub_suite / i).read_text() for i in REGISTRY}
        assert len(set(pid.values()) - {str(os.getpid())}) >= 1
        for group in SHARED_PRODUCT_GROUPS:
            assert len({pid[i] for i in group}) == 1, group

    def test_each_timing_line_is_its_own_experiments_wall_time(self, stub_suite, tmp_path, capsys):
        _, timings = _run(["all", "--jobs", "2"], tmp_path, capsys)
        assert timings[SLOW_ID] >= SLOW_S - 0.05
        assert all(seconds < SLOW_S / 2 for i, seconds in timings.items() if i != SLOW_ID)
