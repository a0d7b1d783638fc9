"""The committed ``experiments_output.txt`` is the pinned suite's stdout.

The benchmark pins the digest of ``python -m repro.experiments all``'s
stdout minus its timing lines; the committed copy must hash to the same
value, or it has drifted from what the program prints (regenerate it
with ``make experiments``).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layerbench_workloads():
    name = "layerbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "layerbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_committed_output_matches_pinned_suite_digest():
    workloads = _layerbench_workloads()
    text = (ROOT / "experiments_output.txt").read_text(encoding="utf-8")
    pinned = json.loads((ROOT / "layerbench" / "pinned.json").read_text())["suite"]["*"]
    assert workloads._sha256([workloads.strip_timings(text)]) == pinned
