"""Invariant validation: world contracts, shape gates, generative fuzzing.

Three layers turn the repo's correctness claims from prose into
executable checks:

* :mod:`repro.validate.contracts` — invariants of any generated world
  (valley-free routing, prefix/fabric consistency, coverage numerator ⊆
  denominator, RNG stream discipline), runnable on every seed;
* :mod:`repro.validate.gates` — EXPERIMENTS.md summary verdicts as
  machine-checked assertions over experiment outputs;
* :mod:`repro.validate.strategies` — hypothesis strategies generating
  random configs and request batches for property tests.

Entry points: ``python -m repro validate --seed N`` (CLI),
:func:`validate_world` / :func:`validate_internet` (library), and the
``--validate`` flag on ``repro campaign`` / ``repro experiments``
(inline contracts during ``build_study``). Progress is observable via
``contract:<name>`` / ``gate:<name>`` spans.
"""

from repro.validate.base import CheckResult, ContractViolation, ValidationReport
from repro.validate.contracts import (
    CONTRACTS,
    WorldContext,
    check_coverage_report,
    contract,
    validate_internet,
    validate_world,
)
from repro.validate.gates import GATES, gate, gated_experiment_ids, run_gate, run_gates

__all__ = [
    "CONTRACTS",
    "CheckResult",
    "ContractViolation",
    "GATES",
    "ValidationReport",
    "WorldContext",
    "check_coverage_report",
    "contract",
    "gate",
    "gated_experiment_ids",
    "run_gate",
    "run_gates",
    "validate_internet",
    "validate_world",
]
