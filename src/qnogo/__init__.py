"""Numerical audits of operations no quantum machine can perform.

The package turns impossibility arguments about qubit transformations
into executable checks: exact constructions succeed on their restricted
state families, the same demands fail on the whole sphere with explicit
witness pairs, and the best achievable approximation is quantified by a
fidelity optimizer over isometric machines.

The public names below load with their submodule on first use (PEP 562),
so `import qnogo.cli` or `import qnogo.dsl` pays for nothing it does not run.
"""

import importlib

_EXPORTS = {
    "algebra": (
        "ATOL_STATE", "ATOL_VERDICT", "SUPPORTED_DIMS", "haar_unitaries", "is_unitary",
        "state_vector",
    ),
    "dsl": (
        "CheckOptions", "CompiledMachine", "Diagnostic", "UnitReport", "check_source",
        "compile_unit", "parse", "tokenize",
    ),
    "fidelity": (
        "FidelitySweepRecord", "OptimizerConfig", "QuadratureGrid",
        "optimize_fidelity", "records_to_csv", "sweep_lambda", "uniform_grid",
    ),
    "gates": (
        "cnot_computational", "hadamard", "hadamard_equatorial", "hadamard_polar",
        "unequal_gate",
    ),
    "states": (
        "Qubit", "StateSet", "complement", "ket_notation", "listed_set", "polar_set",
        "state_family",
    ),
    "verifier": (
        "MachineSpec", "SurveyResult", "TargetTransform", "Verdict", "WitnessResult",
        "check_universal_gate", "hybrid_machine", "survey_random_unitaries",
        "target_hadamard9", "witness_search",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:   # a submodule, as `import qnogo` once loaded them all
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
