"""Numerical audits of operations no quantum machine can perform.

The package turns impossibility arguments about qubit transformations
into executable checks: exact constructions succeed on their restricted
state families, the same demands fail on the whole sphere with explicit
witness pairs, and the best achievable approximation is quantified by a
fidelity optimizer over isometric machines.
"""

from .algebra import (
    ATOL_STATE,
    ATOL_VERDICT,
    SUPPORTED_DIMS,
    AntiUnitaryMap,
    GeneralKMap,
    apply,
    complement_map,
    conjugation,
    haar_unitaries,
    inner_product,
    is_unitary,
    operator,
    state_vector,
    tensor,
)
from .dsl import (
    CheckOptions,
    CompiledMachine,
    Diagnostic,
    SourceUnit,
    UnitReport,
    check_source,
    compile_unit,
    parse,
    pretty_print,
    tokenize,
)
from .fidelity import (
    FidelitySweepRecord,
    IsometryParam,
    OptimizerConfig,
    QuadratureGrid,
    average_fidelity,
    optimize_fidelity,
    records_to_csv,
    sweep_lambda,
    uniform_grid,
)
from .gates import (
    UnequalAmplitudes,
    cnot_computational,
    cnot_in_basis,
    hadamard,
    hadamard_equatorial,
    hadamard_polar,
    pauli_in_basis,
    unequal_gate,
)
from .states import (
    Qubit,
    StateSet,
    bloch_set,
    complement,
    equatorial_gram,
    equatorial_pair,
    equatorial_set,
    gram_pattern_residual,
    ket_notation,
    listed_set,
    polar_gram,
    polar_pair,
    polar_set,
    sample_bloch,
    state_family,
)
from .verifier import (
    MachineSpec,
    SurveyResult,
    TargetTransform,
    Verdict,
    WitnessResult,
    audit_unequal,
    check_cnot_universal,
    check_universal_gate,
    cloning_machine,
    complementing_machine,
    conjugating_machine,
    hybrid_machine,
    machine_deviation,
    machine_deviations,
    machine_output,
    survey_random_unitaries,
    target_clone,
    target_cnot,
    target_complement,
    target_conjugate,
    target_hadamard9,
    target_hadamard10,
    target_hybrid,
    target_unequal,
    target_rules,
    witness_search,
)

__version__ = "0.1.0"
