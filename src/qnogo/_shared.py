"""Names and defaults that the command line, the DSL and the library share.

Importing this module loads nothing else, so the command line can build
its parser and the DSL can parse a unit without numpy.
"""

GATE_NAMES = ("H", "HP", "HE", "CNOT")   # gates.NAMED_GATES holds their matrices

FAMILIES = ("bloch", "polar", "equatorial")   # states.state_family builds them
QUBIT_GATE_TARGETS = ("hadamard9", "hadamard10", "unequal")   # rules for a 2x2 gate
GATE_TARGETS = QUBIT_GATE_TARGETS + ("cnot",)   # and for a 4x4 one
MACHINE_TARGETS = ("clone", "complement", "conjugate", "hybrid")   # psi -> psi (x) K psi

# fidelity.OptimizerConfig's defaults, and so fidelity-sweep's
OPTIMIZER_DEFAULTS = {"ancilla_dim": 2, "restarts": 8, "max_evals": 4000,
                      "mode": "second-register"}
