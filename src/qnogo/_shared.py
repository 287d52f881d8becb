"""Names and defaults that the command line, the DSL and the library share.

Importing this module loads nothing else, so the command line can build
its parser and the DSL can parse a unit without numpy.
"""

GATE_NAMES = ("H", "HP", "HE", "CNOT")   # gates.NAMED_GATES holds their matrices

# fidelity.OptimizerConfig's defaults, and so fidelity-sweep's
OPTIMIZER_DEFAULTS = {"ancilla_dim": 2, "restarts": 8, "max_evals": 4000,
                      "method": "lbfgs", "mode": "second-register"}
