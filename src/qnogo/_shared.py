"""Names and defaults that the command line, the DSL and the library share.

Importing this module loads nothing else, so the command line can build
its parser and the DSL can parse a unit without numpy.
"""

# Every name that a call clause of the DSL takes, with the argument keys it takes, as the DSL
# writes them, and the side of the gate it names or demands, 0 for none.  A target of side 0
# is a machine target, psi -> psi (x) K psi; one of side 2 or 4 is a gate target, whose
# per-state rules a candidate gate of that side must meet.  gates.NAMED_GATES holds the
# matrices of the gates that take no arguments.
REGISTRY = {
    "extend": {"linear": ((), 0), "antilinear": ((), 0), "hybrid": (("lambda",), 0)},
    "candidate": {"H": ((), 2), "HP": ((), 2), "HE": ((), 2), "CNOT": ((), 4),
                  "UG": (("a", "b"), 2)},
    "target": {"clone": ((), 0), "complement": ((), 0), "conjugate": ((), 0),
               "hybrid": (("lambda",), 0), "hadamard9": ((), 2), "hadamard10": ((), 2),
               "unequal": (("a", "b"), 2), "cnot": ((), 4)},
}

FAMILIES = ("bloch", "polar", "equatorial")   # states.state_family builds them

# fidelity.OptimizerConfig's defaults and gradings, and so fidelity-sweep's
OPTIMIZER_DEFAULTS = {"ancilla_dim": 2, "restarts": 8, "max_evals": 4000,
                      "mode": "second-register"}
MODES = ("second-register", "joint")
