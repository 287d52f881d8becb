import numpy as np
import pytest

from qnogo.algebra import is_unitary, tensor
from qnogo.gates import (
    cnot_computational,
    cnot_in_basis,
    hadamard,
    hadamard_equatorial,
    hadamard_polar,
    unequal_gate,
)
from qnogo.states import Qubit, complement, equatorial_pair, polar_pair, state_family

RT2 = 1.0 / np.sqrt(2.0)


def test_fixed_matrices_are_exact():
    assert np.array_equal(hadamard, np.array([[RT2, RT2], [RT2, -RT2]]))
    assert np.array_equal(hadamard_polar, np.array([[RT2, -RT2], [RT2, RT2]]))
    assert np.array_equal(hadamard_equatorial,
                          np.diag([RT2 * (1 + 1j), RT2 * (1 - 1j)]))
    assert cnot_computational[2, 3] == 1 and cnot_computational[3, 2] == 1


@pytest.mark.parametrize("gate", [hadamard, hadamard_polar, hadamard_equatorial,
                                  cnot_computational])
def test_fixed_matrices_are_unitary(gate):
    assert is_unitary(gate)


def test_fixed_matrices_are_read_only():
    with pytest.raises(ValueError):
        hadamard[0, 0] = 2.0


def test_polar_gate_realizes_both_rules_on_its_circle():
    for theta in np.linspace(0.0, np.pi, 17, endpoint=False):
        s, p = polar_pair(float(theta))
        want_s = RT2 * (s.vector + p.vector)
        want_p = RT2 * (s.vector - p.vector)
        assert np.allclose(hadamard_polar @ s.vector, want_s, atol=1e-12)
        # the second rule is realized up to a global minus sign, which is
        # all a state check can demand
        assert np.allclose(hadamard_polar @ p.vector, -want_p, atol=1e-12)


def test_equatorial_gate_realizes_both_rules_on_its_circle():
    for phi in np.linspace(0.0, 2 * np.pi, 17, endpoint=False):
        s, p = equatorial_pair(float(phi))
        want_s = RT2 * (s.vector + 1j * p.vector)
        want_p = RT2 * (1j * s.vector + p.vector)
        assert np.allclose(hadamard_equatorial @ s.vector, want_s, atol=1e-12)
        assert np.allclose(hadamard_equatorial @ p.vector, want_p, atol=1e-12)


def test_unequal_gate_checks_its_weights():
    for weights in ((0.6, 0.9), (np.nan, 1.0), (np.inf, 0.0)):
        with pytest.raises(ValueError, match=r"do not satisfy a\^2 \+ b\^2 = 1"):
            unequal_gate(weights)


def test_unequal_gate_accepts_pairs():
    g = unequal_gate((0.6, 0.8))
    assert np.array_equal(g, [[0.6, -0.8], [0.8, 0.6]])
    assert is_unitary(g)


def test_unequal_gate_rejects_complex_weights():
    with pytest.raises(ValueError, match="real weights"):
        unequal_gate((RT2, RT2 * 1j))
    # complex type with zero imaginary part is fine
    g = unequal_gate((complex(0.6), complex(0.8)))
    assert np.array_equal(g, [[0.6, -0.8], [0.8, 0.6]])


def test_unequal_gate_realizes_rules_on_polar_circle():
    a, b = 3 / 5, 4 / 5
    g = unequal_gate((a, b))
    for theta in np.linspace(0.0, np.pi, 9, endpoint=False):
        s, p = polar_pair(float(theta))
        assert np.allclose(g @ s.vector, a * s.vector + b * p.vector, atol=1e-12)
        assert np.allclose(g @ p.vector, a * p.vector - b * s.vector, atol=1e-12)


def test_cnot_in_basis_reduces_to_computational():
    assert np.allclose(cnot_in_basis(Qubit(1.0, 0.0)), cnot_computational)


def test_cnot_in_basis_satisfies_all_four_rules():
    for q in (Qubit(*v) for v in state_family("bloch", 25, 9).state_vectors):
        g = cnot_in_basis(q)
        assert is_unitary(g)
        p = complement(q)
        u, v = q.vector, p.vector
        assert np.allclose(g @ tensor(u, u), tensor(u, u), atol=1e-12)
        assert np.allclose(g @ tensor(u, v), tensor(u, v), atol=1e-12)
        assert np.allclose(g @ tensor(v, u), tensor(v, v), atol=1e-12)
        assert np.allclose(g @ tensor(v, v), tensor(v, u), atol=1e-12)


def test_cnot_in_different_bases_disagree():
    a = cnot_in_basis(Qubit(1.0, 0.0))
    b = cnot_in_basis(Qubit(RT2, RT2))
    # no single gate serves two bases at once
    assert np.max(np.abs(a - b)) > 0.5
