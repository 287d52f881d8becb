import numpy as np
import pytest

from qnogo.algebra import (
    ATOL_STATE,
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

RT2 = 1.0 / np.sqrt(2.0)


def test_state_vector_accepts_supported_dims():
    for d in SUPPORTED_DIMS:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        out = state_vector(v)
        assert out.shape == (d,)
        assert out.dtype == complex


def test_state_vector_rejects_unsupported_dims():
    with pytest.raises(ValueError):
        state_vector([1.0, 0.0, 0.0])  # dim 3


def test_state_vector_enforces_normalization():
    with pytest.raises(ValueError):
        state_vector([1.0, 1.0])
    # unnormalized allowed when asked
    v = state_vector([1.0, 1.0], normalized=False)
    assert np.allclose(v, [1.0, 1.0])


def test_inner_product_conjugates_first_argument():
    u = state_vector([RT2, RT2 * 1j])
    v = state_vector([RT2, -RT2 * 1j])
    assert inner_product(u, v) == pytest.approx(np.vdot(u, v))
    assert inner_product(u, u) == pytest.approx(1.0)


def test_tensor_matches_kron():
    a = state_vector([1.0, 0.0])
    b = state_vector([RT2, RT2])
    assert np.allclose(tensor(a, b), np.kron(a, b))
    assert tensor(a, b, a).shape == (8,)


def test_apply_shapes():
    h = operator([[RT2, RT2], [RT2, -RT2]])
    assert np.allclose(apply(h, state_vector([1.0, 0.0])), [RT2, RT2])
    with pytest.raises(ValueError):
        apply(h, np.ones(4) / 2.0)


def test_is_unitary():
    h = operator([[RT2, RT2], [RT2, -RT2]])
    assert is_unitary(h)
    assert not is_unitary([[1, 1], [0, 1]])


def test_conjugation_is_antilinear():
    k = conjugation()
    v = state_vector([RT2, RT2 * 1j])
    assert np.allclose(k(v), v.conj())
    # K(c v) = c* K(v)
    c = 0.3 + 0.4j
    assert np.allclose(k(c * v), np.conj(c) * k(v))


def test_complement_map_orthogonality():
    cm = complement_map()
    v = state_vector([0.6, 0.8j])
    w = cm(v)
    assert inner_product(v, w) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_antiunitary_composition_preserves_norm():
    u = haar_unitaries(1, seed=5)[0]
    m = AntiUnitaryMap(u)
    v = state_vector([0.28, np.sqrt(1 - 0.28**2) * np.exp(1.1j)])
    assert np.linalg.norm(m(v)) == pytest.approx(1.0)
    # overlaps conjugate under an antiunitary map
    w = state_vector([RT2, -RT2])
    assert inner_product(m(v), m(w)) == pytest.approx(np.conj(inner_product(v, w)))


def test_general_kmap_mixes_linear_and_antilinear():
    g = GeneralKMap(lam=1.0)
    v = state_vector([0.6, 0.8j])
    assert np.allclose(g(v), v)  # lam=1 is the identity branch by default
    g0 = GeneralKMap(lam=0.0)
    assert np.linalg.norm(g0(v)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        GeneralKMap(lam=1.5)


def test_haar_unitaries_are_unitary_and_seeded():
    batch = haar_unitaries(8, seed=11)
    assert batch.shape == (8, 2, 2)
    for u in batch:
        assert is_unitary(u)
    again = haar_unitaries(8, seed=11)
    assert np.array_equal(batch, again)
    assert not np.array_equal(batch, haar_unitaries(8, seed=12))


def test_atol_state_is_strict():
    # barely-off normalization inside ATOL_STATE passes; twice the tolerance off is refused
    state_vector(np.array([1.0 + ATOL_STATE / 2, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        state_vector(np.array([1.0 + 2 * ATOL_STATE, 0.0]))
