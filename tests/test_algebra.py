import numpy as np
import pytest

from qnogo.algebra import (
    ATOL_STATE,
    SUPPORTED_DIMS,
    haar_unitaries,
    is_unitary,
    state_vector,
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


def test_is_unitary():
    h = np.array([[RT2, RT2], [RT2, -RT2]], dtype=complex)
    assert is_unitary(h)
    assert not is_unitary([[1, 1], [0, 1]])


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
