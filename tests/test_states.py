import numpy as np
import pytest

from qnogo.states import (
    Qubit,
    StateSet,
    _bloch_rows,
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
)

RT2 = 1.0 / np.sqrt(2.0)


# closed-form overlaps used as oracles below; derived by hand from the
# literal amplitudes, not from the code under test
def polar_gram_closed(t1, t2):
    c = np.cos((t1 - t2) / 2.0)
    s = np.sin((t1 - t2) / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


def equatorial_gram_closed(p1, p2):
    z = np.exp(1j * (p2 - p1))
    return np.array([[(1 + z) / 2, (1 - z) / 2],
                     [(1 - z) / 2, (1 + z) / 2]], dtype=complex)


def test_qubit_validates_normalization():
    Qubit(0.6, 0.8)
    with pytest.raises(ValueError):
        Qubit(1.0, 1.0)
    with pytest.raises(ValueError):
        Qubit(np.inf, 0.0)


def test_bloch_rows_round_trip():
    angles = [(0.3, 1.2), (2.9, 5.7), (np.pi / 2, 0.0)]
    rows = _bloch_rows(*np.array(angles).T)
    for (th, ph), (a, b) in zip(angles, rows):
        assert abs(a - np.cos(th / 2)) < 1e-12
        assert abs(b - np.sin(th / 2) * np.exp(1j * ph)) < 1e-12


def test_complement_is_orthogonal():
    q = Qubit(0.6, 0.8j)
    c = complement(q)
    assert q.overlap(c) == pytest.approx(0.0, abs=1e-12)
    # twice around returns the input with a global minus sign
    cc = complement(c)
    assert cc.alpha == pytest.approx(-q.alpha)
    assert cc.beta == pytest.approx(-q.beta)


def test_circle_family_rejects_bad_input():
    polar_pair(0.0), polar_pair(np.pi), equatorial_pair(0.0)
    for theta in (-0.1, 4.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="polar parameter"):
            polar_pair(theta)
    for phi in (-0.1, 2.0 * np.pi, np.nan, -np.inf):
        with pytest.raises(ValueError, match="equatorial parameter"):
            equatorial_pair(phi)


def test_polar_pair_partner_is_complement():
    s, p = polar_pair(1.1)
    assert s.overlap(p) == pytest.approx(0.0, abs=1e-12)
    c = complement(s)
    assert p.alpha == pytest.approx(c.alpha)
    assert p.beta == pytest.approx(c.beta)


def test_equatorial_pair_partner_is_antipodal_not_complement():
    phi = 0.9
    s, p = equatorial_pair(phi)
    assert s.overlap(p) == pytest.approx(0.0, abs=1e-12)
    # same ray as the complement but a different vector
    c = complement(s)
    assert abs(abs(s.overlap(p))) < 1e-12
    assert abs(p.alpha - c.alpha) > 0.1 or abs(p.beta - c.beta) > 0.1
    # expected literal form (|0> - e^{i phi}|1>)/sqrt(2)
    assert p.alpha == pytest.approx(RT2)
    assert p.beta == pytest.approx(-RT2 * np.exp(1j * phi))


@pytest.mark.parametrize("t1,t2", [(0.0, 0.0), (0.3, 1.9), (2.8, 0.1)])
def test_polar_gram_matches_closed_form(t1, t2):
    assert np.max(np.abs(polar_gram(t1, t2) - polar_gram_closed(t1, t2))) < 1e-12


@pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (0.4, 3.3), (5.9, 1.2)])
def test_equatorial_gram_matches_closed_form(p1, p2):
    assert np.max(np.abs(equatorial_gram(p1, p2) - equatorial_gram_closed(p1, p2))) < 1e-12


def test_gram_pattern_residual_own_vs_swapped():
    g_pol = polar_gram(0.7, 2.2)
    g_eq = equatorial_gram(0.5, 4.0)
    assert gram_pattern_residual(g_pol, "polar") < 1e-12
    assert gram_pattern_residual(g_eq, "equatorial") < 1e-12
    # each family breaks the other family's sign pattern
    assert gram_pattern_residual(g_pol, "equatorial") > 0.1
    assert gram_pattern_residual(g_eq, "polar") > 0.1
    with pytest.raises(ValueError):
        gram_pattern_residual(g_pol, "spiral")


def test_sample_bloch_is_seeded_and_roughly_uniform():
    qs = sample_bloch(4000, seed=3)
    assert qs == sample_bloch(4000, seed=3)
    # <z> ~ 0 for a uniform sample
    z = np.mean([abs(q.alpha) ** 2 - abs(q.beta) ** 2 for q in qs])
    assert abs(z) < 0.05
    with pytest.raises(ValueError):
        sample_bloch(0)


def test_polar_set_covers_the_circle():
    ss = polar_set(8)
    assert isinstance(ss, StateSet)
    assert len(ss) == 8
    assert ss.name == "polar"
    thetas = [2 * np.arctan2(p[0].beta.real, p[0].alpha.real) for p in ss.pairs]
    assert thetas[0] == pytest.approx(0.0)


def test_equatorial_set_size_and_name():
    ss = equatorial_set(12)
    assert len(ss) == 12 and ss.name == "equatorial"
    for s, p in ss.pairs:
        assert s.overlap(p) == pytest.approx(0.0, abs=1e-12)


def test_bloch_set_anchors_and_determinism():
    ss = bloch_set(10, seed=4)
    assert len(ss) == 10
    first, second = ss.states()[0], ss.states()[1]
    assert first.alpha == pytest.approx(RT2) and first.beta == pytest.approx(RT2)
    assert second.beta == pytest.approx(RT2 * 1j)
    assert bloch_set(10, seed=4) == ss
    no_anchor = bloch_set(10, seed=4, anchors=False)
    assert no_anchor.states()[0] != first


def test_listed_set_requires_qubits():
    ss = listed_set([Qubit(1.0, 0.0), Qubit(0.0, 1.0)])
    assert len(ss) == 2
    with pytest.raises(TypeError):
        listed_set([np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        listed_set([])


def test_ket_notation_formats():
    assert ket_notation(Qubit(1.0, 0.0)) == "+1|0>"
    text = ket_notation(Qubit(RT2, -RT2))
    assert "|0>" in text and "-0.7071|1>" in text
    assert ket_notation(np.array([0.5, 0.5, 0.5, 0.5])).count("|") == 4
