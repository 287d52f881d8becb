import numpy as np
import pytest

from qnogo.algebra import inner_product
from qnogo.states import (
    Qubit,
    StateSet,
    _bloch_rows,
    complement,
    equatorial_pair,
    ket_notation,
    listed_set,
    polar_pair,
    polar_set,
    state_family,
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


def overlap(a, b):
    return inner_product(a.vector, b.vector)


def pair_gram(first, second):
    """[[<s1|s2>, <s1|p2>], [<p1|s2>, <p1|p2>]] for two (state, partner) pairs."""
    return np.array([[overlap(a, b) for b in second] for a in first], dtype=complex)


def test_qubit_validates_normalization():
    Qubit(0.6, 0.8)
    with pytest.raises(ValueError):
        Qubit(1.0, 1.0)
    with pytest.raises(ValueError):
        Qubit(np.inf, 0.0)
    # a modulus or its square past the largest float is refused, not an OverflowError
    for a, b in ((1e200, 0.0), (0.0, 1e155 + 1e155j), (1e308 + 1e308j, 0.0)):
        with pytest.raises(ValueError, match=r"normalized \(\|\.\|\^2 = inf\)"):
            Qubit(a, b)


def test_bloch_rows_round_trip():
    angles = [(0.3, 1.2), (2.9, 5.7), (np.pi / 2, 0.0)]
    rows = _bloch_rows(*np.array(angles).T)
    for (th, ph), (a, b) in zip(angles, rows):
        assert abs(a - np.cos(th / 2)) < 1e-12
        assert abs(b - np.sin(th / 2) * np.exp(1j * ph)) < 1e-12


def test_complement_is_orthogonal():
    q = Qubit(0.6, 0.8j)
    c = complement(q)
    assert overlap(q, c) == pytest.approx(0.0, abs=1e-12)
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
    assert overlap(s, p) == pytest.approx(0.0, abs=1e-12)
    c = complement(s)
    assert p.alpha == pytest.approx(c.alpha)
    assert p.beta == pytest.approx(c.beta)


def test_equatorial_pair_partner_is_antipodal_not_complement():
    phi = 0.9
    s, p = equatorial_pair(phi)
    assert overlap(s, p) == pytest.approx(0.0, abs=1e-12)
    # same ray as the complement but a different vector
    c = complement(s)
    assert abs(abs(overlap(s, p))) < 1e-12
    assert abs(p.alpha - c.alpha) > 0.1 or abs(p.beta - c.beta) > 0.1
    # expected literal form (|0> - e^{i phi}|1>)/sqrt(2)
    assert p.alpha == pytest.approx(RT2)
    assert p.beta == pytest.approx(-RT2 * np.exp(1j * phi))


@pytest.mark.parametrize("t1,t2", [(0.0, 0.0), (0.3, 1.9), (2.8, 0.1)])
def test_polar_gram_matches_closed_form(t1, t2):
    gram = pair_gram(polar_pair(t1), polar_pair(t2))
    assert np.max(np.abs(gram - polar_gram_closed(t1, t2))) < 1e-12


@pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (0.4, 3.3), (5.9, 1.2)])
def test_equatorial_gram_matches_closed_form(p1, p2):
    gram = pair_gram(equatorial_pair(p1), equatorial_pair(p2))
    assert np.max(np.abs(gram - equatorial_gram_closed(p1, p2))) < 1e-12


def test_pair_gram_sign_patterns_own_vs_swapped():
    g_pol = pair_gram(polar_pair(0.7), polar_pair(2.2))
    g_eq = pair_gram(equatorial_pair(0.5), equatorial_pair(4.0))
    for g in (g_pol, g_eq):
        assert abs(g[0, 0] - g[1, 1]) < 1e-12
    # polar off-diagonals are antisymmetric, equatorial ones equal
    assert abs(g_pol[0, 1] + g_pol[1, 0]) < 1e-12
    assert abs(g_eq[0, 1] - g_eq[1, 0]) < 1e-12
    # each family breaks the other family's sign pattern
    assert abs(g_pol[0, 1] - g_pol[1, 0]) > 0.1
    assert abs(g_eq[0, 1] + g_eq[1, 0]) > 0.1


def test_bloch_draws_are_seeded_and_roughly_uniform():
    s = state_family("bloch", 4000, 3)
    assert np.array_equal(s.state_vectors, state_family("bloch", 4000, 3).state_vectors)
    # <z> ~ 0 for a uniform sample
    z = np.mean(np.abs(s.state_vectors[:, 0]) ** 2 - np.abs(s.state_vectors[:, 1]) ** 2)
    assert abs(z) < 0.05
    with pytest.raises(ValueError):
        state_family("bloch", 0)


@pytest.mark.parametrize("build", [polar_set, lambda n: state_family("polar", n)],
                         ids=["polar_set", "state_family"])
def test_polar_set_covers_the_circle(build):
    ss = build(8)
    assert isinstance(ss, StateSet)
    assert len(ss) == 8
    thetas = [2 * np.arctan2(q.beta.real, q.alpha.real) for q, _ in map(ss.pair, range(8))]
    assert thetas[0] == pytest.approx(0.0)


def test_equatorial_family_size_and_partners():
    ss = state_family("equatorial", 12)
    assert len(ss) == 12
    for s, p in map(ss.pair, range(12)):
        assert overlap(s, p) == pytest.approx(0.0, abs=1e-12)


def test_bloch_family_anchors_and_determinism():
    ss = state_family("bloch", 10, 4)
    assert len(ss) == 10
    (first, _), (second, _) = ss.pair(0), ss.pair(1)
    assert first.alpha == pytest.approx(RT2) and first.beta == pytest.approx(RT2)
    assert second.beta == pytest.approx(RT2 * 1j)
    assert np.array_equal(state_family("bloch", 10, 4).state_vectors, ss.state_vectors)
    no_anchor = state_family("bloch", 10, 4, sampled=True)
    assert no_anchor.pair(0)[0] != first


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
