import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab.cocycles import (CocycleRealization, NumericalRankError,
                                  gromov_form, is_conditionally_negative,
                                  length_function, realize_cocycle,
                                  verify_schur_identity, word_length_cocycle,
                                  word_length_psi)
from cocycle_lab.families import builtin_length, delta_psi, heisenberg_delta, walsh_length
from cocycle_lab.groups import build_cyclic

# Gromov matrix of the Z_4 word length over indices 1..3, by hand
Z4_WORD_BLOCK = np.array([[1.0, 1.0, 0.0],
                          [1.0, 2.0, 1.0],
                          [0.0, 1.0, 1.0]])

# principal 3x3 minor of the Gromov form of psi=(0,1,3,1) on Z_4; its
# determinant is -4.5, so that psi is not conditionally negative
Z4_BAD_MINOR = np.array([[1.0, 1.5, -0.5],
                         [1.5, 3.0, 1.5],
                         [-0.5, 1.5, 1.0]])


def test_length_function_validation():
    g = build_cyclic(3)
    with pytest.raises(ValueError, match="psi has shape"):
        length_function(g, [0.0, 1.0])
    with pytest.raises(ValueError, match=r"psi\(e\)"):
        length_function(g, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="negative"):
        length_function(g, [0.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="not symmetric"):
        length_function(g, [0.0, 1.0, 2.0])


def test_gromov_form_word_length_oracle():
    K = gromov_form(word_length_psi(4)).K
    assert np.array_equal(K[0], np.zeros(4))
    assert np.array_equal(K[:, 0], np.zeros(4))
    assert np.array_equal(K[1:, 1:], Z4_WORD_BLOCK)
    assert np.array_equal(np.diag(K), [0, 1, 2, 1])


def test_cn_verdicts():
    for n in (2, 3, 7, 12):
        v = is_conditionally_negative(delta_psi(n))
        assert v.verdict and v.min_eig > -1e-12
    bad = length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0])
    K = gromov_form(bad).K
    assert np.allclose(K[1:, 1:], Z4_BAD_MINOR)
    assert abs(np.linalg.det(Z4_BAD_MINOR) - (-4.5)) < 1e-12
    v = is_conditionally_negative(bad)
    assert not v.verdict and v.min_eig < -0.1


def test_realize_walsh():
    psi = walsh_length(2, 2)
    real = realize_cocycle(gromov_form(psi))
    assert real.dimension == 2
    B = real.vectors
    K = gromov_form(psi).K
    assert np.abs(B @ B.T - K).max() < 1e-9
    assert np.abs(real.psi - psi.values).max() < 1e-9
    g = psi.group
    for a in range(g.order):
        assert np.abs(real.reps[a].T @ real.reps[a] - np.eye(2)).max() < 1e-8
        for h in range(g.order):
            law = B[a] + real.reps[a] @ B[h]
            assert np.abs(law - B[g.mul[a, h]]).max() < 1e-8


def test_realize_rejects_non_psd():
    bad = length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0])
    with pytest.raises(ValueError, match="not PSD"):
        realize_cocycle(gromov_form(bad))


def test_word_length_cocycle_oracle():
    real = word_length_cocycle(4)
    assert real.dimension == 2
    assert np.array_equal(real.vectors, [[0, 0], [1, 0], [1, 1], [0, 1]])
    a1 = real.reps[1]
    assert np.array_equal(a1, [[0, -1], [1, 0]])
    assert np.array_equal(real.psi, [0, 1, 2, 1])
    g = real.group
    for a in range(4):
        for h in range(4):
            assert np.array_equal(real.vectors[a] + real.reps[a] @ real.vectors[h],
                                  real.vectors[g.mul[a, h]])


def test_word_length_cocycle_matches_gromov():
    for n in (4, 6, 10):
        real = word_length_cocycle(n)
        K = gromov_form(word_length_psi(n)).K
        assert np.array_equal(real.vectors @ real.vectors.T, K)


def test_word_length_alpha1_has_order_two_n():
    # the generator matrix is a signed shift: alpha_1^(n/2) = -1, so its
    # matrix order is 2n even though alpha is an n-periodic cocycle action
    n = 6
    real = word_length_cocycle(n)
    a1 = real.reps[1]
    assert np.array_equal(np.linalg.matrix_power(a1, n // 2), -np.eye(n // 2))
    assert np.array_equal(np.linalg.matrix_power(a1, n), np.eye(n // 2))


def test_word_length_cocycle_odd_rejected():
    with pytest.raises(ValueError, match="even n"):
        word_length_cocycle(5)
    with pytest.raises(ValueError, match="embed"):
        word_length_cocycle(7)


def test_schur_identity_exact():
    for n in (4, 6, 8, 12, 20):
        rep = verify_schur_identity(n)
        assert rep.residual == 0.0
        assert rep.terms == n // 2 - 1


def test_schur_negative_control():
    rep = verify_schur_identity(4, delta_psi(4))
    assert rep.residual == 2.0


def test_schur_input_validation():
    with pytest.raises(ValueError, match="even n >= 4"):
        verify_schur_identity(5)
    with pytest.raises(ValueError, match="order"):
        verify_schur_identity(6, delta_psi(4))


def test_heisenberg_delta_degenerate_but_cn():
    psi = heisenberg_delta(2)
    v = is_conditionally_negative(psi)
    assert v.verdict
    real = realize_cocycle(gromov_form(psi))
    # pulled back from the abelianization: central directions vanish
    assert real.dimension < psi.group.order - 1
    assert np.abs(real.psi - psi.values).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_conic_combinations_stay_cn(n, s, t):
    # nonnegative combinations of cn lengths are cn and realizable
    psi = length_function(build_cyclic(n),
                          s * delta_psi(n).values + t * word_length_psi(n).values)
    assert is_conditionally_negative(psi).verdict
    real = realize_cocycle(gromov_form(psi))
    assert np.abs(real.psi - psi.values).max() < 1e-7
    assert cocycle_law_deviation(real) < 1e-8


def cocycle_law_deviation(real: CocycleRealization) -> float:
    """max over g, h of |b(gh) - b(g) - alpha_g b(h)| and |alpha_{gh} - alpha_g alpha_h|."""
    mul, b, a = real.group.mul, real.vectors, real.reps
    law = b[mul] - b[:, None, :] - np.einsum("gij,hj->ghi", a, b)
    hom = a[mul] - np.einsum("gij,hjk->ghik", a, a)
    return max(np.abs(law).max(), np.abs(hom).max())


def test_heisenberg_realizations_obey_cocycle_law():
    for spec in ("heisenberg-delta:3", "heisenberg-wordlength:3"):
        assert cocycle_law_deviation(realize_cocycle(gromov_form(builtin_length(spec)))) < 1e-8
