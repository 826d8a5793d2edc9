import re
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab.algebra import Semigroup, element, gamma
from cocycle_lab.cocycles import cyclic_length, gromov_form
from cocycle_lab.families import heisenberg_delta, heisenberg_wordlength
from cocycle_lab.groups import build_cyclic, coordinates
from cocycle_lab.linalg import psd_verdict, root, schatten_norm
from cocycle_lab.matrixalg import (Superoperator, alpha_battery,
                                   clock_shift_basis, heisenberg_multiplier,
                                   lindblad_gamma_residual, lindblad_generator, matrix_poincare,
                                   matrix_poincare_ratio, matrix_worst_constant,
                                   superop_gamma, superop_gamma2, unvec, vec)
from cocycle_lab.poincare import ZeroNumeratorError, ratio_scores

from conftest import captured_objective, rand_matrix


def tr(x):
    return np.trace(x) / x.shape[0]


def test_clock_shift_basis_identities():
    basis = clock_shift_basis(3)
    assert basis.shape == (9, 3, 3)
    assert np.allclose(basis[0], np.eye(3))
    u1, v1 = basis[3], basis[1]     # u_b at s = b n, v_c at s = c
    om = np.exp(2j * np.pi / 3)
    # u v = omega v u
    assert np.allclose(u1 @ v1, om * v1 @ u1)
    with pytest.raises(ValueError, match="^clock/shift n = 1 is not an integer >= 2$"):
        clock_shift_basis(1)


def _loop_clock_shift_basis(n):
    """The loop construction, the reference: u_k = diag(omega^(k j)), v_1 e_j = e_(j+1), v_c its
    c-th power, w_s = v_c @ u_b at s = b n + c.  The exponent k j is reduced mod n, since the
    unreduced omega^(k j) drifts by 3.6e-15 at n = 6."""
    om = np.exp(2j * np.pi / n)
    j = np.arange(n)
    u = [np.diag(om ** (k * j % n)) for k in range(n)]
    v1 = np.zeros((n, n), dtype=complex)
    v1[(j + 1) % n, j] = 1.0
    v = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        v.append(v1 @ v[-1])
    return np.array([v[c] @ u[b] for b in range(n) for c in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_clock_shift_basis_matches_the_loop_construction(n):
    assert np.abs(clock_shift_basis(n) - _loop_clock_shift_basis(n)).max() <= 1e-15


CLOCK_SHIFT_2 = np.array([
    [[1, 0], [0, 1]],  # b=0, c=0
    [[0, 1], [1, 0]],  # b=0, c=1
    [[1, 0], [0, -1]],  # b=1, c=0
    [[0, -1], [1, 0]],  # b=1, c=1
])
CLOCK_SHIFT_4 = np.array([
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # b=0, c=0
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],  # b=0, c=1
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],  # b=0, c=2
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],  # b=0, c=3
    [[1, 0, 0, 0], [0, 1j, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1j]],  # b=1, c=0
    [[0, 0, 0, -1j], [1, 0, 0, 0], [0, 1j, 0, 0], [0, 0, -1, 0]],  # b=1, c=1
    [[0, 0, -1, 0], [0, 0, 0, -1j], [1, 0, 0, 0], [0, 1j, 0, 0]],  # b=1, c=2
    [[0, 1j, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1j], [1, 0, 0, 0]],  # b=1, c=3
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],  # b=2, c=0
    [[0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0]],  # b=2, c=1
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],  # b=2, c=2
    [[0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0]],  # b=2, c=3
    [[1, 0, 0, 0], [0, -1j, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1j]],  # b=3, c=0
    [[0, 0, 0, 1j], [1, 0, 0, 0], [0, -1j, 0, 0], [0, 0, -1, 0]],  # b=3, c=1
    [[0, 0, -1, 0], [0, 0, 0, 1j], [1, 0, 0, 0], [0, -1j, 0, 0]],  # b=3, c=2
    [[0, -1j, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1j], [1, 0, 0, 0]],  # b=3, c=3
])


def test_clock_shift_basis_is_exact_at_the_quarter_turns():
    """On M_2 and M_4 every entry is 0, +-1 or +-i, bit for bit."""
    assert np.array_equal(clock_shift_basis(2), CLOCK_SHIFT_2)
    assert np.array_equal(clock_shift_basis(4), CLOCK_SHIFT_4)


def test_clock_shift_orthonormality():
    prods = clock_shift_basis(4)
    for i, x in enumerate(prods):
        for j, y in enumerate(prods):
            want = 1.0 if i == j else 0.0
            assert abs(tr(x.conj().T @ y) - want) < 1e-12


def test_multiplier_diagonal_action():
    A = heisenberg_multiplier(3, "delta")
    basis = clock_shift_basis(3)
    assert np.abs(A.apply(np.eye(3))).max() < 1e-12
    x = basis[1 * 3 + 1]
    assert np.abs(A.apply(x) - 2.0 * x).max() < 1e-12
    B = heisenberg_multiplier(4, "wordlength")
    y = clock_shift_basis(4)[1 * 4 + 2]   # |1| + |2| = 3 on Z_4
    assert np.abs(B.apply(y) - 3.0 * y).max() < 1e-12
    with pytest.raises(ValueError, match='^mode = "heat" is not one of delta, wordlength$'):
        heisenberg_multiplier(3, "heat")


def test_multiplier_fix_and_gap():
    for mode in ("delta", "wordlength"):
        A = heisenberg_multiplier(4, mode)
        assert np.trace(A.fix_projector).real == pytest.approx(1.0, abs=1e-9)
        x = rand_matrix(4, 5)
        fixed = A.fix_project(x)
        assert np.abs(fixed - tr(x) * np.eye(4)).max() < 1e-10
        assert A.min_positive_eig() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("mode", ["delta", "wordlength"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multiplier_gap_is_the_least_positive_symbol_value(n, mode):
    # read off the n^2 x n^2 eigh, the gap was 0.9999999999999998 at n = 3 (delta)
    A = heisenberg_multiplier(n, mode)
    assert A.min_positive_eig() == 1.0
    reference = Superoperator(A.n, A.mat).min_positive_eig()     # no symbol: the eigh route
    assert abs(reference - 1.0) <= 1e-12


def test_superop_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        heisenberg_multiplier(14)
    with pytest.raises(ValueError, match="exceeds cap"):
        lindblad_generator([np.eye(13)])


def test_lindblad_oracles():
    a = np.diag([0.0, 1.0])
    A = lindblad_generator([a])
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    assert np.abs(A.apply(e12) - e12).max() < 1e-12
    assert np.abs(A.apply(a)).max() < 1e-12
    assert np.abs(A.apply(np.eye(2))).max() < 1e-12
    assert A.min_positive_eig() == pytest.approx(1.0, abs=1e-9)


def test_lindblad_validation():
    with pytest.raises(ValueError, match="empty"):
        lindblad_generator([])
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"a\[0\] is not Hermitian"):
        lindblad_generator([bad])
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"a\[0\] and a\[1\] do not commute"):
        lindblad_generator([x, y])
    with pytest.raises(ValueError, match="shape"):
        lindblad_generator([np.eye(2), np.eye(3)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"^a\[1\]\(1,1\) = \({bad}\+0j\) is not finite$"):
            lindblad_generator([np.eye(2), np.diag([0.0, bad])])


HILBERT_3 = 1.0 / (np.arange(3)[:, None] + np.arange(3)[None, :] + 1)


@pytest.mark.parametrize("s", [1e3, 1e6])
def test_lindblad_generator_takes_a_scaled_hilbert_matrix(s):
    """A(1) = 0 and A = A^dag hold by algebra; checked to a bare 1e-10, 1000 H_3 was rejected."""
    base = lindblad_generator([HILBERT_3])
    A = lindblad_generator([s * HILBERT_3])
    assert A.fix_dimension() == base.fix_dimension()
    want = s * s * base.min_positive_eig()
    assert abs(A.min_positive_eig() - want) <= 1e-12 * want


def test_lindblad_validation_still_rejects_scaled_bad_families():
    with pytest.raises(ValueError, match=r"^a\[0\] is not Hermitian: deviation 1\.000e\+03$"):
        lindblad_generator([1000 * np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match=r"^a\[0\] and a\[1\] do not commute"):
        lindblad_generator([1000 * np.diag([1.0, 0.0]), 1000 * np.array([[0.0, 1.0], [1.0, 0.0]])])


def test_lindblad_gamma_is_commutator_gram():
    a = [np.diag([0.0, 1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
    A = lindblad_generator(a)
    assert np.trace(A.fix_projector).real == pytest.approx(4.0, abs=1e-9)
    for i in range(10):
        x = rand_matrix(4, 20 + i)
        want = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in a)
        got = superop_gamma(A, x, x)
        assert np.abs(got - want).max() < 1e-10


def _generators():
    """The M_2..M_4 multipliers in both modes and the Lindblad families of these tests."""
    for n in (2, 3, 4):
        for mode in ("delta", "wordlength"):
            yield heisenberg_multiplier(n, mode)
    for family in ([np.diag([0.0, 1.0])], [np.diag([0.0, 1.0, 2.0])], [HILBERT_3],
                   [1e3 * HILBERT_3],
                   [np.diag([0.0, 1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])]):
        yield lindblad_generator(family)


def test_superop_gamma_is_bit_identical_to_the_written_out_formula():
    """superop_gamma, bakry_emery at k = 1, has the bits of the written-out formula
    (A(x^dag) y + x^dag A(y) - A(x^dag y))/2, on one matrix and on a stack."""
    for A in _generators():
        x = np.stack([rand_matrix(A.n, 60 + i) for i in range(3)])
        y = np.stack([rand_matrix(A.n, 70 + i) for i in range(3)])
        for a, b in ((x[0], y[0]), (x, y)):
            ad = np.swapaxes(a.conj(), -1, -2)
            want = 0.5 * (A.apply(ad) @ b + ad @ A.apply(b) - A.apply(ad @ b))
            assert np.array_equal(superop_gamma(A, a, b), want)


def test_generators_commute_with_the_adjoint():
    """A(x^dag) = A(x)^dag to rounding: bakry_emery takes (Ax)^dag to be A(x^dag)."""
    for A in _generators():
        for i in range(5):
            x = rand_matrix(A.n, 90 + i)
            want = A.apply(x).conj().T
            assert np.abs(A.apply(x.conj().T) - want).max() <= 1e-13 * np.abs(A.mat).max()


def test_gamma_positivity_both_kinds():
    gens = [heisenberg_multiplier(3, "delta"),
            lindblad_generator([np.diag([0.0, 1.0, 2.0])])]
    for A in gens:
        for i in range(10):
            x = rand_matrix(3, 40 + i)
            g = superop_gamma(A, x, x)
            w = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
            assert w[0] >= -1e-10 * (1.0 + abs(w[-1]))
            g2 = superop_gamma2(A, x, x)
            assert np.abs(g2 - g2.conj().T).max() < 1e-10
    with pytest.raises(ValueError, match="3x3"):
        superop_gamma(gens[0], np.eye(2), np.eye(2))


def test_fix_projection_properties():
    for A in (heisenberg_multiplier(3, "delta"),
              lindblad_generator([np.diag([0.0, 1.0])])):
        P = A.fix_projector
        assert np.abs(P @ P - P).max() < 1e-10
        for t in (0.1, 1.0):
            E = A.expm(t)
            assert np.abs(P @ E - E @ P).max() < 1e-9
        x = rand_matrix(A.n, 60)
        assert abs(tr(A.fix_project(x)) - tr(x)) < 1e-12


def test_expm_semigroup_and_decay():
    A = heisenberg_multiplier(2, "delta")
    assert np.abs(A.expm(0.0) - np.eye(4)).max() < 1e-12
    assert np.abs(A.expm(0.9) - A.expm(0.5) @ A.expm(0.4)).max() < 1e-12
    x = clock_shift_basis(2)[1 * 2 + 1]   # symbol value 2
    for t in (0.3, 1.0):
        flowed = unvec(A.expm(t) @ vec(x), 2)
        assert np.abs(flowed - np.exp(-2.0 * t) * x).max() < 1e-12


@pytest.mark.parametrize("A", [heisenberg_multiplier(2, "delta"),
                               heisenberg_multiplier(2, "wordlength"),
                               heisenberg_multiplier(3, "delta"),
                               heisenberg_multiplier(3, "wordlength"),
                               lindblad_generator([np.diag([0.0, 1.0, 0.0, 1.0]),
                                                   np.diag([0.0, 0.0, 1.0, 1.0])]),
                               lindblad_generator([np.array([[0.0, 1.0], [1.0, 0.0]])])],
                         ids=["M2-delta", "M2-wordlength", "M3-delta", "M3-wordlength",
                              "lindblad-4", "lindblad-pauli-x"])
def test_expm_matches_pade_reference(A):
    # e^{-tA} from A's eigendecomposition against scipy's Pade scaling and squaring
    for t in (0.0, 0.3, 2.0, 10.0):
        assert np.abs(A.expm(t) - scipy.linalg.expm(-t * A.mat)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, "delta"), (2, "wordlength"), (3, "delta"), (3, "wordlength")]),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_expm_semigroup_law_hypothesis(case, s, t):
    # T_s T_t = T_{s+t} on M_n
    A = heisenberg_multiplier(*case)
    assert np.abs(A.expm(s) @ A.expm(t) - A.expm(s + t)).max() < 1e-12


def _heisenberg_rep(n: int):
    """pi(a,b,c) = omega^a v_c u_b over the index order of build_heisenberg."""
    a, bc = np.divmod(np.arange(n ** 3), n * n)
    return build_cyclic(n).characters[1, a, None, None] * clock_shift_basis(n)[bc]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mode,psi_fn", [("delta", heisenberg_delta),
                                         ("wordlength", heisenberg_wordlength)])
def test_heisenberg_group_to_matrix_transport(n, mode, psi_fn):
    # pi intertwines the group-side and matrix-side semigroup structures
    psi = psi_fn(n)
    g = psi.group
    Pi = _heisenberg_rep(n)
    for s in range(g.order):
        for t in range(g.order):
            assert np.abs(Pi[s] @ Pi[t] - Pi[g.mul[s, t]]).max() < 1e-12
    A = heisenberg_multiplier(n, mode)
    for s in range(g.order):
        assert np.abs(A.apply(Pi[s]) - psi.values[s] * Pi[s]).max() < 1e-10
    sg = Semigroup(psi)
    rng = np.random.default_rng(17)
    for _ in range(3):
        fc = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        hc = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        f = element(g, fc)
        h = element(g, hc)
        lhs = superop_gamma(A, np.einsum("g,gij->ij", fc, Pi),
                            np.einsum("g,gij->ij", hc, Pi))
        rhs = np.einsum("g,gij->ij", gamma(sg, f, h).coeffs, Pi)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_matrix_ratio_rejects_fixed_points():
    A = heisenberg_multiplier(2, "delta")
    with pytest.raises(ValueError, match="zero numerator"):
        matrix_poincare_ratio(A, np.eye(2, dtype=complex), 2.0)
    with pytest.raises(ValueError, match="^p = 1.0 is not a number >= 2$"):
        matrix_poincare_ratio(A, rand_matrix(2, 80), 1.0)
    with pytest.raises(ValueError, match="^p = 1.0 is not a number >= 2$"):
        matrix_worst_constant(A, 1.0, budget=10)


def test_matrix_worst_constant_needs_a_gap():
    """A generator that fixes every matrix has no witness to score: no certified 0."""
    A = lindblad_generator([np.eye(2)])
    assert A.fix_dimension() == 4
    with pytest.raises(ValueError, match="^generator is identically 0: no spectral gap$"):
        matrix_worst_constant(A, 4.0, budget=200)


def test_matrix_worst_constant_p2():
    A = heisenberg_multiplier(2, "delta")
    val, witness, _ = matrix_worst_constant(A, 2.0, budget=4000, seed=0)
    # best L_2 constant is (min positive symbol)^{-1/2} = 1
    assert abs(val - 1.0) < 5e-3
    assert matrix_poincare_ratio(A, witness, 2.0) == pytest.approx(val)


def _reference_matrix_ratio(A, x, p):
    """Ratio of one witness from plain SVDs, with E_Fix from a null-space basis of A."""
    def norm(M, q):
        return np.mean(np.linalg.svd(M, compute_uv=False) ** q) ** (1.0 / q)

    N = scipy.linalg.null_space(A.mat, rcond=1e-10)
    x0 = x - (N @ (N.conj().T @ x.reshape(-1))).reshape(A.n, A.n)
    x0d = x0.conj().T
    den = max(norm(superop_gamma(A, x0, x0), p / 2), norm(superop_gamma(A, x0d, x0d), p / 2))
    return norm(x0, p) / np.sqrt(den)


@pytest.mark.parametrize("A", [heisenberg_multiplier(2, "delta"),
                               heisenberg_multiplier(2, "wordlength"),
                               heisenberg_multiplier(3, "delta"),
                               heisenberg_multiplier(3, "wordlength"),
                               heisenberg_multiplier(5, "wordlength"),
                               heisenberg_multiplier(6, "delta"),
                               lindblad_generator([np.diag([0.0, 1.0, 0.0, 1.0]),
                                                   np.diag([0.0, 0.0, 1.0, 1.0])])],
                         ids=["M2-delta", "M2-wordlength", "M3-delta", "M3-wordlength",
                              "M5-wordlength", "M6-delta", "lindblad-4"])
def test_batched_matrix_ratio_matches_reference(monkeypatch, A):
    n = A.n
    X = np.array([rand_matrix(n, 90 + i) for i in range(6)])
    X[3] = 0.7 * np.eye(n)                          # a witness in the fixed-point algebra
    fun = captured_objective(monkeypatch, lambda: matrix_worst_constant(A, 4.0, budget=1))
    for p in (2.0, 5.0, 16.0):
        with pytest.raises(ValueError, match="zero numerator"):
            matrix_poincare_ratio(A, X[3], p)
        with pytest.raises(ZeroNumeratorError) as exc:
            matrix_poincare_ratio(A, X, p)
        scores = exc.value.scores
        assert scores.shape == (6,) and scores[3] == 0.0
        for i in (0, 1, 2, 4, 5):
            want = _reference_matrix_ratio(A, X[i], p)
            assert abs(scores[i] - want) <= 1e-12 * want
            assert scores[i] == matrix_poincare_ratio(A, X[i], p)
        assert np.array_equal(matrix_poincare_ratio(A, np.delete(X, 3, axis=0), p),
                              np.delete(scores, 3))
    # through the optimizer's objective the fixed-point row scores 0
    Z = X.reshape(6, n * n)
    scores = fun(np.concatenate([Z.real, Z.imag], axis=1))
    assert scores[3] == 0.0 and np.all(np.delete(scores, 3) > 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alpha_battery_matches_reference_loop(n):
    A = heisenberg_multiplier(n, "delta")
    for alpha in ((n + 2) / (2 * n), 2 * (n + 2) / (2 * n)):
        worst, verdicts = np.inf, []
        for i in range(200):
            x = rand_matrix(n, i)
            form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
            w = np.linalg.eigvalsh(0.5 * (form + form.conj().T))
            worst = min(worst, float(w[0]))
            verdicts.append(psd_verdict(w).psd)
        check = alpha_battery(A, alpha, 0, 200)
        assert check.min_eig == worst
        assert check.psd is all(verdicts)
    # twice (n+2)/(2n) breaks Gamma_2 >= alpha Gamma on the battery (-0.78, -0.36, -0.19)
    assert worst < -1e-9


def test_alpha_battery_rejects_a_non_finite_alpha_and_an_empty_battery():
    """min(inf, nan) keeps inf, so a NaN alpha would pass; zero samples would pass vacuously;
    a negative alpha follows check_element's rule."""
    A = heisenberg_multiplier(2, "delta")
    for alpha, shown in ((np.nan, "NaN"), (np.inf, "Infinity"), (-np.inf, "-Infinity"),
                         (-1.0, "-1.0")):
        with pytest.raises(ValueError, match=f"^alpha = {shown} is not a finite number >= 0$"):
            alpha_battery(A, alpha, 0, 200)
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"^samples = {samples} is not an integer >= 1$"):
            alpha_battery(A, 1.0, 0, samples)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lindblad_gamma_residual_matches_reference_loop(n):
    fam = [np.diag(np.arange(n) % 2.0), np.diag(np.arange(n) // 2 % 2.0)]
    A = lindblad_generator(fam)
    resid = 0.0
    for i in range(20):
        x = rand_matrix(n, i, unit=False)
        want = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in fam)
        resid = max(resid, float(np.abs(superop_gamma(A, x, x) - want).max()))
    assert lindblad_gamma_residual(A, fam, 0, 20) == resid
    assert resid < 1e-10


LINDBLAD_4 = [np.diag([0.0, 1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])]


@lru_cache(maxsize=None)
def _multiplier(n, mode):
    return heisenberg_multiplier(n, mode)


def _superop_route_ratio(A, x, p):
    """The ratio with both denominators from superop_gamma and schatten_norm without the
    PSD flag: the reference route of every generator."""
    x0 = x - A.fix_project(x)
    x0d = np.swapaxes(x0.conj(), -1, -2)
    return ratio_scores(schatten_norm(x0, p),
                        root(np.maximum(schatten_norm(superop_gamma(A, x0, x0), p / 2.0),
                                        schatten_norm(superop_gamma(A, x0d, x0d), p / 2.0)), 2),
                        np.abs(x).max(axis=(-2, -1)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_multiplier_records_its_symbol(n):
    """The multiplier's symbol is psi(b,c) on Z_n x Z_n at s = b n + c, left out of equality
    and with its derivation, read-only, built on first use; every other generator has none."""
    for mode in ("delta", "wordlength"):
        A = heisenberg_multiplier(n, mode)
        b, c = coordinates(n * n, (n, n))
        assert A.symbol.group.order == n * n
        assert np.array_equal(A.symbol.group.mul[b * n, c], b * n + c)
        assert np.array_equal(A.symbol.values,
                              cyclic_length(mode, b, n) + cyclic_length(mode, c, n))
        assert "derivation" not in vars(A)
        D = A.derivation
        assert vars(A)["derivation"] is D
        assert D.shape == (n, n, gromov_form(A.symbol).factor[1].shape[1] * n)
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0, 0] = 1.0
        for s, w in enumerate(clock_shift_basis(n)):
            assert np.abs(A.apply(w) - A.symbol.values[s] * w).max() < 1e-12
    for A in (lindblad_generator(LINDBLAD_4), Superoperator(2, np.zeros((4, 4), dtype=complex))):
        assert A.symbol is None and A.derivation is None
    assert Superoperator.__dataclass_fields__["symbol"].compare is False


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_twisted_products_of_the_clock_shift_basis(n):
    """w_s^dag w_(s+u) = omega^(-b_s c_u) w_u: the basis spans a twisted group algebra."""
    w = clock_shift_basis(n)
    b, c = coordinates(n * n, (n, n))
    chars = build_cyclic(n).characters
    for s in range(n * n):
        for u in range(n * n):
            t = (b[s] + b[u]) % n * n + (c[s] + c[u]) % n
            want = chars[b[s], c[u]].conj() * w[u]
            assert np.abs(w[s].conj().T @ w[t] - want).max() <= 5e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.sampled_from(["delta", "wordlength"]), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_symbol_gammas_match_the_superoperator(n, mode, k, seed):
    """sum_j D_j(x)^dag D_j(x) through A.derive matches superop_gamma(x, x) to 1e-12
    relative per matrix, at x and x^dag, for one matrix (k = 0) and stacks of k; and A.derive
    equals the dense (n^2, d n^2) map written out from the clock/shift basis to 1e-13."""
    A = _multiplier(n, mode)
    shape = (n, n) if k == 0 else (k, n, n)
    r = np.random.default_rng(seed)
    x = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    W = vec(clock_shift_basis(n))
    B = gromov_form(A.symbol).factor[1]
    dense = np.einsum("sm,sj,sk->mjk", W.conj() / n, B, W).reshape(n * n, -1)
    for y in (x, np.swapaxes(x.conj(), -1, -2)):
        D = A.derive(y)
        assert D.shape == shape[:-2] + (B.shape[1] * n, n)
        want = (vec(y) @ dense).reshape(D.shape)
        assert np.all(np.abs(D - want).max(axis=(-2, -1))
                      <= 1e-13 * np.abs(want).max(axis=(-2, -1)))
        D = D.reshape(shape[:-2] + (-1, n, n))
        g = np.einsum("...jri,...jrk->...ik", D.conj(), D)
        want = superop_gamma(A, y, y)
        assert np.all(np.abs(g - want).max(axis=(-2, -1))
                      <= 1e-12 * np.abs(want).max(axis=(-2, -1)))


def test_superoperator_checks_its_matrix():
    """Superoperator(3, np.eye(4)) once had fix_dimension() 0 and an apply that died in matmul."""
    with pytest.raises(ValueError, match=r"^a superoperator on M_3 is a \(9, 9\) matrix, "
                                         r"got shape \(4, 4\)$"):
        Superoperator(3, np.eye(4))
    for bad in (np.nan, np.inf):
        mat = np.eye(4, dtype=complex)
        mat[2, 1] = bad
        with pytest.raises(ValueError,
                           match=rf"^superoperator matrix\(2,1\) = \({bad}\+0j\) is not finite$"):
            Superoperator(2, mat)


def test_matrix_ratio_rejects_a_witness_of_the_wrong_shape():
    """Both routes name the shape up front; the symbol route once died in a matmul message."""
    for A in (heisenberg_multiplier(2, "delta"), lindblad_generator([np.diag([0.0, 1.0])])):
        for x in (rand_matrix(3, 82), np.ones((5, 3, 3)), np.ones(4), np.ones((2, 4))):
            with pytest.raises(ValueError, match=r"^arguments must be 2x2 matrices, got shape "
                                                 + re.escape(str(x.shape)) + "$"):
                matrix_poincare_ratio(A, x, 4.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_matrix_ratio_rejects_nan_p_and_non_finite_witnesses():
    x = rand_matrix(2, 81)
    for A in (heisenberg_multiplier(2, "delta"), lindblad_generator([np.diag([0.0, 1.0])])):
        with pytest.raises(ValueError, match=r"^p = NaN is not a number >= 2$"):
            matrix_poincare_ratio(A, x, float("nan"))
        with pytest.raises(ValueError, match=r"^p = NaN is not a number >= 2$"):
            matrix_worst_constant(A, float("nan"), budget=10)
    # with a symbol and without: a NaN was once named as Gamma's entry (0,0) = (nan+nanj)
    for A, (i, j) in ((heisenberg_multiplier(2, "delta"), (1, 0)),
                      (lindblad_generator([np.diag([0.0, 1.0, 3.0])]), (1, 2))):
        x = rand_matrix(A.n, 81)
        for bad in (np.nan, np.inf):
            y = x.copy()
            y[i, j] = bad
            for w, at in ((y, f"{i},{j}"), (np.stack([x, y]), f"1,{i},{j}")):
                with pytest.raises(ValueError, match=rf"^Poincare ratio input\({at}\) = "
                                                     rf"\({bad}\+0j\) is not finite$"):
                    matrix_poincare_ratio(A, w, 4.0)


@pytest.mark.parametrize("A", [heisenberg_multiplier(2, "delta"),
                               heisenberg_multiplier(3, "wordlength"),
                               lindblad_generator(LINDBLAD_4)],
                         ids=["M2-delta", "M3-wordlength", "lindblad-4"])
def test_matrix_constants_are_their_witnesses_on_the_superoperator_route(A):
    """Each matrix C_p is its witness re-scored through superop_gamma without the PSD flag,
    exactly; the optimizer's own score agrees with it to 1e-12."""
    rep = matrix_poincare(A, [2.0, 5.0, 6.0, 10.0], budget=1500, seed=0)
    for p, c, w in zip(rep.p_grid, rep.constants, rep.witnesses):
        assert c == _superop_route_ratio(A, w, p), p
        assert abs(matrix_poincare_ratio(A, w, p) - c) <= 1e-12 * c, p


def test_lindblad_scores_keep_the_superoperator_route():
    """A generator without a symbol scores exactly as the superoperator route."""
    for A in (lindblad_generator(LINDBLAD_4), lindblad_generator([np.diag([0.0, 1.0, 2.0])])):
        X = np.array([rand_matrix(A.n, 110 + i) for i in range(5)])
        for p in (2.0, 3.0, 5.0, 6.0, 16.0):
            assert np.array_equal(matrix_poincare_ratio(A, X, p), _superop_route_ratio(A, X, p))
            assert matrix_poincare_ratio(A, X[0], p) == _superop_route_ratio(A, X[0], p)
