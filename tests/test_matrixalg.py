import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab.algebra import Semigroup, element, gamma
from cocycle_lab.families import heisenberg_delta, heisenberg_wordlength
from cocycle_lab.matrixalg import (alpha_battery, clock_shift_basis, heisenberg_multiplier,
                                   lindblad_gamma_residual, lindblad_generator,
                                   matrix_poincare_ratio,
                                   matrix_worst_constant, multiplier_symbol,
                                   superop_gamma, superop_gamma2, unvec, vec)
from cocycle_lab.poincare import ZeroNumeratorError

from conftest import captured_objective, rand_matrix


def tr(x):
    return np.trace(x) / x.shape[0]


def test_clock_shift_basis_identities():
    basis = clock_shift_basis(3)
    assert np.allclose(basis.u[0], np.eye(3))
    assert np.allclose(basis.v[0], np.eye(3))
    om = np.exp(2j * np.pi / 3)
    # u v = omega v u
    assert np.allclose(basis.u[1] @ basis.v[1], om * basis.v[1] @ basis.u[1])
    with pytest.raises(ValueError, match="n >= 2"):
        clock_shift_basis(1)


def test_clock_shift_orthonormality():
    basis = clock_shift_basis(4)
    prods = [basis.product(b, c) for b in range(4) for c in range(4)]
    for i, x in enumerate(prods):
        for j, y in enumerate(prods):
            want = 1.0 if i == j else 0.0
            assert abs(tr(x.conj().T @ y) - want) < 1e-12


def test_multiplier_diagonal_action():
    A = heisenberg_multiplier(3, "delta")
    basis = clock_shift_basis(3)
    assert np.abs(A.apply(np.eye(3))).max() < 1e-12
    x = basis.product(1, 1)
    assert np.abs(A.apply(x) - 2.0 * x).max() < 1e-12
    B = heisenberg_multiplier(4, "wordlength")
    basis4 = clock_shift_basis(4)
    y = basis4.product(1, 2)   # |1| + |2| = 3 on Z_4
    assert np.abs(B.apply(y) - 3.0 * y).max() < 1e-12
    with pytest.raises(ValueError, match="psi_mode"):
        multiplier_symbol(3, "heat")


def test_multiplier_fix_and_gap():
    for mode in ("delta", "wordlength"):
        A = heisenberg_multiplier(4, mode)
        assert np.trace(A.fix_projector).real == pytest.approx(1.0, abs=1e-9)
        x = rand_matrix(4, 5)
        fixed = A.fix_project(x)
        assert np.abs(fixed - tr(x) * np.eye(4)).max() < 1e-10
        assert A.min_positive_eig() == pytest.approx(1.0, abs=1e-9)


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


def test_lindblad_gamma_is_commutator_gram():
    a = [np.diag([0.0, 1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
    A = lindblad_generator(a)
    assert np.trace(A.fix_projector).real == pytest.approx(4.0, abs=1e-9)
    for i in range(10):
        x = rand_matrix(4, 20 + i)
        want = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in a)
        got = superop_gamma(A, x, x)
        assert np.abs(got - want).max() < 1e-10


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
    basis = clock_shift_basis(2)
    x = basis.product(1, 1)   # symbol value 2
    for t in (0.3, 1.0):
        flowed = unvec(A.expm(t) @ vec(x), 2)
        assert np.abs(flowed - np.exp(-2.0 * t) * x).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, "delta"), (2, "wordlength"), (3, "delta"), (3, "wordlength")]),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_expm_semigroup_law_hypothesis(case, s, t):
    # T_s T_t = T_{s+t} on M_n
    A = heisenberg_multiplier(*case)
    assert np.abs(A.expm(s) @ A.expm(t) - A.expm(s + t)).max() < 1e-12


def _heisenberg_rep(n: int):
    """pi(a,b,c) = omega^a v_c u_b over the index order of build_heisenberg."""
    basis = clock_shift_basis(n)
    om = np.exp(2j * np.pi / n)
    mats = []
    for idx in range(n ** 3):
        a, r = divmod(idx, n * n)
        b, c = divmod(r, n)
        mats.append(om ** a * basis.product(b, c))
    return np.array(mats)


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
    with pytest.raises(ValueError, match="p >= 2"):
        matrix_poincare_ratio(A, rand_matrix(2, 80), 1.0)
    with pytest.raises(ValueError, match="p >= 2"):
        matrix_worst_constant(A, 1.0, budget=10)


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
                               lindblad_generator([np.diag([0.0, 1.0, 0.0, 1.0]),
                                                   np.diag([0.0, 0.0, 1.0, 1.0])])],
                         ids=["M2-delta", "M2-wordlength", "M3-delta", "M3-wordlength",
                              "lindblad-4"])
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
        worst = np.inf
        for i in range(200):
            x = rand_matrix(n, i)
            form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (form + form.conj().T))[0]))
        assert alpha_battery(A, alpha, 0, 200) == worst
    # twice (n+2)/(2n) breaks Gamma_2 >= alpha Gamma on the battery (-0.78, -0.36, -0.19)
    assert worst < -1e-9


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
