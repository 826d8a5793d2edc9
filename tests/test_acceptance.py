"""End-to-end gate: every release-blocking check at its pinned tolerance.

One test per criterion; conftest prints a PASS/FAIL line for each.
Statistical checks use 5-standard-error windows (or pinned constants where
the quantity is deterministic); runtime budgets are asserted where the
check is sized to stay interactive.
"""
import filecmp
import os
import time

import numpy as np

from cocycle_lab.algebra import (Semigroup, conv, element, fix_project, gamma,
                                 gamma2, regular_rep, semigroup_apply, tau)
from cocycle_lab.cli import run_gallery
from cocycle_lab.cocycles import (gromov_form, realize_cocycle,
                                  verify_schur_identity, word_length_psi)
from cocycle_lab.criterion import best_alpha_bisection, best_alpha_pencil
from cocycle_lab.dilation import (dilation_mean, inequality_report,
                                  sample_scenario)
from cocycle_lab.families import builtin_length, delta_psi, walsh_length
from cocycle_lab.linalg import schatten_norm
from cocycle_lab.matrixalg import (heisenberg_multiplier, lindblad_generator,
                                   matrix_poincare, superop_gamma,
                                   superop_gamma2)
from cocycle_lab.poincare import l2_oracle, sweep_and_fit, worst_constant
from cocycle_lab import rng

from conftest import rand_coeffs, rand_matrix, svd_schatten

EXAMPLE_FAMILIES = ("wordlength:8", "walsh:2:3", "walsh:3:2",
                    "heisenberg-delta:2", "heisenberg-wordlength:2", "delta:5")


def test_delta_family_optimum_closed_form():
    start = time.perf_counter()
    for n in range(2, 13):
        K = gromov_form(delta_psi(n))
        want = (n + 2) / (2 * n)
        assert abs(best_alpha_pencil(K).alpha_star - want) < 1e-8
        assert abs(best_alpha_bisection(K).alpha_star - want) < 1e-8
    assert time.perf_counter() - start < 1.0


def test_word_length_schur_identity_and_control():
    start = time.perf_counter()
    for n in range(4, 33, 2):
        assert verify_schur_identity(n).residual <= 1e-12
    assert verify_schur_identity(4, delta_psi(4)).residual > 0.1
    assert time.perf_counter() - start < 1.0


def test_word_length_optimum_is_one():
    for n in (4, 6, 8, 10):
        K = gromov_form(word_length_psi(n))
        assert abs(best_alpha_pencil(K).alpha_star - 1.0) < 1e-8


def test_gamma_cross_path_agreement():
    start = time.perf_counter()
    idx = 0
    for spec in EXAMPLE_FAMILIES:
        sg = Semigroup(builtin_length(spec))
        order = sg.group.order
        for _ in range(34):    # 6 x 34 = 204 elements
            f = element(sg.group, rand_coeffs(order, idx))
            h = element(sg.group, rand_coeffs(order, idx + 1))
            idx += 2
            for fn in (gamma, gamma2):
                a = fn(sg, f, h, path="kernel")
                b = fn(sg, f, h, path="definitional")
                assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_exact_l2_poincare_oracle():
    start = time.perf_counter()
    for psi in (walsh_length(2, 3), delta_psi(3), word_length_psi(8)):
        sg = Semigroup(psi)
        got = worst_constant(sg, 2.0, budget=20000, seed=0).constant
        assert abs(got - l2_oracle(sg)) < 1e-4
    assert time.perf_counter() - start < 60.0


# C_p of the sweep below at commit 94ad463, where the optimizer scored every
# finite-difference point in its own call.  The walsh:2:3 constants do not match
# these exactly: with the kernel Gamma's transform as denominator they read up to
# 3.5e-12 relative from them (p = 16: 1.6010947856120539), and with the cocycle's
# derivation, sum_j |(b_j a)^|^2 (algebra.gamma_transform), whose last ulps
# differ, the budget-limited ascent stops at slightly different points, up to
# 7.7e-12 relative (p = 16: 1.6010947856188245).  The 1e-9 relative pin leaves
# room for that and for a BLAS whose products differ in the last ulp.  The M_2
# constants are no longer BLAS products: since 2 x 2 and 3 x 3 stacks multiply by
# broadcast multiply-adds (linalg.SMALL_N), which round without OpenBLAS's FMA,
# they read up to 3.6e-15 relative (p = 16) from the BLAS-route values, far
# inside the same pin; scored through the symbol's derivation, ||D(x)||_p, the
# ascent stops at other points, and they read up to 1.3e-14 from these pins.
SWEEP_CONSTANTS = (1.0, 1.2694157594774518, 1.4071263475999323,
                   1.4823817139816449, 1.5614147116178423, 1.601094785606497)
MATRIX_SWEEP_CONSTANTS = (1.0, 1.1892071149935584, 1.2599210497282256,
                          1.296839553728627, 1.334839850690046, 1.354255537554401)


def svd_ratio(x0, gamma_c, gamma_r, p):
    """The Poincare ratio of a centred witness, every norm from the SVD reference."""
    den = max(svd_schatten(gamma_c, p / 2), svd_schatten(gamma_r, p / 2))
    return svd_schatten(x0, p) / den ** 0.5


def test_subgaussian_growth_exponent():
    start = time.perf_counter()
    grid = [2.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    sg = Semigroup(walsh_length(2, 3))
    rep = sweep_and_fit(sg, grid, budget=20000, seed=0)
    assert rep.slope <= 0.6
    assert np.allclose(rep.constants, SWEEP_CONSTANTS, rtol=1e-9, atol=0.0)
    # each C_p is a certified lower bound: its witness re-scores to it on the SVD route
    for p, c, f in zip(rep.p_grid, rep.constants, rep.witnesses):
        f0 = f - fix_project(sg, f)
        f0s = f0.adjoint()
        again = svd_ratio(regular_rep(f0), regular_rep(gamma(sg, f0, f0)),
                          regular_rep(gamma(sg, f0s, f0s)), p)
        assert abs(again - c) <= 1e-12 * c, (p, again, c)
    A = heisenberg_multiplier(2, "delta")
    mrep = matrix_poincare(A, grid, budget=20000, seed=0)
    assert mrep.slope <= 0.6
    assert np.allclose(mrep.constants, MATRIX_SWEEP_CONSTANTS, rtol=1e-9, atol=0.0)
    for p, c, x in zip(mrep.p_grid, mrep.constants, mrep.witnesses):
        x0 = x - A.fix_project(x)
        x0d = x0.conj().T
        again = svd_ratio(x0, superop_gamma(A, x0, x0), superop_gamma(A, x0d, x0d), p)
        assert abs(again - c) <= 1e-12 * c, (p, again, c)
    assert time.perf_counter() - start < 600.0


def test_matrix_algebra_criterion_and_lindblad_oracle():
    start = time.perf_counter()
    for n in (2, 3, 4):
        A = heisenberg_multiplier(n, "delta")
        alpha = (n + 2) / (2 * n)
        for i in range(200):
            x = rand_matrix(n, i)
            form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
            w = np.linalg.eigvalsh(0.5 * (form + form.conj().T))
            assert w[0] >= -1e-9
    families = ([np.diag([0.0, 1.0])],
                [np.diag([0.0, 1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])])
    for fam in families:
        A = lindblad_generator(fam)
        for i in range(50):
            x = rand_matrix(A.n, 500 + i)
            want = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in fam)
            assert np.abs(superop_gamma(A, x, x) - want).max() <= 1e-10
    assert time.perf_counter() - start < 30.0


def test_dilation_statistics():
    start = time.perf_counter()
    coc = realize_cocycle(gromov_form(walsh_length(2, 2)))
    x = element(coc.group, [0.0, 1.0, 0.7, 0.3j])
    L, steps, samples = 2.0, 64, 4096
    sc = sample_scenario(coc, steps, L / steps, samples, seed=11)

    mean, se = dilation_mean(x, 0.5, sc)
    target = regular_rep(semigroup_apply(sc.semigroup, x, 0.5))
    dev = np.abs(mean - target)
    assert np.all(dev[se > 0] <= 5.0 * se[se > 0])
    assert np.all(dev[se == 0] <= 1e-10)

    reports = {p: inequality_report(x, sc, L, p) for p in (2.0, 4.0, 8.0)}
    r4 = reports[4.0]
    assert r4.decoupling_ratio <= 4.0 + 3.0 * r4.decoupling_se
    for rep in reports.values():
        assert abs(rep.ito_mc.mean - rep.ito_analytic) <= 5.0 * max(rep.ito_mc.se, 1e-12)
        assert rep.bdg_ratio <= 2.0
    assert time.perf_counter() - start < 300.0


def test_inequality_batteries():
    # Cauchy-Schwarz for Gamma in L_p
    specs = ("wordlength:8", "walsh:2:3", "delta:5")
    ps = (1.0, 2.0, 4.0)
    idx = 0
    for i in range(100):
        sg = Semigroup(builtin_length(specs[i % 3]))
        order = sg.group.order
        x = element(sg.group, rand_coeffs(order, 1000 + idx))
        y = element(sg.group, rand_coeffs(order, 1001 + idx))
        idx += 2
        p = ps[i % len(ps)]
        lhs = schatten_norm(regular_rep(gamma(sg, x, y)), p)
        rhs = (schatten_norm(regular_rep(gamma(sg, x, x)), p)
               * schatten_norm(regular_rep(gamma(sg, y, y)), p)) ** 0.5
        assert rhs - lhs >= -1e-9

    # regularity of the p-energy against Gamma, f = g*g >= 0
    psis = (word_length_psi(4), word_length_psi(6), walsh_length(2, 2))
    for i in range(100):
        sg = Semigroup(psis[i % 3])
        order = sg.group.order
        a = element(sg.group, rand_coeffs(order, 2000 + i))
        f = conv(a.adjoint(), a)
        p = 2.0 if i % 2 == 0 else 4.0
        if p == 2.0:
            lhs = tau(gamma(sg, f, f)).real
            rhs = tau(gamma(sg, f, f)).real
        else:
            f2 = conv(f, f)
            f3 = conv(f2, f)
            lhs = tau(gamma(sg, f2, f2)).real
            rhs = (p * p / (4.0 * (p - 1.0))) * tau(gamma(sg, f, f3)).real
        assert rhs - lhs >= -1e-9


def test_gallery_reproducibility(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(d1)
    os.makedirs(d2)
    r1 = run_gallery({"seed": 0}, d1)
    r2 = run_gallery({"seed": 0}, d2)
    assert r1 == r2
    assert r1["row_count"] == 37
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    assert len(names) == 37
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == 37
