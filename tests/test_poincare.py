import numpy as np
import pytest

from cocycle_lab.algebra import AlgebraElement, Semigroup, element, gamma, regular_rep
from cocycle_lab.cocycles import gromov_form, length_function, word_length_psi
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic
from cocycle_lab.matrixalg import heisenberg_multiplier, matrix_poincare
from cocycle_lab.poincare import (GRAD_STEP, ZeroNumeratorError, fit_exponent,
                                  l2_oracle, maximize_on_sphere, maximize_ratio,
                                  poincare_ratio, sweep_and_fit, worst_constant)

from conftest import captured_objective, rand_coeffs


def test_l2_oracle_values():
    assert l2_oracle(Semigroup(word_length_psi(4))) == pytest.approx(1.0)
    assert l2_oracle(Semigroup(delta_psi(5))) == pytest.approx(1.0)
    psi = length_function(build_cyclic(3), [0.0, 4.0, 4.0])
    assert l2_oracle(Semigroup(psi)) == pytest.approx(0.5)


def test_zero_psi_has_no_gap():
    sg = Semigroup(length_function(build_cyclic(3), np.zeros(3)))
    with pytest.raises(ValueError, match="no spectral gap"):
        l2_oracle(sg)
    with pytest.raises(ValueError, match="no spectral gap"):
        worst_constant(sg, 2.0, budget=10)


def test_ratio_input_validation():
    sg = Semigroup(word_length_psi(4))
    f = element(sg.group, [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="p >= 2"):
        poincare_ratio(sg, f, 1.5)
    with pytest.raises(ValueError, match="p >= 2"):
        worst_constant(sg, 1.5, budget=10)
    fixed = element(sg.group, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero numerator"):
        poincare_ratio(sg, fixed, 2.0)


def test_worst_constant_hits_l2_oracle():
    sg = Semigroup(word_length_psi(4))
    res = worst_constant(sg, 2.0, budget=500, seed=0)
    assert abs(res.constant - l2_oracle(sg)) < 1e-4
    # the witness itself must reproduce the reported ratio
    assert poincare_ratio(sg, res.witness, 2.0) == pytest.approx(res.constant)


def test_worst_constant_deterministic():
    sg = Semigroup(delta_psi(4))
    a = worst_constant(sg, 3.0, budget=800, seed=9)
    b = worst_constant(sg, 3.0, budget=800, seed=9)
    assert a.constant == b.constant
    assert np.array_equal(a.witness.coeffs, b.witness.coeffs)


def test_worst_constant_independent_of_thread_count(monkeypatch):
    sg = Semigroup(builtin_length("walsh:2:3"))
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("COCYCLE_LAB_THREADS", threads)
        runs.append(worst_constant(sg, 4.0, budget=3000, seed=1))
    a, b = runs
    assert a.constant == b.constant and a.optimizer_gap == b.optimizer_gap
    assert np.array_equal(a.witness.coeffs, b.witness.coeffs)


@pytest.mark.parametrize("threads", ["two", "0"])
def test_invalid_thread_count_is_rejected(monkeypatch, threads):
    monkeypatch.setenv("COCYCLE_LAB_THREADS", threads)
    with pytest.raises(ValueError, match="COCYCLE_LAB_THREADS"):
        worst_constant(Semigroup(word_length_psi(4)), 2.0, budget=10)


def test_maximizer_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        maximize_on_sphere(lambda x: 0.0, 2, budget=0, seed=0)


def test_maximizer_finds_quadratic_peak():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    val, x, _ = maximize_on_sphere(lambda Y: (Y @ v) ** 2, 4,
                                   budget=6000, seed=1)
    assert val >= 0.99 * float(v @ v)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9


def test_maximizer_deterministic():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(5)
    fun = lambda Y: (Y @ v) ** 2
    a = maximize_on_sphere(fun, 5, budget=1500, seed=7)
    b = maximize_on_sphere(fun, 5, budget=1500, seed=7)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_maximizer_scores_each_gradient_in_one_call():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(5)
    dim, budget, n_starts = 5, 120, 4
    calls = []

    def fun(Y):
        calls.append(Y.copy())
        return (Y @ v) ** 2

    maximize_on_sphere(fun, dim, budget, seed=2, n_starts=n_starts, coord_starts=n_starts)
    h = GRAD_STEP * np.eye(dim)
    last_point = None
    for Y in calls:
        if Y.ndim == 1:                 # start point or line-search probe: one point
            assert Y.shape == (dim,)
            last_point = Y
        else:                           # gradient: the whole stencil around the last point
            assert np.array_equal(Y, np.concatenate([last_point + h, last_point - h]))
    # every start is a coordinate start e_s, whose first call is e_s itself
    firsts = [i for i, Y in enumerate(calls) if Y.ndim == 1 and np.count_nonzero(Y) == 1]
    assert len(firsts) == n_starts
    per_start = budget // n_starts
    for a, b in zip(firsts, firsts[1:] + [len(calls)]):
        points = [1 if Y.ndim == 1 else len(Y) for Y in calls[a:b]]
        last_gradient = max(i for i in range(b - a) if calls[a + i].ndim == 2)
        assert sum(points[:last_gradient]) < per_start     # a new gradient only within budget
        assert per_start <= sum(points) <= per_start + 2 * dim


def test_fit_exponent_recovers_power_law():
    ps = [2.0, 4.0, 8.0, 16.0]
    cs = [2.0 * p ** 0.5 for p in ps]
    slope, stderr, resid = fit_exponent(ps, cs)
    assert abs(slope - 0.5) < 1e-12
    assert stderr < 1e-12
    assert resid < 1e-12


def test_sweep_envelope_dominates_constants():
    sg = Semigroup(word_length_psi(4))
    cert = best_alpha_pencil(gromov_form(sg.psi))
    rep = sweep_and_fit(sg, [2.0, 4.0], budget=1500, seed=0, alpha_cert=cert)
    assert rep.alpha_used == pytest.approx(1.0, abs=1e-8)
    assert rep.envelope is not None
    for c, env in zip(rep.constants, rep.envelope):
        assert c <= env + 1e-9
    assert len(rep.witnesses) == 2


def test_sweep_p_grid_range_checked():
    sg = Semigroup(word_length_psi(4))
    with pytest.raises(ValueError, match=r"\[2, 16\]"):
        sweep_and_fit(sg, [1.5, 4.0], budget=10)
    for grid in ([2.0, 18.0], [2.0, float("nan")]):
        with pytest.raises(ValueError, match=r"\[2, 16\]"):
            sweep_and_fit(sg, grid, budget=10)
    for grid in ([2.0], [4.0, 4.0], []):
        with pytest.raises(ValueError, match="two distinct values"):
            sweep_and_fit(sg, grid, budget=10)
    with pytest.raises(ValueError, match="two distinct values"):
        matrix_poincare(heisenberg_multiplier(2, "delta"), [4.0], budget=10)


def test_sweep_without_positive_alpha_has_no_envelope():
    sg = Semigroup(word_length_psi(4))
    cert = AlphaCertificate(0.0, "synthetic", np.zeros(1), 0.0)
    rep = sweep_and_fit(sg, [2.0, 3.0], budget=400, seed=2, alpha_cert=cert)
    assert rep.envelope is None
    assert rep.alpha_used is None
    assert rep.slope == rep.slope  # fitted even without an envelope


def _reference_ratio(sg, c, p):
    """Ratio of one witness from plain SVDs and the definitional Gamma."""
    def norm(M, q):
        return np.mean(np.linalg.svd(M, compute_uv=False) ** q) ** (1.0 / q)

    f0 = element(sg.group, np.where(sg.fix_mask, 0.0, c))
    f0s = f0.adjoint()
    den = max(norm(regular_rep(gamma(sg, f0, f0, path="definitional")), p / 2),
              norm(regular_rep(gamma(sg, f0s, f0s, path="definitional")), p / 2))
    return norm(regular_rep(f0), p) / np.sqrt(den)


@pytest.mark.parametrize("spec", ["walsh:2:3", "wordlength:8", "delta:5",
                                  "heisenberg-delta:3", "heisenberg-wordlength:3"])
def test_batched_ratio_matches_reference(monkeypatch, spec):
    sg = Semigroup(builtin_length(spec))
    order = sg.group.order
    C = np.array([rand_coeffs(order, 40 + i) for i in range(6)])
    C[3] = np.where(sg.fix_mask, C[3], 0.0)         # a witness in the fixed-point algebra
    chart = lambda z: AlgebraElement(sg.group, z)
    fun = captured_objective(monkeypatch, lambda: maximize_ratio(
        lambda f: poincare_ratio(sg, f, 5.0), chart, order, budget=1, seed=0, n_starts=1))
    for p in (2.0, 5.0, 16.0):
        with pytest.raises(ZeroNumeratorError, match="zero numerator"):
            poincare_ratio(sg, element(sg.group, C[3]), p)
        with pytest.raises(ZeroNumeratorError) as exc:
            poincare_ratio(sg, AlgebraElement(sg.group, C), p)
        scores = exc.value.scores
        assert scores.shape == (6,) and scores[3] == 0.0
        for i in (0, 1, 2, 4, 5):
            want = _reference_ratio(sg, C[i], p)
            assert abs(scores[i] - want) <= 1e-12 * want
            assert scores[i] == poincare_ratio(sg, element(sg.group, C[i]), p)
        rows = np.delete(C, 3, axis=0)
        assert np.array_equal(poincare_ratio(sg, AlgebraElement(sg.group, rows), p),
                              np.delete(scores, 3))
    # through the optimizer's objective the fixed-point row scores 0
    scores = fun(np.concatenate([C.real, C.imag], axis=1))
    assert scores[3] == 0.0 and np.all(np.delete(scores, 3) > 0)
