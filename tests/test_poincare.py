import numpy as np
import pytest

from cocycle_lab.algebra import Semigroup, element
from cocycle_lab.cocycles import gromov_form, length_function, word_length_psi
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic
from cocycle_lab.poincare import (fit_exponent, l2_oracle, maximize_on_sphere,
                                  poincare_ratio, sweep_and_fit, worst_constant)


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
    val, x, _ = maximize_on_sphere(lambda y: float((v @ y) ** 2), 4,
                                   budget=6000, seed=1)
    assert val >= 0.99 * float(v @ v)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9


def test_maximizer_deterministic():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(5)
    fun = lambda y: float((v @ y) ** 2)
    a = maximize_on_sphere(fun, 5, budget=1500, seed=7)
    b = maximize_on_sphere(fun, 5, budget=1500, seed=7)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


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
    with pytest.raises(ValueError, match=r"\[2, 16\]"):
        sweep_and_fit(sg, [2.0, 18.0], budget=10)


def test_sweep_without_positive_alpha_has_no_envelope():
    sg = Semigroup(word_length_psi(4))
    cert = AlphaCertificate(0.0, "synthetic", np.zeros(1), 0.0)
    rep = sweep_and_fit(sg, [2.0, 3.0], budget=400, seed=2, alpha_cert=cert)
    assert rep.envelope is None
    assert rep.alpha_used is None
    assert rep.slope == rep.slope  # fitted even without an envelope
