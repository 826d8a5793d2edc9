import sys

import numpy as np
import pytest

from cocycle_lab import poincare, rng as clrng
from cocycle_lab.algebra import (AlgebraElement, Semigroup, element, fix_project, gamma, lp_norm,
                                regular_rep)
from cocycle_lab.cocycles import gromov_form, length_function, word_length_psi
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic
from cocycle_lab.linalg import schatten_norm
from cocycle_lab.matrixalg import heisenberg_multiplier, matrix_poincare, matrix_worst_constant
from cocycle_lab.poincare import (GRAD_STEP, REL_IMPROVEMENT_STOP, ZeroNumeratorError,
                                  fit_exponent, l2_oracle, maximize_on_sphere, maximize_ratio,
                                  poincare_ratio, ratio_scores, sweep_and_fit, worst_constant)

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
    # ... and of the row blocks that the threads spread: blocks of 1, 7 and one per round
    runs = {"group": lambda: worst_constant(Semigroup(builtin_length("walsh:2:3")), 4.0,
                                            budget=3000, seed=1),
            "matrix": lambda: matrix_worst_constant(heisenberg_multiplier(2, "delta"), 4.0,
                                                    budget=3000, seed=1)}
    for side, run in runs.items():
        res = {}
        for threads in ("1", "2"):
            with monkeypatch.context() as m:
                m.setenv("COCYCLE_LAB_THREADS", threads)
                res[f"threads={threads}"] = run()
        for rows in (1, 7, sys.maxsize):
            with monkeypatch.context() as m:
                m.setattr(poincare, "ROUND_ROWS", rows)
                res[f"rows={rows}"] = run()
        a = res["threads=1"]
        for name, b in res.items():
            assert a.constant == b.constant and a.optimizer_gap == b.optimizer_gap, (side, name)
            assert np.array_equal(getattr(a.witness, "coeffs", a.witness),
                                  getattr(b.witness, "coeffs", b.witness)), (side, name)


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


def test_maximizer_n_starts(monkeypatch):
    calls = []

    def fun(Y):
        calls.append(Y.copy())
        return Y[:, 0] ** 2

    dim, budget, n_starts = 20, 400, 4
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    maximize_on_sphere(fun, dim, budget, seed=0)
    assert np.array_equal(calls[0], np.eye(dim)[:n_starts])   # the first round: every start point
    assert sum(map(len, calls)) <= n_starts * (budget // n_starts + 2 * dim)


def _one_start_at_a_time(fun, dim, budget, seed, n_starts):
    """maximize_on_sphere with each start run alone, one objective call per request.

    Returns its result and each start's requests in order.
    """
    starts = list(np.eye(dim)[:min(dim, 16, n_starts)])
    for s in range(len(starts), n_starts):
        v = clrng.stream(seed, clrng.TAG_POINCARE, s).standard_normal(dim)
        starts.append(v / np.linalg.norm(v))
    per_start = max(1, budget // n_starts)
    h = GRAD_STEP * np.eye(dim)
    results, requests = [], []
    for x0 in starts:
        log = []
        requests.append(log)

        def f(X):
            log.append(X)
            return fun(X)

        x = x0 / np.linalg.norm(x0)
        val = f(x)
        step, gap = 0.1, np.inf
        while sum(len(np.atleast_2d(X)) for X in log) < per_start:
            v = f(np.concatenate([x + h, x - h]))
            g = (v[:dim] - v[dim:]) / (2 * GRAD_STEP)
            g -= (g @ x) * x
            if np.linalg.norm(g) < 1e-12:
                break
            improved = False
            while step > 1e-12:
                xn = x + step * g
                xn /= np.linalg.norm(xn)
                vn = f(xn)
                if vn > val:
                    gap = (vn - val) / max(abs(val), 1e-30)
                    x, val = xn, vn
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved or gap < REL_IMPROVEMENT_STOP:
                break
        results.append((val, x, gap if np.isfinite(gap) else 0.0))
    best = max(range(len(results)), key=lambda i: results[i][0])
    return results[best], requests


@pytest.mark.parametrize("rows", [7, poincare.ROUND_ROWS], ids=["7", "default"])
def test_lock_step_matches_one_start_at_a_time(monkeypatch, rows):
    monkeypatch.setattr(poincare, "ROUND_ROWS", rows)
    v = np.random.default_rng(5).standard_normal(5)
    dim, budget, n_starts = 5, 120, 4
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    calls = []

    def fun(Y):                          # records its input and scores each row on its own
        calls.append(Y.copy())
        vals = np.array([(y @ v) ** 2 for y in np.atleast_2d(Y)])
        return vals if Y.ndim == 2 else float(vals[0])

    got = maximize_on_sphere(fun, dim, budget, seed=2)
    rounds_calls = calls[:]
    want, requests = _one_start_at_a_time(fun, dim, budget, 2, n_starts)
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]
    assert len(requests) == n_starts
    # round r holds the r-th request of every start that has one, in start order, and
    # is scored in calls of `rows` rows; pull each start's requests out of the rounds
    stream = iter(np.concatenate(rounds_calls))
    pulled = [[] for _ in requests]
    sizes = []
    for r in range(max(map(len, requests))):
        total = 0
        for s, reqs in enumerate(requests):
            if r < len(reqs):
                k = len(np.atleast_2d(reqs[r]))
                pulled[s].append(np.array([next(stream) for _ in range(k)]))
                total += k
        sizes += [min(rows, total - lo) for lo in range(0, total, rows)]
    assert next(stream, None) is None
    assert [len(Y) for Y in rounds_calls] == sizes      # no call exceeds the row bound
    h = GRAD_STEP * np.eye(dim)
    per_start = budget // n_starts
    for reqs, mine in zip(requests, pulled):
        assert len(mine) == len(reqs)
        assert all(np.array_equal(Y, np.atleast_2d(X)) for Y, X in zip(mine, reqs))
        last_point = None
        for Y in mine:
            if len(Y) == 1:              # start point or line-search probe: one point
                last_point = Y[0]
            else:                        # gradient: the whole stencil around the last point
                assert np.array_equal(Y, np.concatenate([last_point + h, last_point - h]))
        points = [len(Y) for Y in mine]
        last_gradient = max(i for i, n in enumerate(points) if n == 2 * dim)
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
        lambda f: poincare_ratio(sg, f, 5.0), chart, order, budget=1, seed=0))
    assert sg.gamma_psd         # so q = p/2 = 1, 3, 5, 7 take the trace powers
    for p in (2.0, 5.0, 6.0, 10.0, 14.0, 16.0):
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


def _svd_route_ratio(sg, f, p):
    """poincare_ratio with schatten_norm denominators at every p, whatever psi is."""
    f0 = f - fix_project(sg, f)
    f0s = f0.adjoint()
    return ratio_scores(lp_norm(f0, p),
                        schatten_norm(regular_rep(gamma(sg, f0, f0)), p / 2.0),
                        schatten_norm(regular_rep(gamma(sg, f0s, f0s)), p / 2.0),
                        np.abs(f.coeffs).max(axis=-1))


def test_odd_q_denominators_take_trace_powers_only_for_a_cn_psi(monkeypatch):
    """At p = 6 (q = 3) a CN psi scores with no SVD at all; a non-CN psi keeps the SVD
    route and its scores bit for bit."""
    bad = Semigroup(length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0]))
    cn = Semigroup(word_length_psi(4))
    assert not bad.gamma_psd and cn.gamma_psd
    C = np.array([rand_coeffs(4, 90 + i) for i in range(5)])
    for p in (2.0, 6.0):
        f = AlgebraElement(bad.group, C)
        assert np.array_equal(poincare_ratio(bad, f, p), _svd_route_ratio(bad, f, p))
        for c in C:
            g = element(bad.group, c)
            assert poincare_ratio(bad, g, p) == _svd_route_ratio(bad, g, p)
    calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    poincare_ratio(cn, AlgebraElement(cn.group, C), 6.0)
    assert calls == []
    poincare_ratio(bad, AlgebraElement(bad.group, C), 6.0)
    assert len(calls) == 2


@pytest.mark.parametrize("spec", ["walsh:2:3", "heisenberg-wordlength:3"])
def test_sweep_constants_are_their_witnesses_on_the_svd_route(spec):
    """Each constant is its witness re-scored with SVD denominators, exactly; on this grid
    and budget the optimizer's trace-power score of some winner differs in its last ulp."""
    sg = Semigroup(builtin_length(spec))
    assert sg.gamma_psd
    rep = sweep_and_fit(sg, [2.0, 6.0, 10.0, 14.0], budget=1500, seed=0)
    for p, c, w in zip(rep.p_grid, rep.constants, rep.witnesses):
        assert c == _svd_route_ratio(sg, w, p), p
