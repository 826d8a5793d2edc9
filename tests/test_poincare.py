import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import linalg, matrixalg, poincare, rng as clrng
from cocycle_lab.algebra import (AlgebraElement, Semigroup, delta, element, fix_project, fourier,
                                gamma, gamma_transform, lp_norm, regular_rep)
from cocycle_lab.cocycles import LengthFunction, gromov_form, length_function, word_length_psi
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic, build_product, group_from_dict, group_to_dict
from cocycle_lab.linalg import _psd_moments, root, schatten_norm
from cocycle_lab.matrixalg import heisenberg_multiplier, matrix_poincare, matrix_worst_constant
from cocycle_lab.poincare import (REL_IMPROVEMENT_STOP, ZeroNumeratorError,
                                  fit_exponent, l2_oracle, maximize_on_sphere, maximize_ratio,
                                  poincare_ratio, ratio_scores, sweep_and_fit, worst_constant)

from conftest import captured_objective, rand_coeffs, rand_matrix


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
    with pytest.raises(ValueError, match="^p = 1.5 is not a number in \\[2, 16\\]$"):
        poincare_ratio(sg, f, 1.5)
    with pytest.raises(ValueError, match="^p = 1.5 is not a number in \\[2, 16\\]$"):
        worst_constant(sg, 1.5, budget=10)
    fixed = element(sg.group, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero numerator"):
        poincare_ratio(sg, fixed, 2.0)


def test_a_p_that_is_no_number_is_named():
    """Strings in a p grid once ran as numbers, a bool as 1.0, and a string p died with a
    TypeError from the comparison."""
    sg = Semigroup(word_length_psi(4))
    A = heisenberg_multiplier(2, "delta")
    for grid, bad in ((["2", "4"], '"2"'), ([2.0, "4"], '"4"'), ((True, 4.0), "true")):
        for sweep in (lambda: sweep_and_fit(sg, grid, budget=200),
                      lambda: matrix_poincare(A, grid, budget=200)):
            with pytest.raises(ValueError, match=rf"^p grid\[\d\] = {bad} is not a number$"):
                sweep()
    f = element(sg.group, [0.0, 1.0, 0.0, 0.0])
    for call in (lambda: poincare_ratio(sg, f, "4"), lambda: worst_constant(sg, "4", budget=10),
                 lambda: matrixalg.matrix_poincare_ratio(A, np.eye(2), "4"),
                 lambda: matrix_worst_constant(A, "4", budget=10)):
        with pytest.raises(ValueError, match='^p = "4" is not a number in \\[2, 16\\]$'):
            call()


def test_certifying_a_shared_ascent_checks_p():
    """With ascent given, p once reached only schatten_norm, which named p / 2."""
    sg = Semigroup(word_length_psi(4))
    A = heisenberg_multiplier(2, "delta")
    for certify, problem in ((worst_constant, sg), (matrix_worst_constant, A)):
        res = certify(problem, 2.0, budget=10)
        assert certify(problem, 4.0, ascent=res).witness is res.witness
        for p, shown in ((1.0, "1.0"), (float("nan"), "NaN"), (1.5, "1.5")):
            with pytest.raises(ValueError, match=f"^p = {shown} is not a number in \\[2, 16\\]$"):
                certify(problem, p, ascent=res)


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


def test_worst_constant_independent_of_blocks(monkeypatch):
    # ... and of the row blocks a round is scored in: blocks of 1, 7 and one per
    # round, and the default; per_row is the footprint each side passes
    runs = {"group": (64, lambda: worst_constant(Semigroup(builtin_length("walsh:2:3")), 4.0,
                                                 budget=3000, seed=1)),
            "delta:5": (25, lambda: worst_constant(Semigroup(builtin_length("delta:5")), 5.0,
                                                   budget=3000, seed=1)),
            "matrix": (16, lambda: matrix_worst_constant(heisenberg_multiplier(2, "delta"), 4.0,
                                                         budget=3000, seed=1)),
            # p = 6 on M_3: the derivation's 12 x 3 stacks take np.matmul products
            "M3-wordlength": (81, lambda: matrix_worst_constant(
                heisenberg_multiplier(3, "wordlength"), 6.0, budget=3000, seed=1))}
    for side, (per_row, run) in runs.items():
        res = {}
        for rows in (None, 1, 7, sys.maxsize):
            with monkeypatch.context() as m:
                if rows is not None:
                    m.setattr(linalg, "BLOCK_ENTRIES", rows * per_row)
                res[f"rows={rows}"] = run()
        a = res["rows=None"]
        for name, b in res.items():
            assert a.constant == b.constant and a.optimizer_gap == b.optimizer_gap, (side, name)
            assert np.array_equal(getattr(a.witness, "coeffs", a.witness),
                                  getattr(b.witness, "coeffs", b.witness)), (side, name)


@pytest.mark.parametrize("case", ["walsh:2:3", "M2-delta", "heisenberg-wordlength:5"])
def test_optimizer_blocks_bounded_by_entries(monkeypatch, case):
    # every ratio call of an optimizer round scores at most BLOCK_ENTRIES // per_row rows
    sizes = []

    def spy(ratio):
        return lambda w, x, p, **kw: sizes.append(len(getattr(x, "coeffs", x))) or ratio(w, x, p,
                                                                                         **kw)

    if case == "M2-delta":
        per_row = 2 ** 4
        monkeypatch.setattr(matrixalg, "matrix_poincare_ratio",
                            spy(matrixalg.matrix_poincare_ratio))
        matrix_worst_constant(heisenberg_multiplier(2, "delta"), 4.0, budget=2000, seed=0)
    else:
        sg = Semigroup(builtin_length(case))
        per_row = sg.group.order ** 2
        monkeypatch.setattr(poincare, "poincare_ratio", spy(poincare.poincare_ratio))
        if case == "walsh:2:3":
            worst_constant(sg, 4.0, budget=2000, seed=0)
            # one call scores a whole round: the first, every start point
            assert max(sizes) == poincare.N_STARTS
        else:
            # 300 starts, whose first round of 300 rows takes several blocks
            monkeypatch.setattr(poincare, "N_STARTS", 300)
            worst_constant(sg, 2.0, budget=2, seed=0)
            assert sizes.count(linalg.BLOCK_ENTRIES // per_row) >= 2
    assert max(sizes) <= max(1, linalg.BLOCK_ENTRIES // per_row)


def _square(v):
    """The objective (y . v)^2 per row of a stack, with its gradient 2 (y . v) v."""
    def fun(_, Y):
        t = Y @ v
        return t ** 2, 2 * t[:, None] * v
    return fun


def test_maximizer_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        maximize_on_sphere(lambda _, Y: (Y[:, 0], Y), 2, budget=0, problems=[(None, 0)])


def test_maximizer_needs_a_problem():
    with pytest.raises(ValueError, match=r"^problems = \[\] is not a non-empty sequence"):
        maximize_on_sphere(lambda _, Y: (Y[:, 0], Y), 3, budget=100, problems=[])


def test_maximizer_finds_quadratic_peak():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    [(val, x, _)] = maximize_on_sphere(_square(v), 4, budget=6000, problems=[(None, 1)])
    assert val >= 0.99 * float(v @ v)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9


def test_maximizer_deterministic():
    rng = np.random.default_rng(4)
    fun = _square(rng.standard_normal(5))
    [a] = maximize_on_sphere(fun, 5, budget=1500, problems=[(None, 7)])
    [b] = maximize_on_sphere(fun, 5, budget=1500, problems=[(None, 7)])
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_maximizer_n_starts(monkeypatch):
    calls = []

    def fun(_, Y):
        calls.append(Y.copy())
        return Y[:, 0] ** 2, 2 * Y[:, :1] * np.eye(len(Y[0]))[0]

    dim, budget, n_starts = 20, 400, 4
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    maximize_on_sphere(fun, dim, budget, problems=[(None, 0)])
    assert np.array_equal(calls[0], np.eye(dim)[:n_starts])   # the first round: every start point
    assert all(len(Y) <= n_starts for Y in calls)             # later ones: a probe per start
    assert sum(map(len, calls)) <= n_starts * (budget // n_starts + 2 * dim)


def test_start_points_are_the_stream_draws():
    """The random starts, one rng.normal_block per problem, are the per-start streams' draws over
    their norms, bit for bit, on 20 seeds at dim 8 (the first round scores every start point)."""
    dim, seeds = 8, range(20)
    first = []
    maximize_on_sphere(lambda keys, Y: first.append(Y.copy()) or (Y[:, 0], Y), dim, 1,
                       [(s, s) for s in seeds])
    for k, seed in enumerate(seeds):
        want = list(np.eye(dim))
        for s in range(dim, poincare.N_STARTS):
            v = clrng.stream(seed, clrng.TAG_POINCARE, s).standard_normal(dim)
            want.append(v / np.linalg.norm(v))
        want = np.array([x / np.linalg.norm(x) for x in want])
        assert np.array_equal(first[0][k * poincare.N_STARTS:(k + 1) * poincare.N_STARTS], want)


def _one_start_at_a_time(fun, dim, budget, seed, n_starts):
    """maximize_on_sphere with each start run alone, one objective call per point.

    fun maps one point to (value, gradient).  Returns its result and each start's log in
    order, (point, kind): its start point ("start"), then its line-search probes, each along a
    new gradient ("new") or backtracking after a failed probe ("retry"), and each gradient it
    takes at its point ("gradient"), which scores nothing but is charged 2 dim points.
    """
    starts = list(np.eye(dim)[:min(dim, 16, n_starts)])
    for s in range(len(starts), n_starts):
        v = clrng.stream(seed, clrng.TAG_POINCARE, s).standard_normal(dim)
        starts.append(v / np.linalg.norm(v))
    per_start = max(1, budget // n_starts)
    results, requests = [], []
    for x0 in starts:
        log = []
        requests.append(log)

        def f(x, kind):
            log.append((x, kind))
            return fun(x)

        x = x0 / np.linalg.norm(x0)
        val, d = f(x, "start")
        charged, step, gap = 1, 0.1, np.inf
        while charged < per_start:
            charged += 2 * dim                   # a gradient costs what its stencil did
            log.append((x, "gradient"))
            g = d - (d @ x) * x
            if np.linalg.norm(g) < 1e-12:
                break
            improved, kind = False, "new"
            while step > 1e-12:
                xn = x + step * g
                xn /= np.linalg.norm(xn)
                vn, dn = f(xn, kind)
                kind = "retry"
                charged += 1
                if vn > val:
                    gap = (vn - val) / max(abs(val), 1e-30)
                    x, val, d = xn, vn, dn
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved or gap < REL_IMPROVEMENT_STOP:
                break
        results.append((val, x, gap if np.isfinite(gap) else 0.0))
    best = max(range(len(results)), key=lambda i: results[i][0])
    return results[best], requests


@pytest.mark.parametrize("rows, n_starts, budget, mixed",
                         [(rows, *size) for size in [(4, 120, False), (8, 400, True)]
                          for rows in (1, 7, None)],
                         ids=["1", "7", "default", "mixed-1", "mixed-7", "mixed-default"])
def test_lock_step_matches_one_start_at_a_time(monkeypatch, rows, n_starts, budget, mixed):
    """Round r scores the r-th point of every start that has one, in one call with each row's
    problem key: the start points, then each live start's probe, problem by problem and in
    start order within a problem.  mixed: in some round a problem sends a probe along a new
    gradient and a backtracking one, which pins that both kinds go in start order."""
    if rows is not None:
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", rows)    # per_row = 1: blocks of `rows` rows
    dim = 6
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    # three problems in one ascent, each with its own objective and seed
    seeds = (2, 5, 9)
    vs = np.random.default_rng(5).standard_normal((len(seeds), dim))
    calls = []

    def fun(Y, keys):                    # records its input and scores each row on its own
        calls.append((list(keys), Y.copy()))
        t = np.array([y @ vs[k] for y, k in zip(Y, keys)])
        return t ** 2, 2 * t[:, None] * vs[keys]

    def alone(k):
        def f(x):
            val, grad = fun(x[None], [k])
            return val[0], grad[0]
        return f

    solo = [_one_start_at_a_time(alone(k), dim, budget, seed, n_starts)
            for k, seed in enumerate(seeds)]
    # a round is scored in calls of `rows` rows (the default fits the whole round in one call),
    # the problems in order and a problem without a point in the round left out
    requests = [[[(x, kind) for x, kind in reqs if kind != "gradient"] for reqs in log]
                for _, log in solo]
    want_calls, mixed_rounds = [], 0
    for r in range(max(len(reqs) for log in requests for reqs in log)):
        keys, R = [], []
        for k, log in enumerate(requests):
            part = [reqs[r] for reqs in log if r < len(reqs)]
            mixed_rounds += {kind for _, kind in part} == {"new", "retry"}
            keys += [k] * len(part)
            R += [x for x, _ in part]
        step = rows or len(R)
        want_calls += [(keys[lo:lo + step], np.array(R[lo:lo + step]))
                       for lo in range(0, len(R), step)]
    assert (mixed_rounds > 0) == mixed
    key = lambda call: (call[0], call[1].shape, call[1].tobytes())

    def scores(Y, keys):                 # complex chart coordinates in, as maximize_ratio's
        val, grad = fun(Y, keys)
        return val, grad[:, :dim // 2] + 1j * grad[:, dim // 2:]

    calls.clear()
    # the chart hands fun the real sphere coordinates (x, y) back exactly
    got = maximize_ratio(scores, lambda z: np.concatenate([z.real, z.imag], axis=-1),
                         dim // 2, budget, list(enumerate(seeds)), per_row=1)
    assert len(got) == len(seeds)
    for res, (want, _) in zip(got, solo):
        assert res.constant == want[0] and np.array_equal(res.witness, want[1])
        assert res.optimizer_gap == want[2]
    assert list(map(key, calls)) == list(map(key, want_calls))
    per_start = budget // n_starts
    for _, log in solo:
        assert len(log) == n_starts
        for mine in log:
            kinds = [kind for _, kind in mine]
            # a probe along a new gradient follows that gradient, taken at the point it leaves
            assert all(kinds[i - 1] == "gradient" for i, kind in enumerate(kinds) if kind == "new")
            charged = [2 * dim if kind == "gradient" else 1 for kind in kinds]
            last_gradient = max(i for i, kind in enumerate(kinds) if kind == "gradient")
            assert sum(charged[:last_gradient]) < per_start     # a new gradient only within budget
            assert per_start <= sum(charged) <= per_start + 2 * dim


def test_a_sweep_calls_the_ratio_once_per_round(monkeypatch):
    """Over a 6-p grid the shared ascent calls poincare_ratio once per round, with every live
    row of every p: as many calls as the longest ascent at one p alone, as many rows as all of
    them together, each call's p in grid order and the first round holding every p."""
    sg = Semigroup(builtin_length("walsh:2:3"))
    grid, budget = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0), 2000
    calls = []
    real = poincare.poincare_ratio
    monkeypatch.setattr(poincare, "poincare_ratio", lambda sg, f, p, **kw:
                        calls.append(np.array(p, ndmin=1)) or real(sg, f, p, **kw))
    alone = []
    for i, p in enumerate(grid):
        calls.clear()
        worst_constant(sg, p, budget=budget, seed=i)
        alone.append((len(calls), sum(map(len, calls))))
    calls.clear()
    sweep_and_fit(sg, grid, budget=budget, seed=0)
    assert len(calls) == max(n for n, _ in alone) > 1
    assert sum(map(len, calls)) == sum(rows for _, rows in alone)
    assert all(np.array_equal(ps, np.sort(ps)) for ps in calls)
    assert set(calls[0]) == set(grid)


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


def test_sweep_envelope_reads_c2_off_the_oracle(monkeypatch):
    """A grid without p = 2 once ran a whole optimization at p = 2 for C_2 alone."""
    sg = Semigroup(builtin_length("walsh:2:3"))
    cert = best_alpha_pencil(gromov_form(sg.psi))
    calls = []
    real = poincare.maximize_on_sphere
    monkeypatch.setattr(poincare, "maximize_on_sphere",
                        lambda fun, dim, budget, problems: calls.append(problems)
                        or real(fun, dim, budget, problems))
    rep = sweep_and_fit(sg, [4.0, 8.0], budget=200, seed=0, alpha_cert=cert)
    assert calls == [[(4.0, 0), (8.0, 1)]]      # one ascent, for the problems p = 4 and 8
    assert rep.envelope == tuple(np.sqrt(p / rep.alpha_used) * l2_oracle(sg) for p in (4.0, 8.0))
    # with 2 in the grid the optimizer's C_2 is the oracle's, so the envelope keeps its bits
    rep = sweep_and_fit(sg, [2.0, 4.0], budget=200, seed=0, alpha_cert=cert)
    assert rep.constants[0] == l2_oracle(sg)


SWEEP_CASES = {
    "walsh:2:3": lambda: Semigroup(builtin_length("walsh:2:3")),
    "heisenberg-delta:2": lambda: Semigroup(builtin_length("heisenberg-delta:2")),
    "delta:5": lambda: Semigroup(builtin_length("delta:5")),
    "wordlength:6": lambda: Semigroup(builtin_length("wordlength:6")),
    "M2-delta": lambda: heisenberg_multiplier(2, "delta"),
    "M3-wordlength": lambda: heisenberg_multiplier(3, "wordlength")}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_matches_each_p_alone(monkeypatch, case):
    """The grid's one ascent gives the i-th p the constant, witness and gap of a search at
    (p_i, seed + i) alone, bit for bit, and a sub-grid gives its p the same: a p's constant
    depends on (psi, p, budget, seed + i) only."""
    problem = SWEEP_CASES[case]()
    if case.startswith("M"):
        module, name, run = matrixalg, "matrix_worst_constant", matrix_poincare
    else:
        module, name, run = poincare, "worst_constant", sweep_and_fit
    alone = getattr(module, name)
    certified = []
    monkeypatch.setattr(module, name, lambda *a, **kw: certified.append(alone(*a, **kw))
                        or certified[-1])
    grid, budget, seed = (2.0, 4.0, 8.0, 16.0), 3000, 3
    rep = run(problem, grid, budget=budget, seed=seed)
    assert len(certified) == len(grid)                  # one certifying call per p
    for i, p in enumerate(grid):
        want = alone(problem, p, budget, seed + i)
        got = certified[i]
        assert got.constant == want.constant == rep.constants[i], (p, got, want)
        assert got.optimizer_gap == want.optimizer_gap, p
        for w in (got.witness, rep.witnesses[i]):
            assert np.array_equal(getattr(w, "coeffs", w), getattr(want.witness, "coeffs",
                                                                   want.witness)), p
    sub = run(problem, grid[2:], budget=budget, seed=seed + 2)
    assert sub.constants == rep.constants[2:]
    for a, b in zip(sub.witnesses, rep.witnesses[2:]):
        assert np.array_equal(getattr(a, "coeffs", a), getattr(b, "coeffs", b))


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
        lambda f, p: poincare_ratio(sg, f, p, gradient=True), chart, order, budget=1,
        problems=[(5.0, 0)], per_row=order ** 2))
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
    # through the optimizer's objective the fixed-point row scores 0 with gradient 0, and every
    # other row scores as poincare_ratio, bit for bit
    scores, grads = fun(np.concatenate([C.real, C.imag], axis=1))
    assert scores[3] == 0.0 and not grads[3].any()
    rows = AlgebraElement(sg.group, np.delete(C, 3, axis=0))
    assert np.array_equal(np.delete(scores, 3), poincare_ratio(sg, rows, 5.0))


def _svd_route_ratio(sg, f, p, psd=False):
    """The ratio on the regular representation: schatten_norm denominators, or with psd=True
    _psd_moments at integer p/2, whatever group and psi are."""
    f0 = f - fix_project(sg, f)
    f0s = f0.adjoint()
    norm = schatten_norm
    if psd and p / 2 % 1 == 0:
        norm = lambda m, q: _psd_moments(m, (q,), True)[0]
    return ratio_scores(lp_norm(f0, p),
                        root(np.maximum(norm(regular_rep(gamma(sg, f0, f0)), p / 2.0),
                                        norm(regular_rep(gamma(sg, f0s, f0s)), p / 2.0)), 2),
                        np.abs(f.coeffs).max(axis=-1))


def _not_cn(group, seed):
    """A symmetric psi >= 0 on group whose Gromov form is not PSD: sqrt(psi) is not
    subadditive at g = 1, as sqrt(10) > 2 sqrt(1.5), so psi is no ||b||^2."""
    v = np.random.default_rng(seed).uniform(1.0, 1.5, group.order)
    v[0], v[1], v[group.inv[1]] = 0.0, 10.0, 10.0
    psi = length_function(group, (v + v[group.inv]) / 2)
    assert not Semigroup(psi).gamma_psd
    return psi


@pytest.mark.parametrize("spec", ["delta:5", "wordlength:8", "walsh:2:3", "walsh:3:2",
                                  "not-cn:7", "not-cn:2x3x2"])
def test_character_route_matches_the_regular_representation(spec):
    """On a group with characters poincare_ratio agrees with the SVD route to 1e-12, for a
    CN psi and for a non-CN one, and a witness scores exactly as its row of a stack."""
    if spec.startswith("not-cn"):
        orders = [int(k) for k in spec.split(":")[1].split("x")]
        group = build_product([build_cyclic(k) for k in orders])
        sg = Semigroup(_not_cn(group, len(orders)))
    else:
        sg = Semigroup(builtin_length(spec))
    assert sg.group.characters is not None
    C = np.array([rand_coeffs(sg.group.order, 60 + i) for i in range(7)])
    C[2] *= 1e-3                           # the scale of a witness does not matter
    F = AlgebraElement(sg.group, C)
    for p in (2.0, 3.0, 5.0, 6.0, 10.0, 16.0):
        got = poincare_ratio(sg, F, p)
        want = _svd_route_ratio(sg, F, p)
        assert np.all(np.abs(got - want) <= 1e-12 * want), (p, np.abs(got / want - 1).max())
        for c, r in zip(C, got):
            assert poincare_ratio(sg, element(sg.group, c), p) == r
        assert np.array_equal(poincare_ratio(sg, AlgebraElement(sg.group, C[3:]), p), got[3:])


def test_derivation_route_scores_each_row_as_alone():
    """walsh:2:3 scores through the derivation W and never builds the |G| x |G| kernel weight;
    poincare_ratio of a stack equals each row scored alone, bit for bit, in stacks of 1, 2, 17
    and 670 rows, a strided one and a (66, 10, order) one."""
    sg = Semigroup(builtin_length("walsh:2:3"))
    assert sg.derivation is not None
    C = np.array([rand_coeffs(8, 900 + i) for i in range(670)])
    for p in (2.0, 5.0, 16.0):
        alone = np.array([poincare_ratio(sg, element(sg.group, c), p) for c in C])
        for rows in (np.s_[:1], np.s_[:2], np.s_[:17], np.s_[:], np.s_[::3]):     # views of C
            assert np.array_equal(poincare_ratio(sg, AlgebraElement(sg.group, C[rows]), p),
                                  alone[rows]), (p, rows)
        cube = AlgebraElement(sg.group, C[:660].reshape(66, 10, 8))
        assert np.array_equal(poincare_ratio(sg, cube, p), alone[:660].reshape(66, 10)), p
    assert "_kernel_su" not in vars(sg)


@pytest.mark.parametrize("spec", ["heisenberg-delta:3", "heisenberg-wordlength:2",
                                  "table:wordlength:6", "table:not-cn:6"])
def test_groups_without_characters_keep_the_regular_representation(spec):
    """Heisenberg groups and loaded tables score exactly as the regular-representation
    route, PSD moments at integer p/2 for a CN psi included."""
    if spec.startswith("table"):
        table = group_from_dict(group_to_dict(build_cyclic(6)))
        psi = (_not_cn(table, 3) if "not-cn" in spec
               else length_function(table, builtin_length("wordlength:6").values))
    else:
        psi = builtin_length(spec)
    sg = Semigroup(psi)
    assert sg.group.characters is None
    F = AlgebraElement(sg.group, np.array([rand_coeffs(sg.group.order, 70 + i) for i in range(4)]))
    for p in (2.0, 3.0, 4.0, 6.0, 8.0, 10.0):
        assert np.array_equal(poincare_ratio(sg, F, p), _svd_route_ratio(sg, F, p, sg.gamma_psd))


def _two_denominator_ratio(sg, f, p):
    """The character route with the transforms of both Gamma(f0, f0) and Gamma(f0*, f0*),
    whatever psi is."""
    f0 = f - fix_project(sg, f)
    rows = AlgebraElement(sg.group, f0.coeffs.reshape(-1, sg.group.order))
    a = np.abs(fourier(rows))
    b = np.stack([gamma_transform(sg, g) for g in (rows, rows.adjoint())])
    amax, bmax = a.max(axis=-1), b.max(axis=(0, -1))
    nonzero = lambda x: np.where(x > 0, x, 1.0)
    mu = np.mean((a / nonzero(amax)[:, None]) ** p, axis=-1)
    nu = np.mean((b / nonzero(bmax)[:, None]) ** (p / 2.0), axis=-1).max(axis=0)
    shape = f.coeffs.shape[:-1]
    return ratio_scores((amax * root(mu / nonzero(nu), p)).reshape(shape),
                        root(bmax.reshape(shape), 2), np.abs(f.coeffs).max(axis=-1))


@pytest.mark.parametrize("spec", ["delta:5", "wordlength:8", "walsh:2:3", "not-cn:2x3x2"])
def test_symmetric_psi_takes_one_kernel_gamma(spec, monkeypatch):
    """With psi == psi[inv] exactly, the character route transforms Gamma(f0, f0) alone (by the
    derivation on walsh:2:3 and wordlength:8, the kernel elsewhere) and agrees with the
    two-denominator route to 1e-15 relative; an asymmetric psi, which only a LengthFunction
    built directly can hold, keeps both Gammas bit for bit."""
    if spec.startswith("not-cn"):
        group = build_product([build_cyclic(k) for k in (2, 3, 2)])
        psi = _not_cn(group, 3)
    else:
        psi = builtin_length(spec)
    sg = Semigroup(psi)
    C = np.array([rand_coeffs(sg.group.order, 140 + i) for i in range(5)])
    F = AlgebraElement(sg.group, C)
    calls = []
    real_gamma = poincare.gamma_transform
    monkeypatch.setattr(poincare, "gamma_transform", lambda *a: calls.append(1) or real_gamma(*a))
    for p in (2.0, 3.0, 5.0, 6.0, 10.0, 16.0):
        got = poincare_ratio(sg, F, p)
        want = _two_denominator_ratio(sg, F, p)
        assert np.all(np.abs(got - want) <= 1e-15 * want), (p, np.abs(got / want - 1).max())
    assert len(calls) == 6
    g = np.flatnonzero(sg.group.inv != np.arange(sg.group.order))
    if g.size == 0:                             # Z_2^3: every psi is symmetric
        return
    v = psi.values.copy()
    v[g[0]] += 2.0 ** -44 * v.max()             # within length_function's 1e-12 symmetry test
    asym = Semigroup(LengthFunction(sg.group, v))
    for p in (2.0, 3.0, 6.0, 16.0):
        assert np.array_equal(poincare_ratio(asym, F, p), _two_denominator_ratio(asym, F, p))
    assert len(calls) == 6 + 2 * 4


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_character_route_rejects_non_finite_coefficients():
    """A non-finite witness coefficient is named as the ratio's input on every route: the
    characters on walsh:2:2, and on heisenberg-delta:2 _ratio at p = 4 and _psd_moments at
    p = 6, where a NaN was once named as Gamma's entry (0,0) = (nan+nanj)."""
    sg = Semigroup(builtin_length("walsh:2:2"))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"^Poincare ratio input\(2\) = \({bad}\+0j\) "
                                             r"is not finite$"):
            poincare_ratio(sg, element(sg.group, [0.0, 1.0, bad, 0.0]), 4.0)
    heis = Semigroup(builtin_length("heisenberg-delta:2"))
    assert heis.group.characters is None and heis.gamma_psd
    for bad in (np.nan, np.inf):
        c = np.array([rand_coeffs(8, 30)] * 2)
        c[1, 5] = bad
        for p in (4.0, 6.0):
            with pytest.raises(ValueError, match=rf"^Poincare ratio input\(1,5\) = \({bad}\+"):
                poincare_ratio(heis, AlgebraElement(heis.group, c), p)
    with pytest.raises(ValueError, match="^p = NaN is not a number in \\[2, 16\\]$"):
        poincare_ratio(sg, element(sg.group, [0.0, 1.0, 0.0, 0.0]), float("nan"))


def test_odd_q_denominators_take_trace_powers_only_for_a_cn_psi(monkeypatch):
    """On the regular representation (Z_4 loaded as a table, so it has no characters), at
    p = 6 (q = 3) a CN psi scores with no SVD at all; a non-CN psi keeps the SVD route and
    its scores bit for bit.  The builtin Z_4 scores through its characters, to 1e-12."""
    table = group_from_dict(group_to_dict(build_cyclic(4)))
    assert table.characters is None and build_cyclic(4).characters is not None
    bad, cn = (Semigroup(length_function(table, v)) for v in ([0.0, 1.0, 3.0, 1.0], [0, 1, 2, 1]))
    assert not bad.gamma_psd and cn.gamma_psd
    C = np.array([rand_coeffs(4, 90 + i) for i in range(5)])
    for p in (2.0, 6.0):
        f = AlgebraElement(bad.group, C)
        assert np.array_equal(poincare_ratio(bad, f, p), _svd_route_ratio(bad, f, p))
        for c in C:
            g = element(bad.group, c)
            assert poincare_ratio(bad, g, p) == _svd_route_ratio(bad, g, p)
    for v in ([0.0, 1.0, 3.0, 1.0], [0, 1, 2, 1]):
        sg = Semigroup(length_function(build_cyclic(4), v))
        f = AlgebraElement(sg.group, C)
        for p in (2.0, 6.0):
            want = _svd_route_ratio(sg, f, p)
            assert np.all(np.abs(poincare_ratio(sg, f, p) - want) <= 1e-12 * want)
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
    and budget the optimizer's own score of some winner (through the characters on walsh,
    PSD moments on the Heisenberg group) may differ in its last ulp, except at even p/2 on
    the Heisenberg group, where _psd_moments takes gamma_norm's products bit for bit."""
    sg = Semigroup(builtin_length(spec))
    assert sg.gamma_psd
    rep = sweep_and_fit(sg, [2.0, 4.0, 6.0, 8.0, 10.0, 14.0], budget=1500, seed=0)
    for p, c, w in zip(rep.p_grid, rep.constants, rep.witnesses):
        assert c == _svd_route_ratio(sg, w, p), p
        score = poincare_ratio(sg, w, p)
        assert abs(score - c) <= 1e-13 * c, p
        if sg.group.characters is None:
            assert score == _svd_route_ratio(sg, w, p, psd=True), p
            assert score == c or p / 2 % 2 == 1, p


def test_a_ratio_does_not_change_when_its_witness_is_scaled():
    """Every route reads a scaled witness's ratio as the witness's, to 1e-15 relative, at
    scales 1e-100 to 1e100: the characters and _ratio on walsh:2:3, the regular representation
    of heisenberg-delta:2 (_ratio at p = 5, _psd_moments at p = 4 and 6), the derivation and
    superoperator routes of the M_3 delta multiplier and a Lindblad generator.  An absolute
    floor once called 1e-16 times each of these witnesses a fixed point.  Witnesses in the
    fixed-point algebra, lambda(e), I_3 and diag(1, 2, 3), raise at every scale."""
    walsh, heis = (Semigroup(builtin_length(s)) for s in ("walsh:2:3", "heisenberg-delta:2"))
    mult = heisenberg_multiplier(3, "delta")
    lind = matrixalg.lindblad_generator([np.diag([0.0, 1.0, 3.0])])
    g, x = np.arange(8) + 1j, np.arange(9.0).reshape(3, 3) + 1j
    routes = [lambda s: poincare_ratio(walsh, element(walsh.group, s * g), 4.0),
              lambda s: poincare._ratio(walsh, element(walsh.group, s * g), 4.0)]
    routes += [lambda s, p=p: poincare_ratio(heis, element(heis.group, s * g), p)
               for p in (4.0, 5.0, 6.0)]
    routes += [lambda s: matrixalg.matrix_poincare_ratio(mult, s * x, 4.0),
               lambda s: matrixalg._superop_ratio(mult, s * x, 4.0),
               lambda s: matrixalg.matrix_poincare_ratio(lind, s * x, 4.0)]
    fixed = [lambda s: poincare_ratio(walsh, s * delta(walsh.group, 0), 4.0),
             lambda s: poincare_ratio(heis, s * delta(heis.group, 0), 6.0),
             lambda s: matrixalg.matrix_poincare_ratio(mult, s * np.eye(3, dtype=complex), 4.0),
             lambda s: matrixalg.matrix_poincare_ratio(lind, s * np.diag([1.0, 2.0, 3.0]), 4.0)]
    for i, ratio in enumerate(routes):
        want = ratio(1.0)
        for scale in (1e-100, 1e-16, 1e-5, 1e100):
            assert abs(ratio(scale) - want) <= 1e-15 * want, (i, scale)
    for i, ratio in enumerate(fixed):
        for scale in (1e-100, 1e-16, 1.0, 1e100):
            with pytest.raises(ZeroNumeratorError):
                ratio(scale)


def test_every_poincare_entry_point_takes_p_in_2_to_16():
    """p beyond the sweep's [2, 16] once ran: walsh:2:3 certified C_600 = inf and C_1e300 =
    NaN, and the M_2 ratio at p = 1e300 read NaN.  Each entry point, a certifying call
    included, names such a p, and p = inf, which has no gradient."""
    sg = Semigroup(builtin_length("walsh:2:3"))
    A = heisenberg_multiplier(2, "delta")
    f = element(sg.group, rand_coeffs(8, 5))
    group, matrix = worst_constant(sg, 4.0, budget=10), matrix_worst_constant(A, 4.0, budget=10)
    for p, shown in ((16.5, "16.5"), (600.0, "600.0"), (1e300, "1e+300"),
                     (float("inf"), "Infinity")):
        for call in (lambda: poincare_ratio(sg, f, p), lambda: worst_constant(sg, p, budget=10),
                     lambda: worst_constant(sg, p, ascent=group),
                     lambda: matrixalg.matrix_poincare_ratio(A, np.diag([1.0, -1.0]), p),
                     lambda: matrix_worst_constant(A, p, budget=10),
                     lambda: matrix_worst_constant(A, p, ascent=matrix)):
            with pytest.raises(ValueError, match=rf"^p = {re.escape(shown)} is not a number "
                                                 r"in \[2, 16\]$"):
                call()
    assert poincare_ratio(sg, f, 16.0) > 0 and worst_constant(sg, 16.0, ascent=group).constant > 0


def _lindblad_2x2():
    return matrixalg.lindblad_generator([np.array([[1.0, 1.0], [1.0, -1.0]])])


def _group_ratio(sg):
    return lambda c, p, g=False: poincare_ratio(sg, AlgebraElement(sg.group, c), p, gradient=g)


def _matrix_ratio(A):
    return lambda x, p, g=False: matrixalg.matrix_poincare_ratio(A, x, p, gradient=g)


MIXED_P_ROUTES = {
    "characters-W": lambda: Semigroup(builtin_length("walsh:2:3")),
    "characters-kernel-not-cn": lambda: Semigroup(_not_cn(build_product(
        [build_cyclic(k) for k in (2, 3, 2)]), 3)),
    "regular-psd": lambda: Semigroup(builtin_length("heisenberg-delta:2")),
    "regular-not-cn": lambda: Semigroup(_not_cn(group_from_dict(group_to_dict(build_cyclic(6))), 3)),
    "symbol-M2": lambda: heisenberg_multiplier(2, "delta"),
    "symbol-M3": lambda: heisenberg_multiplier(3, "wordlength"),
    "superop-lindblad-2": _lindblad_2x2}


@pytest.mark.parametrize("route", MIXED_P_ROUTES)
def test_a_mixed_p_stack_scores_each_row_as_its_p_alone(route):
    """One call at p = (2, 3, 4, 6, 8, 12, 16, ...) per row, a fixed-point row included, scores and
    differentiates each row as a call at that row's p alone, bit for bit, on every route: the
    characters through W and through the kernel Gamma (a psi that fails the CN test), the
    regular representation with and without gamma_psd, the symbol route and the superoperator
    route.  Without gradient the same scores come back, the fixed-point row raising as 0."""
    problem = MIXED_P_ROUTES[route]()
    if isinstance(problem, Semigroup):
        assert (problem.derivation is not None) == (route == "characters-W")
        assert (problem.group.characters is None) == route.startswith("regular")
        if route.startswith("regular"):
            assert problem.gamma_psd == (route == "regular-psd")
        C = np.array([rand_coeffs(problem.group.order, 300 + i) for i in range(15)])
        C[-1] = np.where(problem.fix_mask, C[-1], 0.0)
        ratio = _group_ratio(problem)
    else:
        assert (problem.symbol is not None) == route.startswith("symbol")
        C = np.array([rand_matrix(problem.n, 300 + i) for i in range(15)])
        C[-1] = np.eye(problem.n)
        ratio = _matrix_ratio(problem)
    ps = np.array([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0] * 2 + [4.0])
    scores, G = ratio(C, ps, True)
    assert scores[-1] == 0.0 and not G[-1].any()
    for p in dict.fromkeys(ps.tolist()):
        rows = ps == p
        want, want_G = ratio(C[rows], p, True)
        assert np.array_equal(scores[rows], want) and np.array_equal(G[rows], want_G), p
    with pytest.raises(ZeroNumeratorError) as exc:
        ratio(C, ps)
    assert np.array_equal(exc.value.scores, scores)


def test_a_p_per_witness_is_checked():
    sg = Semigroup(builtin_length("walsh:2:3"))
    C = np.array([rand_coeffs(8, i) for i in range(3)])
    A = heisenberg_multiplier(2, "delta")
    X = np.array([rand_matrix(2, i) for i in range(3)])
    for ratio, w in ((_group_ratio(sg), C), (_matrix_ratio(A), X)):
        with pytest.raises(ValueError, match=r"^p\[1\] = 17.0 is not a number in \[2, 16\]$"):
            ratio(w, np.array([4.0, 17.0, 2.0]))
        with pytest.raises(ValueError, match=r"^p\[0\] = NaN is not a number in \[2, 16\]$"):
            ratio(w, np.array([np.nan, 4.0, 2.0]), True)
        with pytest.raises(ValueError, match=r"^p = \[4.0, 6.0\] is not a list of length 3$"):
            ratio(w, np.array([4.0, 6.0]))


def test_extreme_scales_keep_the_ratio_and_its_gradient():
    """Scaling a witness by 1e-300 to 1e300 keeps its ratio to 1e-15 relative and its gradient,
    times the scale, to 1e-12 of its largest entry or of R / |c|, the scale of the gradient of a
    ratio of degree 0 (the 2 x 2 Lindblad gradient at p = 2 is rounding noise), on walsh:2:3 (characters, and _ratio),
    heisenberg-delta:2 (the regular representation, and _ratio), the M_2 delta multiplier (the
    symbol route, and _superop_ratio) and the 2 x 2 Lindblad family.  walsh:2:3 at p = 8 once read
    inf at 1e-200 and raised at 1e160, and the M_2 gradient was NaN at 1e160: Gamma and X* X
    left float range."""
    walsh, heis = (Semigroup(builtin_length(s)) for s in ("walsh:2:3", "heisenberg-delta:2"))
    A, lind = heisenberg_multiplier(2, "delta"), _lindblad_2x2()
    cases = [(_group_ratio(sg), lambda c, p, sg=sg: poincare._ratio(sg, element(sg.group, c), p),
              np.array([rand_coeffs(sg.group.order, 400 + i) for i in range(2)]))
             for sg in (walsh, heis)]
    cases += [(_matrix_ratio(B), lambda x, p, B=B: matrixalg._superop_ratio(B, x, p),
               np.array([rand_matrix(2, 400 + i) for i in range(2)])) for B in (A, lind)]
    scales = (1e-300, 1e-200, 1e-160, 1e-100, 1e-50, 1e-20, 1e20, 1e50, 1e100, 1e160, 1e200, 1e300)
    for i, (ratio, certify, C) in enumerate(cases):
        for p in (2.0, 3.0, 4.0, 8.0, 16.0):
            r1, G1 = ratio(C, p, True)
            g1 = max(np.abs(G1).max(), r1.max())        # |C[i]| = 1: R / |c| is R
            c1 = certify(C[0], p)
            for scale in scales:
                r, G = ratio(scale * C, p, True)
                assert np.all(np.abs(r - r1) <= 1e-15 * r1), (i, p, scale, r / r1 - 1)
                assert np.abs(G * scale - G1).max() <= 1e-12 * g1, (i, p, scale)
                assert abs(certify(scale * C[0], p) - c1) <= 1e-15 * c1, (i, p, scale)


def _central_differences(ratio, c, h=1e-6):
    """dR = Re sum conj(G) o dc by central differences of step h in each real coordinate of c,
    all 4 c.size shifted witnesses scored as one stack."""
    shifts = h * np.concatenate([np.eye(c.size), 1j * np.eye(c.size)]).reshape((-1,) + c.shape)
    v = ratio(np.concatenate([c + shifts, c - shifts]))
    d = (v[:len(shifts)] - v[len(shifts):]) / (2 * h)
    return (d[:c.size] + 1j * d[c.size:]).reshape(c.shape)


def _asymmetric(spec):
    """spec's psi with psi(1) moved by 2^-44 max psi: symmetric only to rounding, so the
    character route takes both Gammas and the max of two branches."""
    psi = builtin_length(spec)
    v = psi.values.copy()
    v[1] += 2.0 ** -44 * v.max()
    return Semigroup(LengthFunction(psi.group, v))


GRADIENT_CASES = {
    "walsh:2:3": lambda: Semigroup(builtin_length("walsh:2:3")),
    "delta:5": lambda: Semigroup(builtin_length("delta:5")),
    "wordlength:6": lambda: Semigroup(builtin_length("wordlength:6")),
    "wordlength:7": lambda: Semigroup(builtin_length("wordlength:7")),
    "heisenberg-delta:2": lambda: Semigroup(builtin_length("heisenberg-delta:2")),
    "heisenberg-wordlength:2": lambda: Semigroup(builtin_length("heisenberg-wordlength:2")),
    "asymmetric-wordlength:6": lambda: _asymmetric("wordlength:6"),
    "not-cn:2x3x2": lambda: Semigroup(_not_cn(build_product([build_cyclic(k) for k in (2, 3, 2)]),
                                              3)),
    "table:not-cn:6": lambda: Semigroup(_not_cn(group_from_dict(group_to_dict(build_cyclic(6))),
                                                3)),
    "M2-delta": lambda: heisenberg_multiplier(2, "delta"),
    "M2-wordlength": lambda: heisenberg_multiplier(2, "wordlength"),
    "M3-delta": lambda: heisenberg_multiplier(3, "delta"),
    "M3-wordlength": lambda: heisenberg_multiplier(3, "wordlength"),
    "lindblad-2": lambda: matrixalg.lindblad_generator([np.array([[1.0, 1.0], [1.0, -1.0]])])}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GRADIENT_CASES)), st.sampled_from((2.0, 3.0, 4.0, 6.0, 8.0, 16.0)),
       st.integers(0, 10 ** 6))
@example("not-cn:2x3x2", 2.0, 0)
@example("table:not-cn:6", 2.0, 0)
@example("table:not-cn:6", 6.0, 0)
def test_ratio_gradient_matches_central_differences_hypothesis(case, p, index):
    """On every scoring route (the derivation W and the kernel Gamma through the characters,
    both regular-representation routes, Superoperator.derive and the superoperator route) the
    gradient the ascent follows matches central differences (h = 1e-6) to 1e-6, relative to
    R / |c|, the scale of the gradient of the degree-0 ratio R, or to |G| where that is
    larger; the scores are the ratio's, bit for bit.  The not-cn cases have a Gamma(f, f) of
    either sign, through the characters and on a loaded table without them."""
    problem = GRADIENT_CASES[case]()
    if case.startswith(("M", "lindblad")):
        C = np.stack([rand_matrix(problem.n, index + i) for i in range(2)])
        ratio = lambda X: matrixalg.matrix_poincare_ratio(problem, X, p)
        scores, G = matrixalg.matrix_poincare_ratio(problem, C, p, gradient=True)
    else:
        C = np.stack([rand_coeffs(problem.group.order, index + i) for i in range(2)])
        ratio = lambda c: poincare_ratio(problem, AlgebraElement(problem.group, c), p)
        scores, G = poincare_ratio(problem, AlgebraElement(problem.group, C), p, gradient=True)
    assert np.array_equal(scores, ratio(C))
    for c, r, g in zip(C, scores, G):
        fd = _central_differences(ratio, c)
        assert np.abs(fd - g).max() <= 1e-6 * max(np.abs(g).max(), r / np.linalg.norm(c)), \
            (np.abs(fd - g).max(), r)
