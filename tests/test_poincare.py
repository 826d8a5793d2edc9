import sys

import numpy as np
import pytest

from cocycle_lab import linalg, matrixalg, poincare, rng as clrng
from cocycle_lab.algebra import (AlgebraElement, Semigroup, delta, element, fix_project, fourier,
                                gamma, gamma_transform, lp_norm, regular_rep)
from cocycle_lab.cocycles import LengthFunction, gromov_form, length_function, word_length_psi
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic, build_product, group_from_dict, group_to_dict
from cocycle_lab.linalg import _psd_moments, root, schatten_norm
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
    with pytest.raises(ValueError, match="^p = 1.5 is not a number >= 2$"):
        poincare_ratio(sg, f, 1.5)
    with pytest.raises(ValueError, match="^p = 1.5 is not a number >= 2$"):
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
        with pytest.raises(ValueError, match='^p = "4" is not a number >= 2$'):
            call()


def test_certifying_a_shared_ascent_checks_p():
    """With ascent given, p once reached only schatten_norm, which named p / 2."""
    sg = Semigroup(word_length_psi(4))
    A = heisenberg_multiplier(2, "delta")
    for certify, problem in ((worst_constant, sg), (matrix_worst_constant, A)):
        res = certify(problem, 2.0, budget=10)
        assert certify(problem, 4.0, ascent=res).witness is res.witness
        for p, shown in ((1.0, "1.0"), (float("nan"), "NaN"), (1.5, "1.5")):
            with pytest.raises(ValueError, match=f"^p = {shown} is not a number >= 2$"):
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
        return lambda w, x, p: sizes.append(len(getattr(x, "coeffs", x))) or ratio(w, x, p)

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
            # one call scores a whole round: every start's gradient stencil
            assert max(sizes) == poincare.N_STARTS * 2 * 2 * int((~sg.fix_mask).sum())
        else:
            # one start, whose gradient round of 2 * 248 rows takes several blocks
            monkeypatch.setattr(poincare, "N_STARTS", 1)
            worst_constant(sg, 2.0, budget=2, seed=0)
            assert sizes.count(linalg.BLOCK_ENTRIES // per_row) >= 2
    assert max(sizes) <= max(1, linalg.BLOCK_ENTRIES // per_row)


def test_maximizer_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        maximize_on_sphere(lambda _, x: 0.0, 2, budget=0, problems=[(None, 0)])


def test_maximizer_needs_a_problem():
    with pytest.raises(ValueError, match=r"^problems = \[\] is not a non-empty sequence"):
        maximize_on_sphere(lambda _, x: x[:, 0], 3, budget=100, problems=[])


def test_maximizer_finds_quadratic_peak():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    [(val, x, _)] = maximize_on_sphere(lambda _, Y: (Y @ v) ** 2, 4,
                                       budget=6000, problems=[(None, 1)])
    assert val >= 0.99 * float(v @ v)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9


def test_maximizer_deterministic():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(5)
    fun = lambda _, Y: (Y @ v) ** 2
    [a] = maximize_on_sphere(fun, 5, budget=1500, problems=[(None, 7)])
    [b] = maximize_on_sphere(fun, 5, budget=1500, problems=[(None, 7)])
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_maximizer_n_starts(monkeypatch):
    calls = []

    def fun(_, Y):
        calls.append(Y.copy())
        return Y[:, 0] ** 2

    dim, budget, n_starts = 20, 400, 4
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    maximize_on_sphere(fun, dim, budget, problems=[(None, 0)])
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


@pytest.mark.parametrize("rows, n_starts, budget, mixed",
                         [(rows, *size) for size in [(4, 120, False), (8, 400, True)]
                          for rows in (1, 7, None)],
                         ids=["1", "7", "default", "mixed-1", "mixed-7", "mixed-default"])
def test_lock_step_matches_one_start_at_a_time(monkeypatch, rows, n_starts, budget, mixed):
    """mixed: in some round a problem asks for a gradient and a probe, which pins their order."""
    if rows is not None:
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", rows)    # per_row = 1: blocks of `rows` rows
    dim = 6
    monkeypatch.setattr(poincare, "N_STARTS", n_starts)
    # three problems in one ascent, each with its own objective and seed
    seeds = (2, 5, 9)
    vs = np.random.default_rng(5).standard_normal((len(seeds), dim))
    calls = []

    def fun(Y, k):                       # records its input and scores each row on its own
        calls.append((k, Y.copy()))
        vals = np.array([(y @ vs[k]) ** 2 for y in np.atleast_2d(Y)])
        return vals if Y.ndim == 2 else float(vals[0])

    solo = [_one_start_at_a_time(lambda Y, k=k: fun(Y, k), dim, budget, seed, n_starts)
            for k, seed in enumerate(seeds)]
    # round r holds, problem by problem, the r-th request of every start of that problem that
    # has one: its gradient stencils in start order, then its single points in start order.
    # Each problem's part is scored in calls of `rows` rows (the default fits a problem's whole
    # round in one call); a problem without one is not called
    requests = [[[np.atleast_2d(X) for X in reqs] for reqs in log] for _, log in solo]
    want_calls, mixed_rounds = [], 0
    for r in range(max(len(reqs) for log in requests for reqs in log)):
        for k, log in enumerate(requests):
            part = [reqs[r] for reqs in log if r < len(reqs)]
            if part:
                part.sort(key=len, reverse=True)        # stable: start order within each kind
                mixed_rounds += len(part[0]) > 1 and len(part[-1]) == 1
                R = np.concatenate(part)
                step = rows or len(R)
                want_calls += [(k, R[lo:lo + step]) for lo in range(0, len(R), step)]
    assert (mixed_rounds > 0) == mixed
    key = lambda call: (call[0], call[1].shape, call[1].tobytes())
    calls.clear()
    # the chart hands fun the real sphere coordinates (x, y) back exactly
    got = maximize_ratio(fun, lambda z: np.concatenate([z.real, z.imag], axis=-1),
                         dim // 2, budget, list(enumerate(seeds)), per_row=1)
    assert len(got) == len(seeds)
    for res, (want, _) in zip(got, solo):
        assert res.constant == want[0] and np.array_equal(res.witness, want[1])
        assert res.optimizer_gap == want[2]
    assert list(map(key, calls)) == list(map(key, want_calls))
    h = GRAD_STEP * np.eye(dim)
    per_start = budget // n_starts
    for log in requests:
        assert len(log) == n_starts
        for mine in log:
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
        lambda f, p: poincare_ratio(sg, f, p), chart, order, budget=1, problems=[(5.0, 0)],
        per_row=order ** 2))
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
    with pytest.raises(ValueError, match="^p = NaN is not a number >= 2$"):
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
