"""Noncommutative L_p Poincare ratios and the growth-exponent sweep.

worst_constant maximizes the ratio

    ||f - E_Fix f||_p / max{ ||Gamma(f,f)||_{p/2}, ||Gamma(f*,f*)||_{p/2} }^{1/2}

over unit coefficient vectors; the result is a certified *lower* bound on
the best constant.  On an abelian group with a character table the
optimizer scores through the characters, Gamma by its cocycle's derivation
where that is cheaper; the certifying re-score takes the regular
representation everywhere.  At p = 2 the exact constant is
(min nonzero psi)^{-1/2}, which doubles as an optimizer soundness oracle.
sweep_and_fit runs a p grid and fits the growth exponent of log C_p
against log p.  The whole grid is one ascent: the starts of every p are
rows of one set of arrays and advance in rounds, each round scoring every
p that has an active start, one ratio call per p and row block; each p
then gets its own worst_constant call, which certifies its winner.  A p's
starts visit the points they would visit alone, so its constant depends
on (psi, p, budget, seed + i) only.  matrixalg reuses maximize_ratio and
sweep with its own witness chart and ratio.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (AlgebraElement, Semigroup, fix_project, fourier, gamma, gamma_norm,
                      gamma_transform, lp_norm, regular_rep)
from .criterion import AlphaCertificate
from .linalg import blocks, is_integer, is_number, require, require_finite, require_list, root
from . import linalg, rng

GRAD_STEP = 1e-6
REL_IMPROVEMENT_STOP = 1e-8
N_STARTS = 32         # optimizer starts per constant
COORD_STARTS = 16     # of which at most this many are coordinate vectors


class ZeroNumeratorError(ValueError):
    """A witness lies in the fixed-point algebra, where the ratio is 0/0; scores holds it as 0."""

    def __init__(self, scores):
        super().__init__("witness lies in the fixed-point algebra (zero numerator)")
        self.scores = scores


def ratio_scores(num, den, coeff_max):
    """num / den per witness, the two norms of the ratio: a float for one, an array for a stack.

    num <= 1e-14 coeff_max flags a witness in the fixed-point algebra, a test no scaling moves.
    """
    zero = num <= 1e-14 * coeff_max
    r = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
    r = float(r) if r.ndim == 0 else r
    if np.any(zero):
        raise ZeroNumeratorError(r)
    return r


def poincare_ratio(sg: Semigroup, f: AlgebraElement, p: float):
    """Ratio per witness of f, an element or a stack; ||Gamma^{1/2}||_p = ||Gamma||_{p/2}^{1/2}.

    On a group with a character table, whatever psi is, the ratio is
    (mean|f0^|^p / max mean|Gamma^|^{p/2})^{1/p} from the transforms of
    f0 = f - E_Fix f and of Gamma(f0, f0) and Gamma(f0*, f0*) (gamma_transform:
    no kernel weight where sg.derivation exists), each moment scaled by its
    max.  There an exactly symmetric psi (every
    length_function) has Gamma(f0*, f0*) = Gamma(f0, f0) as elements, so
    only the first is formed.  Every other group takes the regular
    representation: under sg.gamma_psd (psi passes the CN test, so Gamma(f, f)
    is PSD, Schoenberg) an integer p/2 takes linalg._psd_moments, gamma_norm's
    bits at even p/2; a fractional one, or no certificate, takes _ratio.
    """
    require(p, "p", lambda v: is_number(v) and v >= 2, "a number >= 2")
    require_finite(f.coeffs, "Poincare ratio input")
    if sg.group.characters is None:
        if not (sg.gamma_psd and p / 2.0 % 1 == 0):
            return _ratio(sg, f, p)
        f0 = f - fix_project(sg, f)
        den = np.maximum(*(linalg._psd_moments(regular_rep(gamma(sg, g, g)), (p / 2.0,), True)[0]
                           for g in (f0, f0.adjoint())))
        return ratio_scores(lp_norm(f0, p), root(den, 2), np.abs(f.coeffs).max(axis=-1))
    f0 = f - fix_project(sg, f)
    rows = AlgebraElement(sg.group, f0.coeffs.reshape(-1, sg.group.order))
    a = np.abs(fourier(rows))
    v = sg.psi.values
    pair = (rows,) if np.array_equal(v, v[sg.group.inv]) else (rows, rows.adjoint())
    b = np.stack([gamma_transform(sg, g) for g in pair])
    amax, bmax = a.max(axis=-1), b.max(axis=(0, -1))
    require_finite(bmax, "max|Gamma^| of the Poincare ratio input")
    mu = np.mean((a / _nonzero(amax)[:, None]) ** p, axis=-1)
    nu = np.mean((b / _nonzero(bmax)[:, None]) ** (p / 2.0), axis=-1).max(axis=0)
    # the numerator is ||f0||_p / nu^{1/p} with nu <= 1: at least ||f0||_p, and 0 exactly when it is
    shape = f.coeffs.shape[:-1]
    return ratio_scores((amax * root(mu / _nonzero(nu), p)).reshape(shape),
                        root(bmax.reshape(shape), 2), np.abs(f.coeffs).max(axis=-1))


def _nonzero(x: np.ndarray) -> np.ndarray:
    """x with its zeros replaced by 1: a divisor that leaves a zero row at 0."""
    return np.where(x > 0, x, 1.0)


def _ratio(sg: Semigroup, f: AlgebraElement, p: float):
    """The ratio on the regular representation, the reference route; its callers check p."""
    f0 = f - fix_project(sg, f)
    return ratio_scores(lp_norm(f0, p), root(gamma_norm(sg, f0, p / 2.0), 2),
                        np.abs(f.coeffs).max(axis=-1))


def l2_oracle(sg: Semigroup) -> float:
    """Exact best L_2 constant (min{psi(g) : psi(g) > 0})^{-1/2}."""
    pos = sg.psi.values[sg.psi.values > 0]
    if pos.size == 0:
        raise ValueError("psi is identically 0: no spectral gap")
    return float(pos.min()) ** -0.5


class WorstConstant(NamedTuple):
    constant: float
    witness: Any            # AlgebraElement, or an n x n matrix on the matrix side
    optimizer_gap: float    # relative improvement in the last accepted ascent step


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i, each by the BLAS dot that a_i @ b_i takes, with its bits."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _normalized(x: np.ndarray) -> np.ndarray:
    """Each row of x over its 2-norm, with the bits of x_i / np.linalg.norm(x_i)."""
    return x / np.sqrt(_dots(x, x))[:, None]


def maximize_on_sphere(fun: Callable[[Any, np.ndarray], Any], dim: int, budget: int,
                       problems: Sequence[tuple[Any, int]]) -> list:
    """Multi-start projected gradient ascent on the unit sphere: one ascent for many problems.

    problems is a sequence of (key, seed) pairs, and fun(key, Y) maps a (k, dim)
    stack of points to k values of that problem's objective, each row on its
    own.  Each problem has N_STARTS starts: the first min(dim, COORD_STARTS,
    N_STARTS) coordinate vectors, then start s draws from the stream (seed,
    TAG_POINCARE, s).  Every start of every problem is one row of the state
    arrays (point, value, step, gap, evaluations, phase), and all advance
    together in rounds.  The first round scores every start point, each later round
    the pending request of every active start: a central-difference gradient (step
    1e-6) of 2 dim rows, x + 1e-6 e_i then x - 1e-6 e_i, or a line-search probe (one
    row).  It calls fun once per problem with an active start, the problems in order:
    its gradient stencils, then its probes, each in start order.  A start takes a new
    gradient while it has scored fewer than budget // N_STARTS points, adapts
    its step by backtracking, and stops when its relative improvement drops
    below 1e-8.  Each start visits the points it would visit alone, so a
    problem gets the same calls of fun whatever the other problems are, and
    however fun splits a round; ties resolve in start order.  Returns (best
    value, best point, gap) for each problem, in order.
    """
    require(budget, "budget", lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    require(problems, "problems", lambda v: len(v) > 0, "a non-empty sequence of (key, seed) pairs")
    GRADIENT, PROBE, DONE = range(3)            # what a start asks of the next round
    coord = np.eye(dim)[:min(dim, COORD_STARTS, N_STARTS)]
    starts = []
    for _, seed in problems:
        starts.extend(coord)
        for s in range(len(coord), N_STARTS):
            v = rng.stream(seed, rng.TAG_POINCARE, s).standard_normal(dim)
            n = np.linalg.norm(v)
            starts.append(v / n if n > 0 else np.eye(dim)[0])
    X = _normalized(np.reshape(starts, (len(starts), dim)))   # each start's current point
    per_start = max(1, budget // N_STARTS)
    # the first round scores every start point
    val = np.concatenate([fun(key, X[k * N_STARTS:(k + 1) * N_STARTS].copy())
                          for k, (key, _) in enumerate(problems)])
    evals = np.ones(len(X), dtype=int)
    phase = np.full(len(X), GRADIENT if per_start > 1 else DONE)
    step, gap = np.full(len(X), 0.1), np.full(len(X), np.inf)
    Q = np.empty_like(X)           # each line search's probe point
    G = np.empty_like(X)           # the projected gradient at X that a line search follows
    V, W = np.empty((len(X), 2 * dim)), np.empty(len(X))    # a round's stencil and probe values
    # rows x + H are x + h then x - h, h = GRAD_STEP I; +0.0 and -0.0 off the diagonal keep x's bits
    H = np.concatenate([np.eye(dim), -np.eye(dim)]) * GRAD_STEP

    while (live := np.flatnonzero(phase != DONE)).size:
        grad = phase[live] == GRADIENT
        i, j = live[grad], live[~grad]
        for k in np.flatnonzero(np.bincount(live // N_STARTS)):  # np.unique imports numpy.ma
            grads, probes = i[i // N_STARTS == k], j[j // N_STARTS == k]
            n = 2 * dim * len(grads)
            v = fun(problems[k][0], np.concatenate([(X[grads, None] + H).reshape(n, dim),
                                                    Q[probes]]))
            V[grads], W[probes] = np.reshape(v[:n], (-1, 2 * dim)), v[n:]

        evals[i] += 2 * dim
        g = (V[i, :dim] - V[i, dim:]) / (2 * GRAD_STEP)
        g -= _dots(g, X[i])[:, None] * X[i]   # tangent projection
        G[i] = g
        flat = np.sqrt(_dots(g, g)) < 1e-12
        phase[i[flat]] = DONE

        evals[j] += 1
        up = W[j] > val[j]
        a = j[up]
        gap[a] = (W[a] - val[a]) / np.maximum(np.abs(val[a]), 1e-30)
        X[a], val[a] = Q[a], W[a]
        step[a] *= 1.3
        phase[a] = np.where((gap[a] < REL_IMPROVEMENT_STOP) | (evals[a] >= per_start), DONE,
                            GRADIENT)
        step[j[~up]] *= 0.5

        # a new gradient, or a failed probe, starts the next probe while the step exceeds 1e-12
        b = np.concatenate([i[~flat], j[~up]])
        stop = ~(step[b] > 1e-12)
        phase[b[stop]] = DONE
        b = b[~stop]
        Q[b] = _normalized(X[b] + step[b][:, None] * G[b])
        phase[b] = PROBE

    results = []
    for k in range(len(problems)):
        best = max(range(k * N_STARTS, (k + 1) * N_STARTS), key=lambda i: val[i])
        results.append((val[best], X[best], gap[best] if np.isfinite(gap[best]) else 0.0))
    return results


def maximize_ratio(ratio: Callable[[Any, Any], Any], chart: Callable[[np.ndarray], Any],
                   dim: int, budget: int, problems: Sequence[tuple[Any, int]],
                   per_row: int) -> list[WorstConstant]:
    """Maximize ratio(chart(x + iy), key) over unit vectors (x, y) in R^{2 dim}, for each
    (key, seed) of problems, in one maximize_on_sphere ascent.

    chart maps complex coordinates, shape (..., dim), to a witness or a
    stack of witnesses.  Each round scores each problem's rows by
    ratio(., key), one call per linalg.blocks block, the blocks in order,
    per_row counting a witness's entries (order^2 on the group side, n^4 for
    a matrix symbol).  A witness in the fixed-point algebra scores 0; every
    other error propagates.  Returns one WorstConstant per problem, its
    constant the optimizer's score.
    """
    def fun(key, Z: np.ndarray) -> np.ndarray:
        def score(lo, hi):
            try:
                return ratio(chart(Z[lo:hi, :dim] + 1j * Z[lo:hi, dim:]), key)
            except ZeroNumeratorError as exc:
                return exc.scores
        return np.concatenate([score(lo, hi) for lo, hi in blocks(len(Z), per_row)])

    return [WorstConstant(float(val), chart(z[:dim] + 1j * z[dim:]), float(gap))
            for val, z, gap in maximize_on_sphere(fun, 2 * dim, budget, problems)]


def worst_constant(sg: Semigroup, p: float, budget: int = 20000, seed: int = 0, *,
                   ascent: Optional[WorstConstant] = None) -> WorstConstant:
    """Empirical lower bound for the best L_p Poincare constant.

    The optimizer scores by poincare_ratio, through the characters where the
    group has them; the constant is the winning witness re-scored on the
    regular representation by gamma_norm, which takes no PSD moment, on
    every group, so it stays a certified bound for a psi that passes the CN
    test only within its tolerance.
    ascent, this p's result of an ascent shared with other p (sweep_and_fit's),
    replaces the search: the call then only certifies it, and reads no budget or seed.
    """
    require(p, "p", lambda v: is_number(v) and v >= 2, "a number >= 2")
    if ascent is None:
        [ascent] = _ascend(sg, [(p, seed)], budget)
    return ascent._replace(constant=float(_ratio(sg, ascent.witness, p)))


def _ascend(sg: Semigroup, problems: Sequence[tuple[float, int]],
            budget: int) -> list[WorstConstant]:
    """maximize_ratio of poincare_ratio at each (p, seed) of problems, over the coefficients
    off the fixed-point algebra."""
    nonfix = np.where(~sg.fix_mask)[0]
    if nonfix.size == 0:
        raise ValueError("psi is identically 0: no spectral gap")

    def chart(z: np.ndarray) -> AlgebraElement:
        c = np.zeros(z.shape[:-1] + (sg.group.order,), dtype=complex)
        c[..., nonfix] = z
        return AlgebraElement(sg.group, c)

    return maximize_ratio(lambda f, p: poincare_ratio(sg, f, p), chart, nonfix.size, budget,
                          problems, sg.group.order ** 2)


@dataclass(frozen=True)
class PoincareReport:
    p_grid: tuple[float, ...]
    constants: tuple[float, ...]
    witnesses: tuple
    slope: float
    slope_stderr: float
    fit_residual: float
    alpha_used: Optional[float] = None
    envelope: Optional[tuple[float, ...]] = None


def fit_exponent(p_grid: Sequence[float], constants: Sequence[float]):
    """Least-squares slope of log C_p against log p, with its standard error."""
    lp = np.log(np.asarray(p_grid, dtype=float))
    lc = np.log(np.asarray(constants, dtype=float))
    A = np.vstack([lp, np.ones_like(lp)]).T
    coef, *_ = np.linalg.lstsq(A, lc, rcond=None)
    resid = lc - A @ coef
    rss = float(resid @ resid)
    dof = max(len(lp) - 2, 1)
    var = rss / dof / float(((lp - lp.mean()) ** 2).sum())
    return float(coef[0]), float(np.sqrt(var)), float(np.abs(resid).max())


def sweep(ascend: Callable[[list], list[WorstConstant]],
          certify: Callable[[float, WorstConstant], WorstConstant], p_grid: Sequence[float],
          seed: int) -> PoincareReport:
    """The whole grid in one ascent, each p certified, and the growth-exponent fit.

    ascend maximizes the ratio at each problem (p_i, seed + i) of the grid in
    one maximize_ratio call, so each round scores every p that still has an
    active start; certify(p_i, result) re-scores the i-th winner.  Each p's
    starts advance as they would alone, so a p's constant depends on (psi, p,
    budget, seed + i) only, not on the rest of the grid.
    """
    ps = [float(p) for p in require_list(list(p_grid), "p grid", is_number, "a number")]
    if not all(2 <= p <= 16 for p in ps):
        raise ValueError(f"p grid must lie in [2, 16], got {ps}")
    if len(set(ps)) < 2:
        raise ValueError(f"p grid needs two distinct values to fit the growth exponent, got {ps}")
    results = [certify(p, res)
               for p, res in zip(ps, ascend([(p, seed + i) for i, p in enumerate(ps)]))]
    constants = [r.constant for r in results]
    return PoincareReport(tuple(ps), tuple(constants), tuple(r.witness for r in results),
                          *fit_exponent(ps, constants))


def sweep_and_fit(sg: Semigroup, p_grid: Sequence[float], budget: int = 20000,
                  seed: int = 0, alpha_cert: Optional[AlphaCertificate] = None) -> PoincareReport:
    """sweep over the group algebra, each p certified by worst_constant, with the envelope
    sqrt(p/alpha*) C_2 for a strictly positive alpha certificate, C_2 from l2_oracle.  With
    alpha* = 0 (criterion fails) the slope is still fitted but no envelope exists."""
    report = sweep(lambda problems: _ascend(sg, problems, budget),
                   lambda p, res: worst_constant(sg, p, ascent=res), p_grid, seed)
    if alpha_cert is None or not alpha_cert.alpha_star > 0:
        return report
    alpha, c2 = float(alpha_cert.alpha_star), l2_oracle(sg)
    return replace(report, alpha_used=alpha,
                   envelope=tuple(np.sqrt(p / alpha) * c2 for p in report.p_grid))
