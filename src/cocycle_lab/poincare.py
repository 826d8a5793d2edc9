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
rows of one set of arrays and advance in rounds, each round one scoring
call per row block with every live row of every p, each row at its own p;
each p then gets its own worst_constant call, which certifies its winner.  Every
scoring route returns each row's ratio with its exact gradient
(poincare_ratio and matrix_poincare_ratio with gradient=True), so the
first round scores the start points and each later round sends each live
start's one line-search probe; an accepted probe's gradient is the next
step's.  The budget still charges a gradient 2 dim points, the stencil it
replaced.  A p's starts visit the points they would visit alone, so its
constant depends on (psi, p, budget, seed + i) only.  matrixalg reuses
maximize_ratio and sweep with its own witness chart and ratio.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (AlgebraElement, Semigroup, conv, derived_transform, fix_project, fourier,
                      gamma, gamma_gradient, gamma_norm, gamma_transform, generator_apply, lp_norm,
                      regular_rep)
from .criterion import AlphaCertificate
from .linalg import blocks, is_integer, is_number, require, require_finite, require_list, root
from . import linalg, rng

REL_IMPROVEMENT_STOP = 1e-8
N_STARTS = 32         # optimizer starts per constant
COORD_STARTS = 16     # of which at most this many are coordinate vectors


class ZeroNumeratorError(ValueError):
    """A witness lies in the fixed-point algebra, where the ratio is 0/0; scores holds it as 0."""

    def __init__(self, scores):
        super().__init__("witness lies in the fixed-point algebra (zero numerator)")
        self.scores = scores


def ratio_scores(num, den, coeff_max, gradient=None):
    """num / den per witness, the two norms of the ratio: a float for one, an array for a stack.

    num <= 1e-14 coeff_max flags a witness in the fixed-point algebra, a test no scaling moves:
    ZeroNumeratorError, whose scores hold it as 0.  With gradient, a map from the scores of a
    stack to their gradients, returns (scores, gradients) instead, such a witness scored 0 with
    gradient 0.
    """
    zero = num <= 1e-14 * coeff_max
    r = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
    if gradient is not None:
        g = gradient(r)
        g[zero] = 0.0
        return r, g
    r = float(r) if r.ndim == 0 else r
    if np.any(zero):
        raise ZeroNumeratorError(r)
    return r


def _in_p_range(p) -> bool:
    """p is a number in [2, 16], the p every Poincare entry point takes: even moments beyond 16
    leave the range linalg's products are sized for, and p = inf has no gradient."""
    return is_number(p) and 2 <= p <= 16


def _require_p(p, lead: Optional[tuple] = None):
    """p, one number in [2, 16]; with lead, a witness stack's leading shape, also an array of one
    such number per witness, as a flat float array."""
    if lead is None or np.ndim(p) == 0:
        return require(p, "p", _in_p_range, "a number in [2, 16]")
    return linalg._require_ps(p, int(np.prod(lead)), "p")


def _by_p(p) -> list:
    """(value, rows) per distinct value of p, one number or one per row: rows is slice(None),
    which takes no copy, where one value covers every row, else a row mask."""
    values = [p] if np.ndim(p) == 0 else list(dict.fromkeys(p.tolist()))
    return [(values[0], slice(None))] if len(values) == 1 else [(v, p == v) for v in values]


def _col(p, ndim: int):
    """p, one number or one per row, shaped to broadcast against a stack with ndim axes."""
    return np.reshape(p, (-1,) + (1,) * (ndim - 1)) if np.ndim(p) else p


# A witness whose largest |entry| lies outside [2^-WINDOW, 2^WINDOW] is scored divided by a power of
# two: inside, Gamma (degree 2) and its moments up to p = 16 (degree 16) stay in float range.
WINDOW = 32


def _scored(c: np.ndarray, axes: tuple, parts: Callable) -> Any:
    """ratio_scores of parts(w) = (numerators, denominators, gradient map or None), w the
    witnesses of c as a flat stack, each witness whose largest |entry| lies outside
    [2^-WINDOW, 2^WINDOW] times s = 2^-e, 2^e the power of two at or below that entry.  The
    ratio has degree 0, R(c) = R(s c), so only a gradient is scaled back, grad R(c) =
    s grad R(s c).  Witnesses inside keep their bits."""
    shape = c.shape[:c.ndim - len(axes)]
    c = c.reshape((-1,) + c.shape[len(shape):])
    amax = np.abs(c).max(axis=axes)
    e = np.clip(np.frexp(amax)[1] - 1, -1022, 1023)
    s = np.where((amax > 0) & (np.abs(e) > WINDOW), np.ldexp(1.0, -e), 1.0)
    if moved := (s != 1.0).any():
        c = c * np.expand_dims(s, axes)
        amax = np.abs(c).max(axis=axes)
    num, den, grad = parts(c)
    out = ratio_scores(num.reshape(shape), den.reshape(shape), amax.reshape(shape), grad)
    return (out[0], out[1] * _col(s, out[1].ndim)) if moved and grad is not None else out


def poincare_ratio(sg: Semigroup, f: AlgebraElement, p, gradient: bool = False):
    """Ratio per witness of f, an element or a stack, at p one number or an array of one per
    witness; ||Gamma^{1/2}||_p = ||Gamma||_{p/2}^{1/2}.  A witness scores as alone at its p, bit
    for bit; one whose largest coefficient lies outside [2^-WINDOW, 2^WINDOW] is scored divided
    by a power of two (_scored).

    On a group with a character table, whatever psi is, the ratio is
    (mean|f0^|^p / max mean|Gamma^|^{p/2})^{1/p} from the transforms of
    f0 = f - E_Fix f and of Gamma(f0, f0) and Gamma(f0*, f0*) (gamma_transform:
    no kernel weight where sg.derivation exists), each moment scaled by its
    max: the transforms and maxima once per call, the powers per distinct p.
    There an exactly symmetric psi (every
    length_function) has Gamma(f0*, f0*) = Gamma(f0, f0) as elements, so
    only the first is formed.  Every other group takes the regular
    representation, its rows grouped by p: under sg.gamma_psd (psi passes the CN test, so
    Gamma(f, f) is PSD, Schoenberg) an integer p/2 takes linalg._psd_moments, gamma_norm's
    bits at even p/2; a fractional one, or no certificate, takes gamma_norm's
    Schatten norms, _ratio's bits.  Both Gammas' representations are formed
    once, for the scores and the gradient.

    With gradient, f a (k, order) stack, returns (scores, G) with the same scores: G[i] the
    gradient of the i-th ratio R in f's coefficients a, dR = Re sum conj(G[i]) o da.  With
    N = tau|f0|^p and D = tau|Gamma|^q, q = p/2, on the active branch of the max,
    G = (R / p)(grad N / N - grad D / D) (_ratio_gradient), grad N = p f0 (f0* f0)^{p/2-1}.
    Through the characters both are transforms; elsewhere grad D = q (A(f0 M) + A(f0) M -
    f0 A(M)), M = sign(Gamma)|Gamma|^{q-1} (algebra.gamma_gradient), so a psi that fails the
    CN test, whose Gamma(f, f) need not be PSD, gets its exact gradient too.
    """
    p = _require_p(p, f.coeffs.shape[:-1])
    require_finite(f.coeffs, "Poincare ratio input")
    parts = _character_parts if sg.group.characters is not None else _regular_parts
    return _scored(f.coeffs, (-1,), lambda c: parts(sg, _off_fix_element(sg, c), p, gradient))


def _off_fix_element(sg: Semigroup, c: np.ndarray) -> AlgebraElement:
    """f0 = f - E_Fix f of the witnesses c."""
    f = AlgebraElement(sg.group, c)
    return f - fix_project(sg, f)


def _regular_parts(sg: Semigroup, f0: AlgebraElement, p, gradient: bool):
    """poincare_ratio's numerators, denominators and gradient map (or None) on the regular
    representation."""
    pair = (f0, f0.adjoint())
    reps = [regular_rep(gamma(sg, g, g)) for g in pair]
    num, den = np.empty(len(f0.coeffs)), np.empty(len(f0.coeffs))
    M, moments = np.empty((2,) + f0.coeffs.shape, complex), np.empty((2, len(num)))
    if gradient:
        num[:], _, gn = linalg._schatten_grad(regular_rep(f0), p)    # lp_norm's bits
    for q, R in _by_p(p):
        psd = sg.gamma_psd and q / 2.0 % 1 == 0
        hs = [h[R] for h in reps]
        if psd:
            den[R] = np.maximum(*(linalg._psd_moments(h, (q / 2.0,), True)[0] for h in hs))
        else:                                   # gamma_norm's bits, on the reps formed once
            den[R] = np.maximum(*(linalg.schatten_norm(h, q / 2.0) for h in hs))
        if not gradient:
            num[R] = lp_norm(AlgebraElement(sg.group, f0.coeffs[R]), q)
        for i, h in enumerate(hs if gradient else ()):    # M: each L's column of the identity
            L, moments[i, R] = linalg._trace_power_grad(h, q / 2.0, psd)
            M[i, R] = L[..., 0]
    if not gradient:
        return num, root(den, 2), None
    n = sg.group.order
    gd = [n * gamma_gradient(lambda x: generator_apply(sg, x), conv, g,
                             AlgebraElement(sg.group, m)).coeffs for g, m in zip(pair, M)]
    return num, root(den, 2), lambda r: _ratio_gradient(r, p, n * gn[..., 0], gd, moments,
                                                        _coeff_adjoint(sg), _off_fix(sg))


def _character_parts(sg: Semigroup, f0: AlgebraElement, p, gradient: bool):
    """poincare_ratio's numerators, denominators and gradient map (or None) through the
    characters."""
    F = fourier(f0)
    a = np.abs(F)
    v = sg.psi.values
    pair = (f0,) if np.array_equal(v, v[sg.group.inv]) else (f0, f0.adjoint())
    b = np.stack([gamma_transform(sg, g) for g in pair])
    amax, bmax = a.max(axis=-1), b.max(axis=(0, -1))
    require_finite(bmax, "max|Gamma^| of the Poincare ratio input")
    ah, bh = a / _nonzero(amax)[:, None], b / _nonzero(bmax)[:, None]
    mu, nus = np.empty(len(a)), np.empty(b.shape[:2])
    for q, R in _by_p(p):
        mu[R] = np.mean(ah[R] ** q, axis=-1)
        nus[:, R] = np.mean(bh[:, R] ** (q / 2.0), axis=-1)
    nu = nus.max(axis=0)
    # the numerator is ||f0||_p / nu^{1/p} with nu <= 1: at least ||f0||_p, and 0 exactly when it is

    def grad(r):
        n, chi = sg.group.order, sg.group.characters
        fh = F / _nonzero(amax)[:, None]
        gn, w = np.empty_like(F), np.empty_like(bh)
        for q, R in _by_p(p):
            gn[R] = q * np.einsum("...k,kg->...g", fh[R] * np.abs(fh[R]) ** (q - 2), chi.conj())
            w[:, R] = bh[:, R] ** (q / 2.0 - 1)
        gd = [_transform_gradient(sg, g, wg, _col(p, 2) / 2.0) / _nonzero(n * bmax * nu_g)[:, None]
              for g, wg, nu_g in zip(pair, w, nus)]
        return _ratio_gradient(r, p, gn / _nonzero(n * amax * mu)[:, None], gd, nus,
                               _coeff_adjoint(sg), _off_fix(sg))

    return amax * root(mu / _nonzero(nu), p), root(bmax, 2), grad if gradient else None


def _nonzero(x: np.ndarray) -> np.ndarray:
    """x with its zeros replaced by 1: a divisor that leaves a zero row at 0."""
    return np.where(x > 0, x, 1.0)


def _ratio_gradient(r, p, gn, gd, moments, adjoint, project) -> np.ndarray:
    """(r / p)(gn - gd) per row of a stack, projected by project: the gradient of a ratio
    r = (N / D)^{1/p}, p one number or one per row, gn = grad N / N and gd = grad D / D on the
    branch of the max with the larger moment.  gd and moments hold one branch, or two, those of
    x0 and of x0*, the second taken back to x0 by adjoint."""
    g = gd[0]
    axes = (-1,) + (1,) * (g.ndim - 1)
    if len(gd) == 2:
        g = np.where((moments[1] > moments[0]).reshape(axes), adjoint(gd[1]), g)
    return project(r.reshape(axes) / _col(p, g.ndim) * (gn - g))


def _coeff_adjoint(sg: Semigroup):
    return lambda c: AlgebraElement(sg.group, c).adjoint().coeffs


def _off_fix(sg: Semigroup):
    return lambda c: np.where(sg.fix_mask, 0.0, c)


def _transform_gradient(sg: Semigroup, f: AlgebraElement, w: np.ndarray, q) -> np.ndarray:
    """n bmax^{1-q} grad tau|Gamma(f, f)|^q per row of f, from w = bh^{q-1}, bh = |Gamma^| / bmax,
    q one number or a column of one per row: through sg.derivation (Gamma^ >= 0)
    2 q sum_j conj(b_j chi) (b_j a)^ w, else q (A(f M) + A(f) M - f A(M)) times n, M the element
    whose transform is sign(Gamma^) w: a psi that fails the CN test has a Gamma^ of either sign."""
    n, chi = sg.group.order, sg.group.characters
    if sg.derivation is None:
        w = w * np.sign(fourier(gamma(sg, f, f)).real)
        m = AlgebraElement(sg.group, np.einsum("...k,kg->...g", w, chi.conj()))
        return q * gamma_gradient(lambda h: generator_apply(sg, h), conv, f, m).coeffs
    t = derived_transform(sg, f) * np.tile(w, sg.derivation.shape[1] // n)
    return 2 * q * (t[:, None, :] @ sg.derivation.conj().T)[:, 0]


def _ratio(sg: Semigroup, f: AlgebraElement, p: float):
    """The ratio on the regular representation, the reference route, windowed as
    poincare_ratio; its callers check p."""
    def parts(c):
        f0 = _off_fix_element(sg, c)
        return lp_norm(f0, p), root(gamma_norm(sg, f0, p / 2.0), 2), None
    return _scored(f.coeffs, (-1,), parts)


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


def maximize_on_sphere(fun: Callable[[list, np.ndarray], tuple], dim: int, budget: int,
                       problems: Sequence[tuple[Any, int]]) -> list:
    """Multi-start projected gradient ascent on the unit sphere: one ascent for many problems.

    problems is a sequence of (key, seed) pairs, and fun(keys, Y) maps a (k, dim)
    stack of points, with keys the list of their k problem keys, to (values,
    gradients): each row's value of its problem's objective and its (dim,)
    gradient, each row on its own.  Each problem has N_STARTS starts: the first
    min(dim, COORD_STARTS, N_STARTS) coordinate vectors, then start s draws
    the stream (seed, TAG_POINCARE, s), all of a problem's in one rng.normal_block.
    Every start of every problem is one row of the state arrays (point, value,
    gradient, step, gap, evaluations), and all advance together in rounds.  The
    first round scores every start point; each later round scores the one
    line-search probe of every live start.  A round is one call of fun, the
    problems in order and each problem's rows in start order.  An accepted
    probe's gradient is the next step's: a step follows the tangent projection of
    the gradient at its point.  The budget counts points, and a gradient is
    charged 2 dim of them, the price of a central-difference stencil: a start
    takes a new gradient while it has been charged fewer than budget // N_STARTS
    points, adapts its step by backtracking, and stops when its relative
    improvement drops below 1e-8.  Each start visits the points it would visit
    alone, so a problem's rows are the same whatever the other problems are, and
    however fun splits a round; ties resolve in start order.  Returns (best value,
    best point, gap) for each problem, in order.
    """
    require(budget, "budget", lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    require(problems, "problems", lambda v: len(v) > 0, "a non-empty sequence of (key, seed) pairs")
    coord = np.eye(dim)[:min(dim, COORD_STARTS, N_STARTS)]
    starts = []
    for _, seed in problems:
        starts.append(coord)
        v = rng.normal_block(seed, rng.TAG_POINCARE, len(coord), N_STARTS, 1.0, (dim,))
        n = np.sqrt(_dots(v, v))            # np.linalg.norm's bits, row by row
        starts.append(np.where((n > 0)[:, None], v / _nonzero(n)[:, None], np.eye(dim)[0]))
    X = _normalized(np.concatenate(starts))   # each start's current point
    keys = [key for key, _ in problems for _ in range(N_STARTS)]   # each row's problem key
    per_start = max(1, budget // N_STARTS)
    val, D = fun(keys, X)          # D: the gradient at each start's point
    evals = np.ones(len(X), dtype=int)
    step, gap = np.full(len(X), 0.1), np.full(len(X), np.inf)
    G = np.empty_like(X)           # the projected gradient at X that a line search follows
    take = np.arange(len(X)) if per_start > 1 else np.arange(0)    # starts taking a gradient
    retry = np.arange(0)           # starts whose probe failed
    while True:
        evals[take] += 2 * dim
        g = D[take] - _dots(D[take], X[take])[:, None] * X[take]   # tangent projection
        G[take] = g
        # a new gradient, or a failed probe, sends the next probe while the step exceeds 1e-12
        live = np.concatenate([take[~(np.sqrt(_dots(g, g)) < 1e-12)], retry])
        live = np.sort(live[step[live] > 1e-12])
        if not live.size:
            break
        Q = _normalized(X[live] + step[live][:, None] * G[live])
        W, DW = fun([keys[i] for i in live.tolist()], Q)
        evals[live] += 1
        up = W > val[live]
        a = live[up]
        gap[a] = (W[up] - val[a]) / np.maximum(np.abs(val[a]), 1e-30)
        X[a], val[a], D[a] = Q[up], W[up], DW[up]
        step[a] *= 1.3
        take = a[~((gap[a] < REL_IMPROVEMENT_STOP) | (evals[a] >= per_start))]
        retry = live[~up]
        step[retry] *= 0.5

    results = []
    for k in range(len(problems)):
        best = max(range(k * N_STARTS, (k + 1) * N_STARTS), key=lambda i: val[i])
        results.append((val[best], X[best], gap[best] if np.isfinite(gap[best]) else 0.0))
    return results


def maximize_ratio(scores: Callable[[Any, Any], tuple], chart: Callable[[np.ndarray], Any],
                   dim: int, budget: int, problems: Sequence[tuple[Any, int]],
                   per_row: int) -> list[WorstConstant]:
    """Maximize the ratio of chart(x + iy) at key over unit vectors (x, y) in R^{2 dim}, for
    each (key, seed) of problems, in one maximize_on_sphere ascent.

    chart maps complex coordinates, shape (k, dim), to a stack of witnesses, and
    scores(witnesses, keys) returns their (ratios, G), keys the list of each
    witness's problem key and G[i] the gradient in the i-th witness's chart
    coordinates z, dR = Re sum conj(G[i]) o dz: the gradient in (x, y) is
    (Re G, Im G).  A witness in the fixed-point algebra scores 0.  Each round
    scores the rows of every problem, one call per linalg.blocks block, the
    blocks in order, per_row counting a witness's entries (order^2 on the group
    side, n^4 for a matrix symbol).  Returns one WorstConstant per problem, its
    constant the optimizer's score.
    """
    def fun(keys: list, Z: np.ndarray):
        parts = [scores(chart(Z[lo:hi, :dim] + 1j * Z[lo:hi, dim:]), keys[lo:hi])
                 for lo, hi in blocks(len(Z), per_row)]
        G = np.concatenate([g for _, g in parts])
        return np.concatenate([v for v, _ in parts]), np.concatenate([G.real, G.imag], axis=1)

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
    _require_p(p)
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

    def scores(f: AlgebraElement, ps: list):
        r, G = poincare_ratio(sg, f, np.array(ps), gradient=True)
        return r, G[:, nonfix]

    return maximize_ratio(scores, chart, nonfix.size, budget, problems, sg.group.order ** 2)


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
    if not all(map(_in_p_range, ps)):
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
