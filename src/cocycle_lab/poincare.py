"""Noncommutative L_p Poincare ratios and the growth-exponent sweep.

worst_constant maximizes the ratio

    ||f - E_Fix f||_p / max{ ||Gamma(f,f)||_{p/2}, ||Gamma(f*,f*)||_{p/2} }^{1/2}

over unit coefficient vectors; the result is a certified *lower* bound on
the best constant.  On an abelian group with a character table the
optimizer scores through the characters; the certifying re-score takes
the regular representation everywhere.  At p = 2 the exact constant is
(min nonzero psi)^{-1/2}, which doubles as an optimizer soundness oracle.
sweep_and_fit runs a p grid and fits the growth exponent of log C_p
against log p; matrixalg reuses maximize_ratio and sweep with its own
witness chart and ratio.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (AlgebraElement, Semigroup, fix_project, fourier, gamma, gamma_norm,
                      lp_norm)
from .criterion import AlphaCertificate
from .linalg import block_map, root
from . import rng

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
    """num / den^{1/2} per witness: a float for one, an array for a stack.

    num < 1e-14 (1 + coeff_max) flags a witness in the fixed-point algebra.
    """
    zero = num < 1e-14 * (1.0 + coeff_max)
    r = np.where(zero, 0.0, num / root(np.where(zero, 1.0, den), 2.0))
    r = float(r) if r.ndim == 0 else r
    if np.any(zero):
        raise ZeroNumeratorError(r)
    return r


def poincare_ratio(sg: Semigroup, f: AlgebraElement, p: float):
    """Ratio per witness of f, an element or a stack; ||Gamma^{1/2}||_p = ||Gamma||_{p/2}^{1/2}.

    On a group with a character table, whatever psi is, the ratio is
    (mean|f0^|^p / max mean|Gamma^|^{p/2})^{1/p} from the transforms of
    f0 = f - E_Fix f and of the kernel Gamma(f0, f0) and Gamma(f0*, f0*),
    each moment scaled by its max.  There an exactly symmetric psi (every
    length_function) has Gamma(f0*, f0*) = Gamma(f0, f0) as elements, so
    only the first is formed.  Every other group takes the regular
    representation: when psi passes the CN test (sg.gamma_psd), odd p/2
    takes trace powers in gamma_norm; otherwise the denominator takes
    schatten_norm without the PSD flag.
    """
    if sg.group.characters is None:
        return _ratio(sg, f, p, sg.gamma_psd)
    _require_p(p)
    f0 = f - fix_project(sg, f)
    rows = AlgebraElement(sg.group, f0.coeffs.reshape(-1, sg.group.order))
    a = np.abs(fourier(rows))
    v = sg.psi.values
    pair = (rows,) if np.array_equal(v, v[sg.group.inv]) else (rows, rows.adjoint())
    b = np.abs(np.stack([fourier(gamma(sg, g, g)) for g in pair]))
    amax, bmax = a.max(axis=-1), b.max(axis=(0, -1))
    _require_finite(amax, bmax)
    mu = np.mean((a / _nonzero(amax)[:, None]) ** p, axis=-1)
    nu = np.mean((b / _nonzero(bmax)[:, None]) ** (p / 2.0), axis=-1).max(axis=0)
    # the numerator is ||f0||_p / nu^{1/p} with nu <= 1: at least ||f0||_p, and 0 exactly when it is
    shape = f.coeffs.shape[:-1]
    return ratio_scores((amax * root(mu / _nonzero(nu), p)).reshape(shape), bmax.reshape(shape),
                        np.abs(f.coeffs).max(axis=-1))


def _nonzero(x: np.ndarray) -> np.ndarray:
    """x with its zeros replaced by 1: a divisor that leaves a zero row at 0."""
    return np.where(x > 0, x, 1.0)


def _require_p(p: float) -> None:
    if not p >= 2:
        raise ValueError(f"Poincare ratio needs p >= 2, got {p}")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("Poincare ratio input is not finite (it holds NaN or inf)")


def _ratio(sg: Semigroup, f: AlgebraElement, p: float, psd: bool):
    """The ratio on the regular representation, the reference route."""
    _require_p(p)
    f0 = f - fix_project(sg, f)
    return ratio_scores(lp_norm(f0, p), gamma_norm(sg, f0, p / 2.0, psd),
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


def maximize_on_sphere(fun: Callable[[np.ndarray], Any], dim: int, budget: int, seed: int):
    """Multi-start projected gradient ascent on the unit sphere, the starts in lock step.

    fun maps a (k, dim) stack of points to k values, each row on its own.
    There are N_STARTS starts: the first min(dim, COORD_STARTS, N_STARTS)
    coordinate vectors, then start s draws from the stream (seed,
    TAG_POINCARE, s).  Each round scores the pending request of every active
    start, in start order, in one call of fun: a start point or line-search
    probe (one row), or a central-difference gradient (step 1e-6) of 2 dim
    rows, x + 1e-6 e_i then x - 1e-6 e_i.  A start takes a new gradient
    while it has scored fewer than budget // N_STARTS points, adapts its
    step by backtracking, and stops when its relative improvement drops
    below 1e-8.  Each start visits the points it would visit alone, however
    fun splits a round; ties resolve in start order.  Returns (best value,
    best point, gap).
    """
    if budget < 1:
        raise ValueError(f"optimizer budget must be >= 1, got {budget}")
    starts = list(np.eye(dim)[:min(dim, COORD_STARTS, N_STARTS)])
    for s in range(len(starts), N_STARTS):
        v = rng.stream(seed, rng.TAG_POINCARE, s).standard_normal(dim)
        n = np.linalg.norm(v)
        starts.append(v / n if n > 0 else np.eye(dim)[0])
    per_start = max(1, budget // len(starts))
    h = GRAD_STEP * np.eye(dim)

    def run_start(x0: np.ndarray):
        x = x0 / np.linalg.norm(x0)
        val = (yield x[None])[0]
        evals = 1
        step, gap = 0.1, np.inf
        while evals < per_start:
            v = yield np.concatenate([x + h, x - h])
            evals += 2 * dim
            g = (v[:dim] - v[dim:]) / (2 * GRAD_STEP)
            g -= (g @ x) * x                      # tangent projection
            if np.linalg.norm(g) < 1e-12:
                break
            improved = False
            while step > 1e-12:
                xn = x + step * g
                xn /= np.linalg.norm(xn)
                vn = (yield xn[None])[0]
                evals += 1
                if vn > val:
                    gap = (vn - val) / max(abs(val), 1e-30)
                    x, val = xn, vn
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved or gap < REL_IMPROVEMENT_STOP:
                break
        return val, x, gap if np.isfinite(gap) else 0.0

    runs = [run_start(x0) for x0 in starts]
    pending = {i: next(r) for i, r in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        values = fun(np.concatenate(list(pending.values())))
        lo = 0
        for i, req in list(pending.items()):
            try:
                pending[i] = runs[i].send(values[lo:lo + len(req)])
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            lo += len(req)
    best = max(range(len(results)), key=lambda i: results[i][0])
    return results[best]


def maximize_ratio(ratio: Callable[[Any], Any], chart: Callable[[np.ndarray], Any],
                   dim: int, budget: int, seed: int, per_row: int) -> WorstConstant:
    """Maximize ratio(chart(x + iy)) over unit vectors (x, y) in R^{2 dim}.

    chart maps complex coordinates, shape (..., dim), to a witness or a
    stack of witnesses.  ratio scores each linalg.block_map block of a round
    in one call, per_row counting a witness's entries (order^2 on the group
    side, n^4 for a matrix symbol).  A witness in the fixed-point algebra
    scores 0; every other error propagates.
    """
    def fun(Z: np.ndarray) -> np.ndarray:
        def score(lo, hi):
            try:
                return ratio(chart(Z[lo:hi, :dim] + 1j * Z[lo:hi, dim:]))
            except ZeroNumeratorError as exc:
                return exc.scores
        return np.concatenate(block_map(score, len(Z), per_row))

    val, z, gap = maximize_on_sphere(fun, 2 * dim, budget, seed)
    return WorstConstant(float(val), chart(z[:dim] + 1j * z[dim:]), float(gap))


def worst_constant(sg: Semigroup, p: float, budget: int = 20000, seed: int = 0) -> WorstConstant:
    """Empirical lower bound for the best L_p Poincare constant.

    The optimizer scores by poincare_ratio, through the characters where the
    group has them; the constant is the winning witness re-scored on the
    regular representation with psd=False on every group, so it stays a
    certified bound for a psi that passes the CN test only within its tolerance.
    """
    nonfix = np.where(~sg.fix_mask)[0]
    if nonfix.size == 0:
        raise ValueError("psi is identically 0: no spectral gap")

    def chart(z: np.ndarray) -> AlgebraElement:
        c = np.zeros(z.shape[:-1] + (sg.group.order,), dtype=complex)
        c[..., nonfix] = z
        return AlgebraElement(sg.group, c)

    res = maximize_ratio(lambda f: poincare_ratio(sg, f, p), chart, nonfix.size, budget, seed,
                         sg.group.order ** 2)
    return res._replace(constant=float(_ratio(sg, res.witness, p, False)))


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


def sweep(worst: Callable[[float, int], WorstConstant], p_grid: Sequence[float],
          seed: int, alpha_cert: Optional[AlphaCertificate]) -> PoincareReport:
    """worst(p, seed + i) for the i-th p, growth-exponent fit, optional envelope.

    The envelope sqrt(p/alpha*) C_2 is only reported for a strictly positive
    alpha certificate; with alpha* = 0 (criterion fails) the slope is still
    fitted but no envelope exists.
    """
    ps = [float(p) for p in p_grid]
    if not all(2 <= p <= 16 for p in ps):
        raise ValueError(f"p grid must lie in [2, 16], got {ps}")
    if len(set(ps)) < 2:
        raise ValueError(f"p grid needs two distinct values to fit the growth exponent, got {ps}")
    results = [worst(p, seed + i) for i, p in enumerate(ps)]
    constants = [r.constant for r in results]
    slope, stderr, fit_resid = fit_exponent(ps, constants)
    alpha_used = None
    envelope = None
    if alpha_cert is not None and alpha_cert.alpha_star > 0:
        alpha_used = float(alpha_cert.alpha_star)
        c2 = constants[ps.index(2.0)] if 2.0 in ps else worst(2.0, seed + len(ps)).constant
        envelope = tuple(np.sqrt(p / alpha_used) * c2 for p in ps)
    return PoincareReport(tuple(ps), tuple(constants),
                          tuple(r.witness for r in results),
                          slope, stderr, fit_resid, alpha_used, envelope)


def sweep_and_fit(sg: Semigroup, p_grid: Sequence[float], budget: int = 20000,
                  seed: int = 0, alpha_cert: Optional[AlphaCertificate] = None) -> PoincareReport:
    """sweep over worst_constant on the group algebra."""
    return sweep(lambda p, s: worst_constant(sg, p, budget, s),
                 p_grid, seed, alpha_cert)
