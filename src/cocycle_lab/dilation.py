"""Monte-Carlo realization of the Gaussian Markov dilation.

Per sample omega, the crossed-product image pi_t(x) of x = sum_g x_g lambda(g)
at time t is the |G| x |G| matrix with entry (h, g^{-1}h) equal to
x_g exp(i beta_t(alpha_{h^{-1}} b(g))(omega)); the twisted vector is
alpha_{h^{-1}} b(g) = b(h^{-1}g) - b(h^{-1}) by the cocycle law, so no
representation matrices are ever applied.  beta_t(xi) = <xi, B_t> with
B a d-dimensional Brownian motion of covariance 2 min(s,t) per
coordinate.  The realization is an exact *-homomorphism sample by
sample; expectations recover the semigroup.

Each matrix is placed from a field amp[..., h, g] by one gather through
the group's rep_index table: entry (h, u) = amp[..., h, h u^{-1}].  With
y_k = T_{L-t_k} x, the step dx_k of the transform M_n(x) is the gather of
i (y_k)_g e^{i beta_{t_k}(alpha_{h^{-1}} b(g))} <alpha_{h^{-1}} b(g), dB_k>;
M_n(x) and its decoupled twin M~_n(x), driven by an independent increment
copy, come as a pair from one pass.  With the Gaussian step integrated out
(E_{k-1}[dB^j dB^l] = 2 dt delta_{jl}), the conditioned square functions
are the dilation of Gamma, S_c = 2 dt sum_k pi_{t_k}(Gamma(y_k, y_k)) and
S_r = the same with y_k^*: the brackets read the transform's phase field,
so M, M~ and the bracket moments all come from one chunk pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, Semigroup, gamma, regular_rep, semigroup_apply
from .cocycles import CocycleRealization, LengthFunction
from .criterion import AlphaCertificate
from .groups import FiniteGroup
from .linalg import schatten_norm, schatten_pow_batch, thread_map
from . import rng

BRACKET_PS = (2.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class BrownianScenario:
    """Seeded description of the increment ensemble; samples regenerate on demand.

    Sample s draws its (steps, d) increment block dB[k, j] ~ N(0, 2 dt)
    from the stream (seed, TAG_SCENARIO, s), row-major in (k, j); the
    independent decoupling copy uses TAG_SCENARIO_COPY with the same
    sample index.
    """
    cocycle: CocycleRealization
    steps: int
    dt: float
    samples: int
    seed: int

    @property
    def d(self) -> int:
        return self.cocycle.dimension

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps) * self.dt      # t_k, the start of step k

    def _block(self, tag: int, lo: int, hi: int) -> np.ndarray:
        out = np.empty((hi - lo, self.steps, self.d))
        sd = np.sqrt(2.0 * self.dt)
        for i in range(lo, hi):
            out[i - lo] = rng.stream(self.seed, tag, i).normal(0.0, sd, (self.steps, self.d))
        return out

    def increments(self, lo: int, hi: int) -> np.ndarray:
        return self._block(rng.TAG_SCENARIO, lo, hi)

    def increments_copy(self, lo: int, hi: int) -> np.ndarray:
        return self._block(rng.TAG_SCENARIO_COPY, lo, hi)

    @cached_property
    def semigroup(self) -> Semigroup:
        return Semigroup(LengthFunction(self.cocycle.group, self.cocycle.psi))


def sample_scenario(cocycle: CocycleRealization, n: int, dt: float,
                    samples: int, seed: int) -> BrownianScenario:
    if not 0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    return BrownianScenario(cocycle, int(n), float(dt), int(samples), int(seed))


def _bdiff(cocycle: CocycleRealization) -> np.ndarray:
    """(order, order, d) twisted vectors: bdiff[h, g] = alpha_{h^{-1}} b(g)."""
    g = cocycle.group
    return cocycle.vectors[g.conv_index] - cocycle.vectors[g.inv][:, None, :]


def _gather(group: FiniteGroup, amp: np.ndarray) -> np.ndarray:
    """amp[..., h, g] -> matrix with entry (h, g^{-1}h) = amp[..., h, g].

    np.take, unlike amp[..., rows, rep_index], returns a C-contiguous array;
    sums over the leading axes of a non-contiguous one round differently.
    """
    n = group.order
    flat = np.arange(n)[:, None] * n + group.rep_index
    return np.take(amp.reshape(amp.shape[:-2] + (n * n,)), flat, axis=-1)


def _phases(bdiff: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Phase field e^{i <alpha_{h^{-1}} b(g), B>} at path points B[..., j]: [..., h, g]."""
    return np.exp(1j * np.einsum("hgj,...j->...hg", bdiff, B))


def _grid_index(scenario: BrownianScenario, t: float) -> int:
    k = int(round(t / scenario.dt))
    if k < 0 or k > scenario.steps or abs(t - k * scenario.dt) > 1e-12 * max(1.0, scenario.horizon):
        raise ValueError(f"t = {t} is not on the grid (dt = {scenario.dt}, steps = {scenario.steps})")
    return k


def _chunks(scenario: BrownianScenario) -> list[tuple[int, int]]:
    order = scenario.cocycle.group.order
    # c x steps x order^2 x (d + 2) near 2^21 entries; each chunk field is c x steps x order^2
    per = max(1, scenario.steps * order * order * (scenario.d + 2))
    c = max(1, int(2 ** 21 // per))
    return [(lo, min(lo + c, scenario.samples)) for lo in range(0, scenario.samples, c)]


def _map_chunks(scenario: BrownianScenario, fn) -> list:
    """Apply fn(lo, hi) to every chunk; fixed-order results regardless of workers."""
    return thread_map(lambda s: fn(*s), _chunks(scenario))


def dilation_matrix(x: AlgebraElement, t: float, scenario: BrownianScenario,
                    sample: int) -> np.ndarray:
    """Realization of the time-t dilation of x at one sample path."""
    k = _grid_index(scenario, t)
    if not 0 <= sample < scenario.samples:
        raise ValueError(f"sample index {sample} out of range [0, {scenario.samples})")
    Bt = scenario.increments(sample, sample + 1)[0, :k].sum(axis=0)
    return _gather(scenario.cocycle.group, x.coeffs * _phases(_bdiff(scenario.cocycle), Bt))


def dilation_mean(x: AlgebraElement, t: float, scenario: BrownianScenario):
    """MC mean of the dilation matrices with entrywise standard errors."""
    k = _grid_index(scenario, t)
    group = scenario.cocycle.group
    bdiff = _bdiff(scenario.cocycle)

    def work(lo, hi):
        Bt = scenario.increments(lo, hi)[:, :k].sum(axis=1)
        D = _gather(group, x.coeffs * _phases(bdiff, Bt))
        return D.sum(axis=0), (np.abs(D) ** 2).sum(axis=0)

    parts = _map_chunks(scenario, work)
    N = scenario.samples
    mean = sum(s for s, _ in parts) / N
    var = np.maximum(sum(s2 for _, s2 in parts) / N - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / N)


def _check_horizon(scenario: BrownianScenario, L: float) -> None:
    if not np.isfinite(L) or abs(L - scenario.horizon) > 1e-12 * max(1.0, L):
        raise ValueError(f"L = {L} does not match the scenario horizon {scenario.horizon}")


class TransformPass(NamedTuple):
    """Per-sample output of martingale_transform at p."""
    p: float
    M: np.ndarray           # M_n(x)
    Mt: np.ndarray          # its decoupled twin M~_n(x)
    sc_pow: np.ndarray      # tau(|S_c|^{p/2})
    sr_pow: np.ndarray      # tau(|S_r|^{p/2})
    dx_pow: np.ndarray      # sum_k tau(|dx_k|^p)


def martingale_transform(x: AlgebraElement, scenario: BrownianScenario, L: float,
                         p: float) -> TransformPass:
    """M_n(x), its decoupled twin and the bracket moments at p, per sample, in one pass.

    Each chunk draws its increments and their copy once and builds the phase
    field at B_{t_k} = sum_{i<k} dB_i once.  S_c and S_r read it against the
    Gamma table; it is dropped once amp = y_k e^{i beta} is formed; the copy's
    steps give M~, then the steps dx_k give M and sum_k ||dx_k||_p^p.  That
    order keeps a chunk's peak memory low.
    """
    _check_horizon(scenario, L)
    if float(p) not in BRACKET_PS:
        raise ValueError(f"bracket estimation supports p in {BRACKET_PS}, got {p}")
    p = float(p)
    group, sg = scenario.cocycle.group, scenario.semigroup
    bdiff = _bdiff(scenario.cocycle)
    y = semigroup_apply(sg, x, L - scenario.times[:, None])
    gam = np.stack([gamma(sg, y, y).coeffs, gamma(sg, y.adjoint(), y.adjoint()).coeffs])

    def work(lo, hi):
        dB = scenario.increments(lo, hi)
        ph = _phases(bdiff, np.concatenate([np.zeros_like(dB[:, :1]),
                                            np.cumsum(dB, axis=1)[:, :-1]], axis=1))
        sc, sr = schatten_pow_batch(
            2.0 * scenario.dt * _gather(group, np.einsum("ckhg,skg->schg", ph, gam)), p / 2.0)
        amp = y.coeffs[:, None, :] * ph
        del ph
        def steps(drive):   # dx[c, k]: the gather of i amp[c, k] <alpha_{h^{-1}} b(g), drive[c, k]>
            return _gather(group, 1j * amp * np.einsum("hgj,ckj->ckhg", bdiff, drive))
        Mt = steps(scenario.increments_copy(lo, hi)).sum(axis=1)
        dx = steps(dB)
        return dx.sum(axis=1), Mt, sc, sr, schatten_pow_batch(dx, p).sum(axis=1)

    return TransformPass(p, *(np.concatenate(part) for part in zip(*_map_chunks(scenario, work))))


def transform_l2_analytic(x: AlgebraElement, scenario: BrownianScenario, L: float) -> float:
    """Exact E ||M_n(x)||_2^2 = sum_g |x_g|^2 psi(g) 2dt sum_k e^{-2(L-t_k) psi(g)}."""
    _check_horizon(scenario, L)
    psi = scenario.cocycle.psi
    w = np.exp(-2.0 * (L - scenario.times)[:, None] * psi[None, :]).sum(axis=0)
    return float(np.sum(np.abs(x.coeffs) ** 2 * psi * 2.0 * scenario.dt * w))


@dataclass(frozen=True)
class MeanSE:
    mean: float
    se: float


def _mean_se(vals: np.ndarray) -> MeanSE:
    m = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return MeanSE(m, se)


def _root_stat(vals: np.ndarray, root: float) -> MeanSE:
    """Delta method for mean^{1/root} of the per-sample values."""
    ms = _mean_se(vals)
    if ms.mean <= 0:
        return MeanSE(0.0, 0.0)
    v = ms.mean ** (1.0 / root)
    return MeanSE(v, v * ms.se / (root * ms.mean))


@dataclass(frozen=True)
class BracketEstimates:
    p: float
    hc: MeanSE
    hr: MeanSE
    hd: MeanSE


def bracket_estimates(transform: TransformPass) -> BracketEstimates:
    """hc/hr from the analytically conditioned square brackets, hd per step.

    hc^2 is the L_{p/2} norm of S_c = 2 dt sum_k pi_{t_k}(Gamma(y_k, y_k)),
    the conditioned sum of dx_k^dag dx_k (the Gaussian step is integrated
    out; the path-measurable phases stay); hr uses S_r, the same with
    y_k^* = (T_{L-t_k} x)^*; hd^p sums E ||dx_k||_p^p over steps.  This
    reduces the per-sample moments of one martingale_transform pass.
    """
    p = transform.p
    return BracketEstimates(p, _root_stat(transform.sc_pow, p), _root_stat(transform.sr_pow, p),
                            _root_stat(transform.dx_pow, p))


@dataclass(frozen=True)
class BracketBound:
    bound: float
    max_bracket: float
    slack: float
    se: float


@dataclass(frozen=True)
class InequalityReport:
    p: float
    transform_norm: MeanSE          # ||M_n(x)||_p MC estimate
    decoupled_norm: MeanSE
    decoupling_ratio: float
    decoupling_se: float
    hc: MeanSE
    hr: MeanSE
    hd: MeanSE
    bdg_ratio: float
    ito_mc: MeanSE                  # per-sample ||M||_2^2, MC mean
    ito_analytic: float
    bracket_bound: Optional[BracketBound] = None


def inequality_report(x: AlgebraElement, scenario: BrownianScenario, L: float, p: float,
                      alpha_cert: Optional[AlphaCertificate] = None) -> InequalityReport:
    """Decoupling / BDG / bracket-envelope statistics at a single p.

    decoupling_ratio = ||M_n||_p / ||M~_n||_p, bdg_ratio = ||M_n||_p /
    (sqrt(p) max{hc, hr}).  With a positive alpha certificate the bracket
    bound sqrt((1-e^{-2 alpha L})/alpha) max{||Gamma(x,x)||_{p/2},
    ||Gamma(x*,x*)||_{p/2}}^{1/2} is compared against max{hc, hr}; the
    gradient bound Gamma(T_s x, T_s x) <= e^{-2 alpha s} T_s Gamma(x,x)
    makes the slack nonnegative up to MC error.
    """
    tr = martingale_transform(x, scenario, L, p)
    br = bracket_estimates(tr)
    p = tr.p
    mn = _root_stat(schatten_pow_batch(tr.M, p), p)
    mt = _root_stat(schatten_pow_batch(tr.Mt, p), p)
    ratio = mn.mean / mt.mean if mt.mean > 0 else np.inf
    ratio_se = ratio * (mn.se / mn.mean + mt.se / mt.mean) if mt.mean > 0 and mn.mean > 0 else 0.0
    denom = np.sqrt(p) * max(br.hc.mean, br.hr.mean)
    bdg = mn.mean / denom if denom > 0 else np.inf
    ito = _mean_se(schatten_pow_batch(tr.M, 2.0))
    bound = None
    if alpha_cert is not None and alpha_cert.alpha_star > 0:
        a = alpha_cert.alpha_star
        sg = scenario.semigroup
        gnorm = max(
            schatten_norm(regular_rep(gamma(sg, x, x)), p / 2.0),
            schatten_norm(regular_rep(gamma(sg, x.adjoint(), x.adjoint())), p / 2.0))
        env = float(np.sqrt((1.0 - np.exp(-2.0 * a * L)) / a) * np.sqrt(gnorm))
        mb = max(br.hc.mean, br.hr.mean)
        mb_se = br.hc.se if br.hc.mean >= br.hr.mean else br.hr.se
        bound = BracketBound(env, mb, env - mb, mb_se)
    return InequalityReport(p, mn, mt, float(ratio), float(ratio_se),
                            br.hc, br.hr, br.hd, float(bdg), ito,
                            transform_l2_analytic(x, scenario, L), bound)
