"""Monte-Carlo realization of the Gaussian Markov dilation.

Per sample omega, the crossed-product image pi_t(x) of x = sum_g x_g lambda(g)
at time t is the |G| x |G| matrix with entry (h, g^{-1}h) equal to
x_g exp(i beta_t(alpha_{h^{-1}} b(g))(omega)), where beta_t(xi) = <xi, B_t>
with B a d-dimensional Brownian motion of covariance 2 min(s,t) per
coordinate.  At u = g^{-1}h the cocycle law gives alpha_{h^{-1}} b(g) =
b(h^{-1}g) - b(h^{-1}) = b(u^{-1}) - b(h^{-1}), so with D_B = diag(w_B),
w_B(u) = e^{i <b(u^{-1}), B>}, the image is a diagonal unitary conjugation
of the regular representation Lambda(x)[h, u] = x(h u^{-1}):

    pi_B(x) = D_B^* Lambda(x) D_B,   dx_k = i D_k^* [Lambda(y_k), diag beta_k] D_k,

|G| exponentials per path point, an exact *-homomorphism sample by sample.
dx_k is the step of the transform M_n(x), with y_k = T_{L-t_k} x, D_k at
B_{t_k} and beta_k(u) = <b(u^{-1}), dB_k>; its decoupled twin M~_n(x) takes
an independent increment copy, and tau|dx_k|^p = tau|[Lambda(y_k), diag
beta_k]|^p by unitary invariance.  With the Gaussian step integrated out
(E_{k-1}[dB^j dB^l] = 2 dt delta_{jl}), the conditioned square functions are
S_c = 2 dt sum_k D_k^* Lambda(Gamma(y_k, y_k)) D_k and S_r = the same with
y_k^*: M, M~ and the bracket moments all come from one chunk pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, Semigroup, gamma, gamma_norm, regular_rep, semigroup_apply
from .cocycles import CocycleRealization, LengthFunction
from .criterion import AlphaCertificate
from .linalg import block_map, schatten_pow_batch
from . import rng

BRACKET_PS = (2.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class BrownianScenario:
    """Seeded description of the increment ensemble; samples regenerate on demand.

    Sample s draws its (steps, d) increment block dB[k, j] ~ N(0, 2 dt)
    from the stream (seed, TAG_SCENARIO, s), row-major in (k, j); the
    independent decoupling copy uses TAG_SCENARIO_COPY with the same
    sample index.  A block of samples lo..hi-1 is drawn by
    rng.normal_block: one SeedSequence for sample lo, and a re-keyed
    Philox for each later sample, with the same values as one
    rng.stream per sample.
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
        return rng.normal_block(self.seed, tag, lo, hi, np.sqrt(2.0 * self.dt),
                                (self.steps, self.d))

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


def _pair(cocycle: CocycleRealization, v: np.ndarray) -> np.ndarray:
    """<b(u^{-1}), v[..., :]> per group element u: [..., u]."""
    return np.einsum("...j,uj->...u", v, cocycle.vectors[cocycle.group.inv])


def _path_phases(cocycle: CocycleRealization, B: np.ndarray) -> np.ndarray:
    """w_B[..., u] = e^{i <b(u^{-1}), B[..., :]>} at path points B[..., j]."""
    return np.exp(1j * _pair(cocycle, B))


def _grid_index(scenario: BrownianScenario, t: float) -> int:
    k = int(round(t / scenario.dt))
    if k < 0 or k > scenario.steps or abs(t - k * scenario.dt) > 1e-12 * max(1.0, scenario.horizon):
        raise ValueError(f"t = {t} is not on the grid (dt = {scenario.dt}, steps = {scenario.steps})")
    return k


def _sample_entries(scenario: BrownianScenario) -> int:
    """Entries a block_map chunk holds per sample: steps x |G|^2 in each of d + 2 fields."""
    return scenario.steps * scenario.cocycle.group.order ** 2 * (scenario.d + 2)


def dilation_matrix(x: AlgebraElement, t: float, scenario: BrownianScenario,
                    sample: int) -> np.ndarray:
    """Realization of the time-t dilation of x at one sample path."""
    k = _grid_index(scenario, t)
    if not 0 <= sample < scenario.samples:
        raise ValueError(f"sample index {sample} out of range [0, {scenario.samples})")
    w = _path_phases(scenario.cocycle, scenario.increments(sample, sample + 1)[0, :k].sum(axis=0))
    return w.conj()[:, None] * regular_rep(x) * w


def dilation_mean(x: AlgebraElement, t: float, scenario: BrownianScenario):
    """MC mean and entrywise standard errors of the dilation matrices, over all samples at once."""
    k = _grid_index(scenario, t)
    lx = regular_rep(x)

    def work(lo, hi):
        w = _path_phases(scenario.cocycle, scenario.increments(lo, hi)[:, :k].sum(axis=1))
        return w.conj()[:, :, None] * lx * w[:, None, :]

    D = np.concatenate(block_map(work, scenario.samples, _sample_entries(scenario)))
    mean = D.mean(axis=0)
    var = np.maximum((np.abs(D) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / scenario.samples)


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

    Lambda(y_k) and 2 dt Lambda(Gamma_k) do not depend on the sample and are
    gathered once.  Each chunk of linalg.block_map (_sample_entries per sample)
    draws its increments and their copy once and forms ww[c, k, h, u] =
    conj(w_k(h)) w_k(u), the conjugation by D_k as an entrywise factor, from
    (c, steps, |G|) exponentials.  S_c and S_r read ww against Lambda(Gamma_k),
    PSD when sg.gamma_psd; the copy's commutators give M~; the steps'
    commutators give sum_k ||dx_k||_p^p unphased, then M.  That order keeps a
    chunk's peak memory low.
    """
    _check_horizon(scenario, L)
    if float(p) not in BRACKET_PS:
        raise ValueError(f"bracket estimation supports p in {BRACKET_PS}, got {p}")
    p = float(p)
    coc, sg = scenario.cocycle, scenario.semigroup
    y = semigroup_apply(sg, x, L - scenario.times[:, None])
    ly = regular_rep(y)
    lgam = 2.0 * scenario.dt * np.stack([regular_rep(gamma(sg, y, y)),
                                         regular_rep(gamma(sg, y.adjoint(), y.adjoint()))])

    def commutator(drive):   # [Lambda(y_k), diag beta_k][c, k], beta_k(u) = <b(u^{-1}), drive[c, k]>
        beta = _pair(coc, drive)
        cm = np.subtract(beta[..., None, :], beta[..., :, None], dtype=complex)
        cm *= ly
        return cm

    def work(lo, hi):
        dB = scenario.increments(lo, hi)
        w = _path_phases(coc, np.concatenate([np.zeros_like(dB[:, :1]),
                                              np.cumsum(dB, axis=1)[:, :-1]], axis=1))
        ww = w.conj()[..., :, None] * w[..., None, :]
        del w
        sc, sr = schatten_pow_batch(np.einsum("ckhu,skhu->schu", ww, lgam), p / 2.0, sg.gamma_psd)
        cm = commutator(scenario.increments_copy(lo, hi))
        Mt = 1j * np.einsum("ckhu,ckhu->chu", ww, cm)
        del cm
        cm = commutator(dB)
        M = 1j * np.einsum("ckhu,ckhu->chu", ww, cm)
        return M, Mt, sc, sr, schatten_pow_batch(cm, p).sum(axis=1)

    parts = block_map(work, scenario.samples, _sample_entries(scenario))
    return TransformPass(p, *(np.concatenate(part) for part in zip(*parts)))


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
    bound sqrt((1-e^{-2 alpha L})/alpha) gamma_norm(x, p/2)^{1/2} is compared
    against max{hc, hr}; the gradient bound Gamma(T_s x, T_s x) <=
    e^{-2 alpha s} T_s Gamma(x,x) makes the slack nonnegative up to MC error.
    """
    tr = martingale_transform(x, scenario, L, p)
    br = bracket_estimates(tr)
    p = tr.p
    mn = _root_stat(schatten_pow_batch(tr.M, p), p)
    mt = _root_stat(schatten_pow_batch(tr.Mt, p), p)
    denom = np.sqrt(p) * max(br.hc.mean, br.hr.mean)
    if not (mt.mean > 0 and denom > 0):
        raise ValueError(f"M_n(x) vanishes at p = {p:g}: x lies in the fixed-point algebra "
                         "(psi = 0 on its support) or is too small for its p-th moments, "
                         "so the decoupling and BDG ratios are 0/0")
    ratio = mn.mean / mt.mean
    ratio_se = ratio * (mn.se / mn.mean + mt.se / mt.mean) if mn.mean > 0 else 0.0
    bdg = mn.mean / denom
    ito = _mean_se(schatten_pow_batch(tr.M, 2.0))
    bound = None
    if alpha_cert is not None and alpha_cert.alpha_star > 0:
        a = alpha_cert.alpha_star
        gnorm = gamma_norm(scenario.semigroup, x, p / 2.0)
        env = float(np.sqrt((1.0 - np.exp(-2.0 * a * L)) / a) * np.sqrt(gnorm))
        mb = max(br.hc.mean, br.hr.mean)
        mb_se = br.hc.se if br.hc.mean >= br.hr.mean else br.hr.se
        bound = BracketBound(env, mb, env - mb, mb_se)
    return InequalityReport(p, mn, mt, float(ratio), float(ratio_se),
                            br.hc, br.hr, br.hd, float(bdg), ito,
                            transform_l2_analytic(x, scenario, L), bound)
