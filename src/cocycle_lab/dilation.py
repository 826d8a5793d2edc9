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

|G| phases per path point (_path_phases), an exact *-homomorphism sample by sample.
dx_k is the step of the transform M_n(x), with y_k = T_{L-t_k} x, D_k at
B_{t_k} and beta_k(u) = <b(u^{-1}), dB_k>; its decoupled twin M~_n(x) takes
an independent increment copy, and tau|dx_k|^p = tau|[Lambda(y_k), diag
beta_k]|^p by unitary invariance.  With the Gaussian step integrated out
(E_{k-1}[dB^j dB^l] = 2 dt delta_{jl}), the conditioned square functions are
S_c = 2 dt sum_k D_k^* Lambda(Gamma(y_k, y_k)) D_k and S_r = the same with
y_k^*: M, M~ and the bracket moments come from one chunk pass, shared across p.

Diagonal matrices commute, so D_k^* [Lambda(y_k), diag beta_k] D_k = [E_k,
diag beta_k] with E_k = D_k^* Lambda(y_k) D_k, and beta_k is linear in dB_k:

    M_n(x)[h, u] = i sum_j (b_j(u^{-1}) - b_j(h^{-1})) Q_j[h, u],   Q_j = sum_k dB_k^j E_k,

and M~_n(x) is the same sum over the copy's increments.  One product of E
with the stacked increments [dB | dB'] gives both.

h_d needs only tau|dx_k|^p = tau(H_k^{p/2}) for H_k = C_k^* C_k and the unphased
C_k = [Lambda(y_k), diag beta_k] = sum_j dB_k^j C_{k,j}, where C_{k,j}[h, u] =
(b_j(u^{-1}) - b_j(h^{-1})) Lambda(y_k)[h, u].  H_k = sum_a x_a G_{k,a} is linear
in the P = d(d+1)/2 pair products x_a = dB_k^j dB_k^l (a = (j, l), j <= l), with
G_{k,(j,l)} = C_{k,j}^* C_{k,l} + [j != l] C_{k,l}^* C_{k,j}.  So H_k^m = sum_mu
y^(m)_mu S^(m)_{k,mu} over the degree-m monomials of x: y^(0) = 1, y^(1)_a = x_a
and y^(2)_{ab} = x_a x_b (a <= b; s2 = P(P+1)/2 of them), with S^(0) = 1,
S^(1)_a = G_a and S^(2)_{ab} = G_a G_b + [a != b] G_b G_a.  For p/2 = i + j with
i = floor(p/4),

    tau(H_k^{p/2}) = y^(i) . T_k y^(j),   T_k[mu, nu] = Re tau(S^(i)_{k,mu} S^(j)_{k,nu}),

a form whose table does not depend on the sample: a dot product at p = 2,
P x P at p = 4, P x s2 and s2 x s2 at p = 6 and 8.  Where T costs at most one
|G| x |G| product per sample and step to build, amortized, and neither T nor
the pair products outgrow M_n(x) (_gram_route, per p), h_d reads it; elsewhere
it powers the commutator stack to p.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, Semigroup, gamma, gamma_norm, regular_rep, semigroup_apply
from .cocycles import CocycleRealization, LengthFunction
from .criterion import AlphaCertificate
from .linalg import blocks, is_integer, is_number, require, schatten_pow_batch
from . import algebra, linalg, rng

BRACKET_PS = (2.0, 4.0, 6.0, 8.0)
FOREIGN_X = "x lives over another group than the scenario's: their multiplication tables differ"


@dataclass(frozen=True)
class BrownianScenario:
    """Seeded description of the increment ensemble; samples regenerate on demand.

    Sample s draws its (steps, d) increment block dB[k, j] ~ N(0, 2 dt)
    from the stream (seed, TAG_SCENARIO, s), row-major in (k, j); the
    independent decoupling copy uses TAG_SCENARIO_COPY with the same
    sample index.  A block of samples lo..hi-1 is drawn by
    rng.normal_block: one SeedSequence for sample lo, and a re-keyed
    Philox for each later sample, with the same values as one
    rng.stream per sample.  _pass holds martingale_transform's kept
    pass: M, M~, the bracket moments at every q and the primary
    increments dB, until a fresh pass or the scenario's end frees them.
    A b whose Gromov form K is not B B^T is refused on construction.
    """
    cocycle: CocycleRealization
    steps: int
    dt: float
    samples: int
    seed: int
    _pass: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.semigroup.gromov.factor    # K = B B^T, so every Gamma(f, f) is PSD; else ValueError

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
        return Semigroup(LengthFunction(self.cocycle.group, self.cocycle.psi, self.cocycle))


def sample_scenario(cocycle: CocycleRealization, n: int, dt: float,
                    samples: int, seed: int) -> BrownianScenario:
    """n steps of dt, samples paths from seed; a b with K != B B^T raises ValueError at (s, t)."""
    require(dt, "dt", lambda v: is_number(v) and 0 < v < np.inf, "a finite number > 0")
    for name, count in (("steps", n), ("samples", samples)):
        require(count, name, lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    return BrownianScenario(cocycle, int(n), float(dt), int(samples), int(rng.check_seed(seed)))


def _pair(cocycle: CocycleRealization, paths: np.ndarray) -> np.ndarray:
    """<b(u^{-1}), paths[..., k, :]> per u, [..., u, k]: the (|G|, d) cocycle @ each (d, k) path,
    one product of one shape per path, so no bit depends on how many paths are stacked."""
    return cocycle.vectors[cocycle.group.inv] @ np.swapaxes(paths, -1, -2)


def _path_phases(cocycle: CocycleRealization, paths: np.ndarray) -> np.ndarray:
    """e^{i _pair} as cos and sin written into one complex array: exp(1j phi)'s bits, faster."""
    phi = _pair(cocycle, paths)
    w = np.empty(phi.shape, complex)
    np.cos(phi, out=w.real)
    np.sin(phi, out=w.imag)
    return w


def _grid_index(scenario: BrownianScenario, t: float) -> int:
    q = t / scenario.dt
    k = int(round(q)) if np.isfinite(q) else -1      # NaN and +-inf are on no grid
    if k < 0 or k > scenario.steps or abs(t - k * scenario.dt) > 1e-12 * max(1.0, scenario.horizon):
        raise ValueError(f"t = {t} is not on the grid (dt = {scenario.dt}, steps = {scenario.steps})")
    return k


def _sample_entries(scenario: BrownianScenario) -> int:
    """Entries charged to a chunk per sample: steps x |G|^2 in each of d + 2 fields.

    martingale_transform holds at most two (steps, |G|, |G|) fields per sample at once:
    ww, which becomes E in place and is freed, then the commutator with its real beta
    difference.  All else it holds is |G|^2-sized per sample (S_c and S_r, reduced to a
    moment per q, M, M~ and the (|G|^2, 2d) product) or, on the moment route, under 5 s2 +
    d(d+3)/2 values per step for the monomials, the partial form and their sums, s2 <=
    |G|(|G| + 1)/2; a served pass holds h_d's arrays for one chunk alone.  Charging only the
    two fields would double the walsh:2:2 benchmark's chunks (d = 2) to 1024 samples, which
    raises that report's peak RSS from 63 to about 79 MiB on 2 vCPU, so the d + 2 fields
    stay.  Charging twice as much would offset the kept pass's 4 MiB of dB there (55 MiB)
    but slows the commutator route's cold calls, whose smaller chunks fault their fields
    back in (wordlength:8 at 4096 x 64, p = 8: 1.62 to 1.84 s).
    """
    return scenario.steps * scenario.cocycle.group.order ** 2 * (scenario.d + 2)


def dilation_matrix(x: AlgebraElement, t: float, scenario: BrownianScenario,
                    sample: int) -> np.ndarray:
    """Realization of the time-t dilation of x at one sample path."""
    k = _grid_index(scenario, t)
    algebra._same_group(x, scenario.cocycle, FOREIGN_X)
    require(sample, "sample", lambda v: is_integer(v) and 0 <= v < scenario.samples,
            f"an integer in [0, {scenario.samples})")
    B = scenario.increments(sample, sample + 1)[:, :k].sum(axis=1, keepdims=True)
    w = _path_phases(scenario.cocycle, B)[0, :, 0]
    return w.conj()[:, None] * regular_rep(x) * w


def dilation_mean(x: AlgebraElement, t: float, scenario: BrownianScenario):
    """MC mean and entrywise standard errors of the dilation matrices, over all samples at once."""
    k = _grid_index(scenario, t)
    algebra._same_group(x, scenario.cocycle, FOREIGN_X)
    lx = regular_rep(x)

    parts = []
    for lo, hi in blocks(scenario.samples, _sample_entries(scenario)):
        B = scenario.increments(lo, hi)[:, :k].sum(axis=1, keepdims=True)
        w = _path_phases(scenario.cocycle, B)[..., 0]
        parts.append(w.conj()[:, :, None] * lx * w[:, None, :])
    D = np.concatenate(parts)
    mean = D.mean(axis=0)
    var = np.maximum((np.abs(D) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / scenario.samples)


def _check_horizon(scenario: BrownianScenario, L: float) -> None:
    require(L, "L", is_number, "a number")
    if not abs(L - scenario.horizon) <= 1e-12 * max(1.0, scenario.horizon):
        raise ValueError(f"L = {L} does not match the scenario horizon {scenario.horizon}")


def _gram_route(d: int, order: int, steps: int, samples: int, p: float) -> bool:
    """h_d at p reads the moment table T of the module docstring where there are 1 to |G| pairs,
    T costs at most one |G| x |G| product per sample and step to build, amortized (s_i s_j |G|^2
    against samples |G|^3; s_0, s_1, s_2 = 1, P, P(P+1)/2 for the P pairs), and neither the pair
    products nor T over all steps is larger than M_n(x) over all samples."""
    pairs = d * (d + 1) // 2
    s = (1, pairs, pairs * (pairs + 1) // 2)
    size = s[int(p) // 4] * s[(int(p) + 2) // 4]
    return (0 < pairs <= order and steps * pairs <= samples
            and size <= samples * order and steps * size <= samples * order ** 2)


def _moment_table(ly: np.ndarray, bdiff: np.ndarray, i: int, j: int) -> np.ndarray:
    """T_k[mu, nu] = Re tau(S^(i)_{k,mu} S^(j)_{k,nu}) laid out [nu, mu, k], in blocks of steps
    (one step where its S^(2) stack fills a block).  tau(A B) = (1/|G|) Re sum conj(B) o A for
    Hermitian B.  BLAS sees only |G| x |G| products, one matrix at a time, and the inner
    products are einsum, so no bit of T depends on the block size or the BLAS thread count."""
    steps, n, _ = ly.shape
    cb = np.moveaxis(bdiff, -1, 0)
    jj, ll = np.triu_indices(len(cb))
    a, b = np.triu_indices(len(jj))
    size = (1, len(jj), len(a))
    table = np.empty((size[j], size[i], steps))
    for lo, hi in blocks(steps, 2 * n * n * (len(cb) + 2 * len(jj) + 4 * size[j])):
        cj = ly[lo:hi, None] * cb                                       # [k, j] = C_{k,j}
        g = cj[:, jj].conj().swapaxes(-1, -2) @ cj[:, ll]               # C_{k,j}^* C_{k,l}
        g[:, jj != ll] += g[:, jj != ll].conj().swapaxes(-1, -2)        # G_{k,a}
        s = [np.broadcast_to(np.eye(n, dtype=complex), (hi - lo, 1, n, n)), g]
        if j == 2:
            s.append(g[:, a] @ g[:, b])
            s[2][:, a != b] += s[2][:, a != b].conj().swapaxes(-1, -2)
        fi, fj = (np.ascontiguousarray(s[m]).reshape(hi - lo, size[m], -1).view(float)
                  for m in (i, j))
        table[..., lo:hi] = np.einsum("kmx,knx->nmk", fi, fj) / n
    return table


class TransformPass(NamedTuple):
    """Per-sample output of martingale_transform at p; M and Mt are read-only."""
    p: float
    M: np.ndarray           # M_n(x)
    Mt: np.ndarray          # its decoupled twin M~_n(x)
    sc_pow: np.ndarray      # tau(|S_c|^{p/2})
    sr_pow: np.ndarray      # tau(|S_r|^{p/2})
    dx_pow: np.ndarray      # sum_k tau(|dx_k|^p)


def martingale_transform(x: AlgebraElement, scenario: BrownianScenario, L: float,
                         p: float) -> TransformPass:
    """M_n(x), its decoupled twin and the bracket moments at p, per sample, in one pass.

    Lambda(y_k) and 2 dt Lambda(Gamma_k) do not depend on the sample and are gathered once, laid
    out (|G|, |G|, steps).  Each chunk of linalg.blocks (_sample_entries per sample), taken in
    order, draws its increments and their copy once and forms ww[c, h, u, k] = conj(w_k(h))
    w_k(u), the conjugation by D_k as an entrywise factor, from (c, |G|, steps) _path_phases.
    S_c and S_r contract ww against Lambda(Gamma_k) over k, PSD since the scenario checked its
    b, reduced to tau|S|^{q/2} at each q in BRACKET_PS at once by linalg._psd_moments.  ww times
    Lambda(y_k), in place, is E_k; one batched product of E, viewed (c, |G|^2, steps), with the
    stacked increments [dB | dB'] gives Q_j for both draws, and M, M~ from them.  E is freed
    before h_d = sum_k ||dx_k||_p^p of the primary draw: on p's moment route (_gram_route) by
    the module docstring's form in the monomials of dB^j dB^l against _moment_table's T, summed
    by einsum, so that no bit depends on the chunking; elsewhere from each chunk's commutator
    stack.  Where M, M~ and the primary increments fit one chunk's budget (samples (2 |G|^2 +
    steps d) <= linalg.BLOCK_ENTRIES), the scenario keeps this pass, dB copied into one array as
    the chunks draw it, for its last x coefficients, L and block plan, and serves it (M and M~
    read-only) once to each later p, which reads h_d off the kept dB, chunk by chunk, and draws
    nothing; a p already served, or another x, L or plan, runs a fresh pass.  A pass too large
    to keep reduces S_c and S_r at p alone and keeps nothing.
    """
    _check_horizon(scenario, L)
    p = float(require(p, "p", lambda v: is_number(v) and v in BRACKET_PS,
                      "one of " + ", ".join(map(str, BRACKET_PS))))
    algebra._same_group(x, scenario.cocycle, FOREIGN_X)
    coc, sg = scenario.cocycle, scenario.semigroup
    n, d = coc.group.order, coc.dimension
    y = semigroup_apply(sg, x, L - scenario.times[:, None])
    ly = regular_rep(y)
    bv = coc.vectors[coc.group.inv]
    bdiff = bv[None, :, :] - bv[:, None, :]         # [h, u, j] = b_j(u^{-1}) - b_j(h^{-1})
    jj, ll = np.triu_indices(d)                     # the pairs j <= l
    i, j = int(p) // 4, (int(p) + 2) // 4           # tau(H^{p/2}) = tau(H^i H^j)
    table = (_moment_table(ly, bdiff, i, j)                 # [nu, mu, k]
             if _gram_route(d, n, scenario.steps, scenario.samples, p) else None)
    plan = blocks(scenario.samples, _sample_entries(scenario))
    keep = scenario.samples * (2 * n * n + scenario.steps * d) <= linalg.BLOCK_ENTRIES
    qs = BRACKET_PS if keep else (p,)
    key = (x.coeffs.tobytes(), L, plan)
    memo = scenario._pass if keep else {}           # a pass too large to keep is not kept
    if memo.get("key") != key or p in memo["ps"]:
        memo.clear()                                # a fresh pass frees the last one first
        lgam = 2.0 * scenario.dt * np.stack([regular_rep(gamma(sg, y, y)),
                                             regular_rep(gamma(sg, y.adjoint(), y.adjoint()))])
        ly_k, lgam_k = np.moveaxis(ly, 0, -1).copy(), np.moveaxis(lgam, 1, -1).copy()

    def hd(dB):                                     # sum_k tau|dx_k|^p per sample
        if table is None:
            beta = np.swapaxes(_pair(coc, dB), -1, -2)      # [c, k, u] = beta_k(u)
            cm = (beta[..., None, :] - beta[..., :, None]) * ly     # [Lambda(y_k), diag beta_k]
            return schatten_pow_batch(cm, p).sum(axis=1)
        inc = np.moveaxis(dB, -1, 0)
        x1 = inc[jj] * inc[ll]                      # [a, c, k] = dB^j dB^l
        mono = [np.ones_like(x1[:1]), x1]           # the monomials y^(0), y^(1), y^(2)
        if j == 2:
            a, b = np.triu_indices(len(x1))
            mono.append(x1[a] * x1[b])
        z = np.einsum("nmk,nck->mck", table, mono[j])      # [mu, c, k] = (T_k y^(j))_mu
        return np.einsum("mck,mck->ck", mono[i], z).sum(axis=1)

    def work(lo, hi):
        dB = scenario.increments(lo, hi)
        if keep:                                    # a pass to keep holds its dB
            kept[lo:hi] = dB
        drives = np.concatenate([dB, scenario.increments_copy(lo, hi)], axis=2)
        B = np.concatenate([np.zeros_like(dB[:, :1]), np.cumsum(dB, axis=1)[:, :-1]], axis=1)
        w = _path_phases(coc, B)
        ww = w.conj()[:, :, None] * w[:, None]
        del w
        s = np.stack([np.einsum("chuk,huk->chu", ww, g) for g in lgam_k])     # S_c, S_r
        s = linalg._psd_moments(s, [r / 2.0 for r in qs])         # [q, S_c or S_r, c]
        ww *= ly_k                                  # E
        q = (ww.reshape(hi - lo, n * n, scenario.steps) @ drives).reshape(hi - lo, n, n, 2 * d)
        del ww
        M, Mt = (1j * np.einsum("chuj,huj->chu", q[..., half], bdiff)
                 for half in (slice(None, d), slice(d, None)))
        return M, Mt, np.moveaxis(s, -1, 0), hd(dB)

    if memo:                                        # a served pass: h_d alone, from the kept dB
        dx = np.concatenate([hd(memo["dB"][lo:hi]) for lo, hi in plan])
    else:
        kept = np.empty((scenario.samples, scenario.steps, d)) if keep else None
        *full, dx = (np.concatenate(part) for part in zip(*[work(lo, hi) for lo, hi in plan]))
        for a in full[:2]:                          # M and M~ serve every p
            a.flags.writeable = False
        memo.update(key=key, ps=set(), M=full[0], Mt=full[1], dB=kept,
                    mom=dict(zip(qs, np.moveaxis(full[2], 0, -1).copy())))   # q: [S_c or S_r, c]
    memo["ps"].add(p)
    return TransformPass(p, memo["M"], memo["Mt"], *memo["mom"][p], dx)


def transform_l2_analytic(x: AlgebraElement, scenario: BrownianScenario, L: float) -> float:
    """Exact E ||M_n(x)||_2^2 = sum_g |x_g|^2 psi(g) 2dt sum_k e^{-2(L-t_k) psi(g)}."""
    _check_horizon(scenario, L)
    algebra._same_group(x, scenario.cocycle, FOREIGN_X)
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
    mn = _root_stat(m_pow := schatten_pow_batch(tr.M, p), p)
    mt = _root_stat(schatten_pow_batch(tr.Mt, p), p)
    denom = np.sqrt(p) * max(br.hc.mean, br.hr.mean)
    if not (mt.mean > 0 and denom > 0):
        raise ValueError(f"M_n(x) vanishes at p = {p:g}: x lies in the fixed-point algebra "
                         "(psi = 0 on its support) or is too small for its p-th moments, "
                         "so the decoupling and BDG ratios are 0/0")
    ratio = mn.mean / mt.mean
    ratio_se = ratio * (mn.se / mn.mean + mt.se / mt.mean) if mn.mean > 0 else 0.0
    bdg = mn.mean / denom
    ito = _mean_se(m_pow if p == 2.0 else schatten_pow_batch(tr.M, 2.0))
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
