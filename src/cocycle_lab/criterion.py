"""The Gamma_2 >= alpha Gamma criterion at the matrix-kernel level.

The kernel condition "K o K - alpha K is PSD" (o = entrywise product) is
sufficient for the operator-level criterion; alpha* is its largest
feasible alpha.  Two independent solvers are provided: Dinkelbach's
iteration over Rayleigh-quotient upper bounds, from the least psi above
K's rank cut down to eigh's rounding level (the reference, under the name
best_alpha_bisection), and a direct generalized-eigenvalue method through a
Schur complement onto the range of K; both read K's PSD test and rank cut
off GromovForm.spectrum.  Every eigensolve is np.linalg.eigh or eigvalsh.
check_element tests single elements at the operator level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, Semigroup, gamma, gamma2, operator_positivity
from .cocycles import GromovForm
from .linalg import DEFAULT_TOL, PsdVerdict, is_number, psd_scale, require


@dataclass(frozen=True)
class AlphaCertificate:
    alpha_star: float
    method: str
    witness: np.ndarray     # eigenvector at the binding constraint
    residual: float         # min eigenvalue of K o K - alpha_star K

    def __post_init__(self):
        self.witness.setflags(write=False)


def _certificate(K: np.ndarray, alpha: float, method: str) -> AlphaCertificate:
    w, V = np.linalg.eigh(K * K - alpha * K)
    return AlphaCertificate(float(alpha), method, V[:, 0], float(w[0]))


def best_alpha_bisection(K: GromovForm) -> AlphaCertificate:
    """Largest alpha with K o K - alpha K PSD, by Dinkelbach's iteration (1967).

    The diagonal of K o K - alpha K is psi^2 - alpha psi, so alpha* <= psi(g) whenever
    psi(g) > 0: start from alpha = min{psi(g) : psi(g) > cut} (max psi if none is).
    Take the least eigenpair (w, v) of K o K - alpha K and move alpha to the Rayleigh
    quotient v^T (K o K) v / v^T K v, also an upper bound on alpha*.  This is Newton's
    method on the concave lambda_min from the right, so alpha falls strictly onto
    alpha*.  Stop once w >= -n eps max|w|, rounding level for eigh: past it v is noise
    and its quotient may undershoot alpha*.  Stop too when alpha stops falling, or when
    v^T K v is at or under K's rank cut: then v lies in ker K.  Nothing splits ran/ker K
    or forms a Schur complement, so this route is independent of best_alpha_pencil; of
    K's spectrum it reads only the PSD test and the cut value.
    """
    cut = K._rank_cut()
    M = K.K
    Q = M * M
    psi = np.diag(M)
    alpha = float(psi[psi > cut].min(initial=psi.max()))
    rounding = len(M) * np.finfo(float).eps
    while True:
        w, V = np.linalg.eigh(Q - alpha * M)
        v = V[:, 0]
        mass = v @ M @ v
        if w[0] >= -rounding * max(abs(w[0]), abs(w[-1])) or mass <= cut:
            break
        quotient = float(v @ Q @ v / mass)
        if not quotient < alpha:
            break
        alpha = quotient
    return AlphaCertificate(alpha, "bisection", v, float(w[0]))


def best_alpha_pencil(K: GromovForm) -> AlphaCertificate:
    """Direct solver: generalized eigenvalue of (K o K, K) on the range of K.

    Split K's eigenspaces into range and kernel; on vectors v = v_r + v_k the
    constraint v^T (Q - alpha K) v >= 0 with Q = K o K eliminates v_k through
    the pinned kernel block, leaving the Schur complement
    S = Q_rr - Q_rk Q_kk^+ Q_kr, so alpha* = lambda_min(L_r^{-1/2} S L_r^{-1/2}).
    If kernel directions couple to the range outside ran(Q_kk) the
    elimination is invalid and we fall back to bisection.
    """
    M = K.K
    Q = M * M
    lam, U = K.spectrum
    keep = lam > K._rank_cut()
    if not keep.any():
        return _certificate(M, float(np.diag(M).max()), "pencil")
    Ur, Uk = U[:, keep], U[:, ~keep]
    lr = lam[keep]
    Qrr = Ur.T @ Q @ Ur
    if Uk.shape[1]:
        Qrk = Ur.T @ Q @ Uk
        Qkk = Uk.T @ Q @ Uk
        Qkk_p = np.linalg.pinv(Qkk, rcond=1e-12, hermitian=True)
        coupling = np.abs(Qrk - Qrk @ Qkk_p @ Qkk).max()
        if coupling > DEFAULT_TOL * psd_scale(Q):
            cert = best_alpha_bisection(K)
            return AlphaCertificate(cert.alpha_star, "bisection-fallback",
                                    cert.witness, cert.residual)
        S = Qrr - Qrk @ Qkk_p @ Qrk.T
    else:
        S = Qrr
    rinv = 1.0 / np.sqrt(lr)
    W = 0.5 * (S + S.T) * rinv[:, None] * rinv[None, :]
    alpha = float(np.linalg.eigvalsh(W)[0])
    return _certificate(M, alpha, "pencil")


def check_element(sg: Semigroup, f: AlgebraElement, alpha: float) -> PsdVerdict:
    """Operator-level test: is Gamma_2(f,f) - alpha Gamma(f,f) PSD?"""
    require(alpha, "alpha", lambda v: is_number(v) and 0 <= v < np.inf, "a finite number >= 0")
    return operator_positivity(gamma2(sg, f, f) - alpha * gamma(sg, f, f))
