"""The Gamma_2 >= alpha Gamma criterion at the matrix-kernel level.

The kernel condition "K o K - alpha K is PSD" (o = entrywise product) is
sufficient for the operator-level criterion; alpha* is its largest
feasible alpha.  Two independent solvers are provided: a PSD-feasibility
bisection (reference) and a direct generalized-eigenvalue method through
a Schur complement onto the range of K.  check_element tests single
elements at the operator level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, PositivityReport, Semigroup, gamma, gamma2, operator_positivity
from .cocycles import GromovForm
from .linalg import psd_scale

# Feasibility slack during bisection.  Tighter than the generic PSD test:
# the binding eigenvalue can be shallow in alpha, so a loose slack here
# would translate into an alpha* overshoot far above the bisection width.
BISECT_FEAS_TOL = 1e-12
BISECT_WIDTH = 1e-10


@dataclass(frozen=True)
class AlphaCertificate:
    alpha_star: float
    method: str
    witness: np.ndarray     # eigenvector at the binding constraint
    residual: float         # min eigenvalue of K o K - alpha_star K

    def __post_init__(self):
        self.witness.setflags(write=False)


def _check_psd_input(K: GromovForm) -> np.ndarray:
    M = 0.5 * (K.K + K.K.T)
    w = np.linalg.eigvalsh(M)
    if w[0] < -1e-9 * psd_scale(w):
        raise ValueError(f"K is not PSD: min eigenvalue {w[0]:.3e}")
    return M


def _certificate(K: np.ndarray, alpha: float, method: str) -> AlphaCertificate:
    w, V = np.linalg.eigh(K * K - alpha * K)
    return AlphaCertificate(float(alpha), method, V[:, 0], float(w[0]))


def best_alpha_bisection(K: GromovForm, tol: float = BISECT_FEAS_TOL) -> AlphaCertificate:
    """Largest alpha with K o K - alpha K PSD, by bisection to width 1e-10.

    alpha_hi = max psi suffices: the diagonal of K o K - alpha K is
    psi(g)^2 - alpha psi(g).
    """
    M = _check_psd_input(K)
    Q = M * M
    scale = 1.0 + np.linalg.norm(Q, 2)

    def feasible(alpha: float) -> bool:
        return np.linalg.eigvalsh(Q - alpha * M)[0] >= -tol * scale

    hi = float(np.diag(M).max())
    if hi == 0.0 or feasible(hi):
        return _certificate(M, hi, "bisection")
    lo = 0.0
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return _certificate(M, lo, "bisection")


def best_alpha_pencil(K: GromovForm, tol: float = 1e-9) -> AlphaCertificate:
    """Direct solver: generalized eigenvalue of (K o K, K) on the range of K.

    Split K's eigenspaces into range and kernel; on vectors v = v_r + v_k the
    constraint v^T (Q - alpha K) v >= 0 with Q = K o K eliminates v_k through
    the pinned kernel block, leaving the Schur complement
    S = Q_rr - Q_rk Q_kk^+ Q_kr, so alpha* = lambda_min(L_r^{-1/2} S L_r^{-1/2}).
    If kernel directions couple to the range outside ran(Q_kk) the
    elimination is invalid and we fall back to bisection.
    """
    M = _check_psd_input(K)
    Q = M * M
    lam, U = np.linalg.eigh(M)
    keep = lam > tol * psd_scale(lam)
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
        if coupling > tol * (1.0 + np.abs(Q).max()):
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


def check_element(sg: Semigroup, f: AlgebraElement, alpha: float,
                  tol: float = 1e-9) -> PositivityReport:
    """Operator-level test: is Gamma_2(f,f) - alpha Gamma(f,f) PSD?"""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    g2 = gamma2(sg, f, f)
    g1 = gamma(sg, f, f)
    diff = AlgebraElement(f.group, g2.coeffs - alpha * g1.coeffs)
    return operator_positivity(diff, tol)
