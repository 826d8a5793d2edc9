"""The Gamma_2 >= alpha Gamma criterion at the matrix-kernel level.

The kernel condition "K o K - alpha K is PSD" (o = entrywise product) is
sufficient for the operator-level criterion; alpha* is its largest
feasible alpha, never below 0 since K o K is PSD (Schur's product theorem).
Both solvers read the form's one factor, GromovForm.factor: its rank cut,
and through GromovForm.span_pair the m x m compression of (K o K, K) onto
the span of its d columns, m <= d(d+3)/2 (K itself where m >= |G|); they
map their witness back as P v.  On a builtin the factor is its
closed-form cocycle B, so where the pair is compressed (walsh:2:8,
heisenberg-wordlength:7) neither solver diagonalizes K; where it is K
itself (wordlength:256) the pencil reads K's spectrum.  The solvers:
Dinkelbach's iteration over Rayleigh-quotient upper bounds, from the
least psi above the rank cut down to eigh's rounding level (under the
name best_alpha_bisection), and a direct generalized-eigenvalue method
through a Schur complement onto the pair's range.  The tests keep the
uncompressed |G| x |G| Dinkelbach as the independent reference.  Every
eigensolve is np.linalg.eigh or eigvalsh.
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


def _certificate(K: GromovForm, alpha: float, method: str, solved=None) -> AlphaCertificate:
    """The certificate at max(alpha, 0), from the least eigenpair of the pair's Q - alpha M:
    solved, the (w, V) of eigh at exactly that alpha, or one eigh here."""
    Q, M, P = K.span_pair
    if alpha < 0:
        alpha, solved = 0.0, None
    w, V = solved or np.linalg.eigh(Q - alpha * M)
    v = V[:, 0] if P is None else P @ V[:, 0]
    return AlphaCertificate(float(alpha), method, v, float(w[0]))


def best_alpha_bisection(K: GromovForm) -> AlphaCertificate:
    """Largest alpha with K o K - alpha K PSD, by Dinkelbach's iteration (1967).

    The diagonal of K o K - alpha K is psi^2 - alpha psi, so alpha* <= psi(g) whenever
    psi(g) > 0: start from alpha = min{psi(g) : psi(g) > cut} (max psi if none is).
    On the pair (Q, M) = K.span_pair, take the least eigenpair (w, v) of Q - alpha M
    and move alpha to the Rayleigh quotient v^T Q v / v^T M v, also an upper bound on
    alpha*.  This is Newton's method on the concave lambda_min from the right, so alpha
    falls strictly onto alpha*.  Stop once w >= -m eps max|w|, rounding level for eigh
    on the m x m pair: past it v is noise and its quotient may undershoot alpha*.  Stop
    too when alpha stops falling, or when v^T M v is at or under K's rank cut: then v
    lies in ker M.  Nothing splits ran/ker M or forms a Schur complement, as
    best_alpha_pencil does; both read K's range basis through the shared pair, so the
    independent check is the tests' Dinkelbach on the uncompressed |G| x |G| matrices.
    """
    cut = K.factor[0]
    Q, M, _ = K.span_pair
    psi = np.diag(K.K)
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
    return _certificate(K, alpha, "bisection", (w, V))


def best_alpha_pencil(K: GromovForm) -> AlphaCertificate:
    """Direct solver: generalized eigenvalue of the pair (Q, M) = K.span_pair on ran M.

    Split M's eigenspaces into range and kernel at K's rank cut; on vectors
    v = v_r + v_k the constraint v^T (Q - alpha M) v >= 0 eliminates v_k through
    the pinned kernel block, leaving the Schur complement
    S = Q_rr - Q_rk Q_kk^+ Q_kr, so alpha* = lambda_min(L_r^{-1/2} S L_r^{-1/2}).
    Q_kk^+ inverts the eigenvalues of Q_kk above DEFAULT_TOL * psd_scale(Q): below
    it they are rounding, and where ran(K o K) lies in ran K all of Q_kk is, so a cut
    relative to Q_kk's own norm would invert noise.  If Q_rk reaches that scale on
    the dropped eigenvectors, kernel directions couple to the range outside
    ran(Q_kk), the elimination is invalid and we fall back to bisection.  M's
    spectrum is K.spectrum when the pair is K itself, else one m x m eigh.
    """
    Q, M, P = K.span_pair
    lam, U = K.spectrum if P is None else np.linalg.eigh(M)
    keep = lam > K.factor[0]
    if not keep.any():
        return _certificate(K, float(np.diag(K.K).max()), "pencil")
    Ur, Uk = U[:, keep], U[:, ~keep]
    lr = lam[keep]
    cut = DEFAULT_TOL * psd_scale(Q)
    mu, Vk = np.linalg.eigh(Uk.T @ Q @ Uk)      # 0 x 0, and S = Q_rr, without a kernel
    live = mu > cut
    Qrk = Ur.T @ Q @ Uk @ Vk            # in Q_kk's eigenvectors
    if np.abs(Qrk[:, ~live]).max(initial=0.0) > cut:
        cert = best_alpha_bisection(K)
        return AlphaCertificate(cert.alpha_star, "bisection-fallback",
                                cert.witness, cert.residual)
    S = Ur.T @ Q @ Ur - (Qrk[:, live] / mu[live]) @ Qrk[:, live].T
    rinv = 1.0 / np.sqrt(lr)
    W = 0.5 * (S + S.T) * rinv[:, None] * rinv[None, :]
    return _certificate(K, float(np.linalg.eigvalsh(W)[0]), "pencil")


def check_element(sg: Semigroup, f: AlgebraElement, alpha: float) -> PsdVerdict:
    """Operator-level test: is Gamma_2(f,f) - alpha Gamma(f,f) PSD?"""
    require(alpha, "alpha", lambda v: is_number(v) and 0 <= v < np.inf, "a finite number >= 0")
    return operator_positivity(gamma2(sg, f, f) - alpha * gamma(sg, f, f))
