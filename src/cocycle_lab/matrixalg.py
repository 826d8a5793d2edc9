"""Semigroups on the n x n matrix algebra.

Two generator constructors: the Fourier multiplier diagonal in the
clock/shift basis v_c u_b (delta or word-length symbol), and the
commuting-family Lindblad generator A(x) = sum_j (x a_j^2 + a_j^2 x
- 2 a_j x a_j).  Superoperators are materialized as n^2 x n^2 matrices
over row-major vec, capped at n <= 12.  The working inner product is
<x,y> = tr(x^dag y)/n and L_p norms are normalized Schatten norms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import rng
from .criterion import AlphaCertificate
from .linalg import psd_scale, schatten_norm
from .poincare import PoincareReport, WorstConstant, maximize_ratio, ratio_scores, sweep

SUPEROP_CAP = 12


def vec(x: np.ndarray) -> np.ndarray:
    return np.reshape(x, np.shape(x)[:-2] + (-1,))


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(v.shape[:-1] + (n, n))


@dataclass(frozen=True)
class ClockShiftBasis:
    n: int
    u: tuple            # u[k] = diag phase matrix
    v: tuple            # v[k] = shift by k

    def product(self, b: int, c: int) -> np.ndarray:
        """Basis element v_c u_b."""
        return self.v[c] @ self.u[b]


def clock_shift_basis(n: int) -> ClockShiftBasis:
    """u_k = diag(e^{2 pi i k j/n}), v_k e_j = e_{j+k mod n}; the n^2
    products v_c u_b are orthonormal for the normalized trace pairing."""
    if n < 2:
        raise ValueError(f"clock/shift basis needs n >= 2, got {n}")
    om = np.exp(2j * np.pi / n)
    j = np.arange(n)
    u = tuple(np.diag(om ** (k * j)) for k in range(n))
    v1 = np.zeros((n, n), dtype=complex)
    v1[(j + 1) % n, j] = 1.0
    v = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        v.append(v1 @ v[-1])
    return ClockShiftBasis(n, u, tuple(v))


@dataclass(frozen=True)
class Superoperator:
    n: int
    mat: np.ndarray         # (n^2, n^2) complex, row-major vec convention
    kind: str
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self.mat.setflags(write=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A(x) for an n x n matrix or an (..., n, n) stack."""
        return unvec((self.mat @ vec(x)[..., None])[..., 0], self.n)

    @cached_property
    def _eig(self):
        return np.linalg.eigh(0.5 * (self.mat + self.mat.conj().T))

    @cached_property
    def _kernel(self) -> np.ndarray:
        """Mask of the eigenvalues of A within 1e-12 (1 + ||A||) of zero."""
        w, _ = self._eig
        return np.abs(w) <= 1e-12 * psd_scale(w)

    @cached_property
    def fix_projector(self) -> np.ndarray:
        """Orthogonal projector (on vec space) onto ker A."""
        Vk = self._eig[1][:, self._kernel]
        return Vk @ Vk.conj().T

    def fix_dimension(self) -> int:
        """dim ker A, the dimension of the fixed-point algebra."""
        return int(self._kernel.sum())

    def fix_project(self, x: np.ndarray) -> np.ndarray:
        return unvec((self.fix_projector @ vec(x)[..., None])[..., 0], self.n)

    def min_positive_eig(self) -> float:
        w, _ = self._eig
        pos = w[(w > 0) & ~self._kernel]
        if pos.size == 0:
            raise ValueError("generator has no positive spectrum: no gap")
        return float(pos.min())

    def expm(self, t: float) -> np.ndarray:
        """e^{-tA} as a superoperator matrix (scaling and squaring)."""
        return scipy.linalg.expm(-t * self.mat)


def _check_cap(n: int) -> None:
    if n > SUPEROP_CAP:
        raise ValueError(f"superoperator dimension n = {n} exceeds cap {SUPEROP_CAP}")


def multiplier_symbol(n: int, psi_mode: str) -> np.ndarray:
    """psi(b,c) on the (b,c) grid: delta 2-d_{b0}-d_{c0}, or |b|+|c| word length."""
    b = np.arange(n)
    if psi_mode == "delta":
        w = 1.0 - (b == 0)
        return w[:, None] + w[None, :]
    if psi_mode == "wordlength":
        w = np.minimum(b, n - b).astype(float)
        return w[:, None] + w[None, :]
    raise ValueError(f"unknown psi_mode {psi_mode!r}")


def heisenberg_multiplier(n: int, psi_mode: str = "delta") -> Superoperator:
    """Generator diagonal in the v_c u_b basis: A(v_c u_b) = psi(b,c) v_c u_b."""
    _check_cap(n)
    basis = clock_shift_basis(n)
    sym = multiplier_symbol(n, psi_mode)
    A = np.zeros((n * n, n * n), dtype=complex)
    for b in range(n):
        for c in range(n):
            m = vec(basis.product(b, c))
            A += sym[b, c] * np.outer(m, m.conj()) / n
    return Superoperator(n, A, "multiplier", {"psi_mode": psi_mode, "symbol": sym})


def lindblad_generator(a: Sequence[np.ndarray]) -> Superoperator:
    """A(x) = sum_j (x a_j^2 + a_j^2 x - 2 a_j x a_j) for commuting Hermitian a_j."""
    if not len(a):
        raise ValueError("empty Lindblad family")
    mats = [np.asarray(m, dtype=complex) for m in a]
    n = mats[0].shape[0]
    _check_cap(n)
    for j, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"a[{j}] has shape {m.shape}, expected {(n, n)}")
        dev = np.abs(m - m.conj().T).max()
        if dev > 1e-10:
            raise ValueError(f"a[{j}] is not Hermitian: deviation {dev:.3e}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            dev = np.abs(comm).max()
            if dev > 1e-10:
                raise ValueError(
                    f"a[{i}] and a[{j}] do not commute: ||[a_{i},a_{j}]|| = {dev:.3e}")
    eye = np.eye(n, dtype=complex)
    A = np.zeros((n * n, n * n), dtype=complex)
    for m in mats:
        m2 = m @ m
        A += np.kron(eye, m2.T) + np.kron(m2, eye) - 2.0 * np.kron(m, m.T)
    sup = Superoperator(n, A, "lindblad", {"family_size": len(mats)})
    # construction-time sanity: A(1) = 0 and self-adjointness for the pairing
    if np.abs(sup.apply(eye)).max() > 1e-10:
        raise ValueError("Lindblad generator does not annihilate the identity")
    if np.abs(A - A.conj().T).max() > 1e-10:
        raise ValueError("Lindblad generator is not self-adjoint")
    return sup


def superop_gamma(A: Superoperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gamma(x,y) = (A(x^dag) y + x^dag A(y) - A(x^dag y))/2, per matrix of a stack."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-2:] != (A.n, A.n) or y.shape[-2:] != (A.n, A.n):
        raise ValueError(f"arguments must be {A.n}x{A.n} matrices")
    xd = np.swapaxes(x.conj(), -1, -2)
    return 0.5 * (A.apply(xd) @ y + xd @ A.apply(y) - A.apply(xd @ y))


def superop_gamma2(A: Superoperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gamma_2(x,y) = (Gamma(Ax,y) + Gamma(x,Ay) - A Gamma(x,y))/2."""
    g = superop_gamma
    return 0.5 * (g(A, A.apply(x), y) + g(A, x, A.apply(y)) - A.apply(g(A, x, y)))


def battery_matrix(n: int, seed: int, index: int) -> np.ndarray:
    """The index-th random complex n x n matrix of the stream (seed, TAG_BATTERY, index)."""
    st = rng.stream(seed, rng.TAG_BATTERY, index)
    return st.standard_normal((n, n)) + 1j * st.standard_normal((n, n))


def alpha_battery(A: Superoperator, alpha: float, seed: int, samples: int) -> float:
    """Least eigenvalue of the Hermitian part of Gamma_2(x,x) - alpha Gamma(x,x) over the
    first `samples` battery matrices, each scaled to unit Frobenius norm."""
    worst = np.inf
    for i in range(samples):
        x = battery_matrix(A.n, seed, i)
        x /= np.linalg.norm(x)
        form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (form + form.conj().T))[0]))
    return worst


def lindblad_gamma_residual(A: Superoperator, a: Sequence[np.ndarray], seed: int,
                            samples: int) -> float:
    """Max entry of Gamma(x,x) - sum_j [a_j,x]^dag [a_j,x] over the first `samples` battery
    matrices: the Lindblad generator of the family a against its carre du champ."""
    resid = 0.0
    for i in range(samples):
        x = battery_matrix(A.n, seed, i)
        direct = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in a)
        resid = max(resid, float(np.abs(superop_gamma(A, x, x) - direct).max()))
    return resid


def matrix_poincare_ratio(A: Superoperator, x: np.ndarray, p: float):
    """Poincare ratio per witness of x, an n x n matrix or an (..., n, n) stack."""
    if p < 2:
        raise ValueError(f"Poincare ratio needs p >= 2, got {p}")
    x0 = x - A.fix_project(x)
    x0d = np.swapaxes(x0.conj(), -1, -2)
    return ratio_scores(schatten_norm(x0, p),
                        schatten_norm(superop_gamma(A, x0, x0), p / 2.0),
                        schatten_norm(superop_gamma(A, x0d, x0d), p / 2.0),
                        np.abs(x).max(axis=(-2, -1)))


def matrix_worst_constant(A: Superoperator, p: float, budget: int = 20000,
                          seed: int = 0, n_starts: int = 32) -> WorstConstant:
    """Empirical lower bound for the best L_p Poincare constant over matrix witnesses."""
    n = A.n
    return maximize_ratio(lambda x: matrix_poincare_ratio(A, x, p),
                          lambda z: unvec(z, n), n * n, budget, seed, n_starts)


def matrix_poincare(A: Superoperator, p_grid: Sequence[float], budget: int = 20000,
                    seed: int = 0, alpha_cert: Optional[AlphaCertificate] = None,
                    n_starts: int = 32) -> PoincareReport:
    """Poincare sweep over matrix witnesses; E_Fix comes from ker(A)."""
    return sweep(lambda p, s: matrix_worst_constant(A, p, budget, s, n_starts),
                 p_grid, seed, alpha_cert)
