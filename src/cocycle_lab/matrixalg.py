"""Semigroups on the n x n matrix algebra.

Two generator constructors: the Fourier multiplier (delta or word-length
symbol) diagonal in the clock/shift basis v_c u_b read off Z_n's shifts and
characters, and the commuting-family Lindblad generator A(x) = sum_j (x a_j^2
+ a_j^2 x - 2 a_j x a_j).  Superoperators are materialized as n^2 x n^2
matrices over row-major vec, capped at n <= 12.  The working inner product
is <x,y> = tr(x^dag y)/n and L_p norms are normalized Schatten norms.

The multiplier also records its symbol, the cocycles.coordinate_length
w(b) + w(c) on Z_n x Z_n, whose cocycle b gives the derivation
D_j(x) = sum_s b_j(s) tau(w_s^dag x) w_s with Gamma(x, x) = sum_j D_j(x)^dag D_j(x),
one diagonal of x at a time (Superoperator.derive).  Stacked as a (d n) x n matrix,
||D(x)||_p = ||Gamma(x, x)||_{p/2}^{1/2}, so Poincare witnesses score by Schatten norms
of D, which take no trace power.  The superoperator route (superop_gamma) is the reference
that certifies every matrix constant, and the only route for Lindblad generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import rng
from .algebra import bakry_emery, gamma_gradient
from .cocycles import LengthFunction, coordinate_length, gromov_form
from .groups import build_cyclic, build_power
from .linalg import (HERMITIAN_PRECHECK, PsdVerdict, is_integer, is_number, psd_scale,
                     psd_verdict, require, require_finite, root, schatten_norm, _mul,
                     _schatten_grad, _trace_power_grad)
from .poincare import (PoincareReport, WorstConstant, maximize_ratio, sweep, _by_p,
                       _ratio_gradient, _require_p, _scored)

SUPEROP_CAP = 12


def vec(x: np.ndarray) -> np.ndarray:
    return np.reshape(x, np.shape(x)[:-2] + (-1,))


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(v.shape[:-1] + (n, n))


def clock_shift_basis(n: int) -> np.ndarray:
    """The (n^2, n, n) stack of w_s = v_c u_b at s = b n + c, read off Z_n's tables:
    v_c = lambda(c) is rep_index == c (v_c e_j = e_(j+c)), u_b = diag(characters[b]),
    exact at the quarter turns.  Orthonormal for the normalized trace pairing.  n is held to
    SUPEROP_CAP, as every superoperator built from the basis is."""
    require(n, "clock/shift n", lambda v: is_integer(v) and v >= 2, "an integer >= 2")
    _check_cap(n)
    z = build_cyclic(n)
    v = z.rep_index == np.arange(n)[:, None, None]
    return (v[None] * z.characters[:, None, None, :]).reshape(n * n, n, n)


@dataclass(frozen=True)
class Superoperator:
    """A generator as an n^2 x n^2 matrix; symbol is the multiplier's length on Z_n x Z_n,
    None for every other generator, and left out of equality."""
    n: int
    mat: np.ndarray         # (n^2, n^2) complex, row-major vec convention
    symbol: Optional[LengthFunction] = field(default=None, compare=False)

    def __post_init__(self):
        n2 = self.n * self.n
        if np.shape(self.mat) != (n2, n2):
            raise ValueError(f"a superoperator on M_{self.n} is a {(n2, n2)} matrix, "
                             f"got shape {np.shape(self.mat)}")
        require_finite(self.mat, "superoperator matrix")
        self.mat.setflags(write=False)

    @cached_property
    def derivation(self) -> Optional[np.ndarray]:
        """The symbol's derivation by diagonals, read-only, built on first use; None without one.

        D_j(x) = sum_s b_j(s) tau(w_s^dag x) w_s, b_j the d columns of the symbol's Gromov factor,
        has sum_j D_j(x)^dag D_j(x) = Gamma(x, x).  w_s = v_c u_b (s = b n + c) is chi_b(l) at
        (l + c, l) and 0 elsewhere, so D_j takes the c-th diagonal of x to that of D_j(x):
        derivation[c, l, j n + m] = sum_b conj(chi_b(l)) b_j(s) chi_b(m) / n, the d n^3 entries
        of the dense (n^2, d n^2) map that are not 0."""
        if self.symbol is None:
            return None
        n = self.n
        chi = build_cyclic(n).characters
        B = gromov_form(self.symbol).factor[1].reshape(n, n, -1)
        D = np.einsum("bl,bcj,bm->cljm", chi.conj() / n, B, chi).reshape(n, n, -1)
        D.setflags(write=False)
        return D

    @cached_property
    def _diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat indices of x[l + c, l] in vec(x) at c n + l, and of D_j(x)[i, m] in derive's
        products at ((i - m) mod n) d n + j n + m; then the inverse of each permutation."""
        n, d = self.n, self.derivation.shape[-1] // self.n
        c, l = np.indices((n, n))
        j, i, m = np.indices((d, n, n))
        into, back = ((c + l) % n * n + l).ravel(), ((i - m) % n * d * n + j * n + m).ravel()
        return into, back, np.argsort(into), np.argsort(back)

    def derive(self, x: np.ndarray) -> np.ndarray:
        """[D_1(x); ...; D_d(x)] of an n x n matrix or an (..., n, n) stack, as (..., d n, n)
        matrices, for a generator with a symbol: one (1 x n) by (n x d n) product per diagonal
        and matrix (_mul's), so a matrix has the bits it has alone in any stack."""
        into, back, _, _ = self._diagonals
        out = np.take(vec(x), into, axis=-1).reshape(x.shape[:-2] + (self.n, 1, self.n))
        out = vec(_mul(out, self.derivation).reshape(x.shape[:-2] + (self.n, -1)))
        return np.take(out, back, axis=-1).reshape(x.shape[:-2] + (-1, self.n))

    def derive_adjoint(self, z: np.ndarray) -> np.ndarray:
        """sum_j D_j(z_j) of (..., d n, n) matrices z = [z_1; ...; z_d], as (..., n, n): derive's
        adjoint for the entrywise pairing, its steps run backwards, each product by the
        derivation's conjugate transpose, per matrix and diagonal as derive's."""
        _, _, into, back = self._diagonals
        lead = z.shape[:-2]
        out = np.take(vec(z), back, axis=-1).reshape(lead + (self.n, 1, -1))
        out = _mul(out, np.swapaxes(self.derivation.conj(), -1, -2)).reshape(lead + (-1,))
        return unvec(np.take(out, into, axis=-1), self.n)

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
        """The spectral gap: the least positive symbol value of a multiplier, exact, and the
        least eigenvalue of A off its kernel for every other generator."""
        if self.symbol is not None:
            pos = self.symbol.values[self.symbol.values > 0]
        else:
            w, _ = self._eig
            pos = w[(w > 0) & ~self._kernel]
        if pos.size == 0:
            raise ValueError("generator has no positive spectrum: no gap")
        return float(pos.min())

    def expm(self, t: float) -> np.ndarray:
        """e^{-tA} as a superoperator matrix, V e^{-tw} V^dag from the cached _eig.
        This relies on A being self-adjoint, which both constructors guarantee."""
        w, V = self._eig
        return (V * np.exp(-t * w)) @ V.conj().T


def _check_cap(n: int) -> None:
    if n > SUPEROP_CAP:
        raise ValueError(f"superoperator dimension n = {n} exceeds cap {SUPEROP_CAP}")


def heisenberg_multiplier(n: int, psi_mode: str = "delta") -> Superoperator:
    """Generator diagonal in the v_c u_b basis: A(v_c u_b) = psi(b,c) v_c u_b, formed as
    A = W^T diag(psi) conj(W) / n in one product, W the vec'd clock_shift_basis(n).

    Its symbol psi(b,c) = w(b) + w(c), w the cyclic delta or word length, is the
    coordinate_length of both axes of build_power(n, 2), at the index s = b n + c.
    """
    W = vec(clock_shift_basis(n))
    symbol = coordinate_length(build_power(n, 2), (n, n), (0, 1), psi_mode)
    return Superoperator(n, (W.T * symbol.values) @ W.conj() / n, symbol)


def lindblad_generator(a: Sequence[np.ndarray]) -> Superoperator:
    """A(x) = sum_j (x a_j^2 + a_j^2 x - 2 a_j x a_j) for commuting Hermitian a_j, both
    checked to HERMITIAN_PRECHECK times psd_scale of each a_j; A(1) = 0 and A = A^dag by algebra."""
    if not len(a):
        raise ValueError("empty Lindblad family")
    mats = [np.asarray(m, dtype=complex) for m in a]
    n = mats[0].shape[0]
    _check_cap(n)
    for j, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"a[{j}] has shape {m.shape}, expected {(n, n)}")
        require_finite(m, f"a[{j}]")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITIAN_PRECHECK * psd_scale(m):
            raise ValueError(f"a[{j}] is not Hermitian: deviation {dev:.3e}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max()
            if dev > HERMITIAN_PRECHECK * psd_scale(mats[i]) * psd_scale(mats[j]):
                raise ValueError(
                    f"a[{i}] and a[{j}] do not commute: ||[a_{i},a_{j}]|| = {dev:.3e}")
    eye = np.eye(n, dtype=complex)
    A = np.zeros((n * n, n * n), dtype=complex)
    for m in mats:
        m2 = m @ m
        A += np.kron(eye, m2.T) + np.kron(m2, eye) - 2.0 * np.kron(m, m.T)
    return Superoperator(n, A)


def _require_matrices(n: int, *xs) -> None:
    """Each argument must be an n x n matrix or an (..., n, n) stack."""
    for x in xs:
        if np.shape(x)[-2:] != (n, n):
            raise ValueError(f"arguments must be {n}x{n} matrices, got shape {np.shape(x)}")


def _superop_gamma_k(A: Superoperator, x, y, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _require_matrices(A.n, x, y)
    return bakry_emery(A.apply, np.matmul, np.swapaxes(x.conj(), -1, -2), y, k)


def superop_gamma(A: Superoperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gamma(x,y) = (A(x^dag) y + x^dag A(y) - A(x^dag y))/2, per matrix of a stack."""
    return _superop_gamma_k(A, x, y, 1)


def superop_gamma2(A: Superoperator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gamma_2(x,y) = (Gamma(Ax,y) + Gamma(x,Ay) - A Gamma(x,y))/2, per matrix of a stack."""
    return _superop_gamma_k(A, x, y, 2)


def battery_matrix(n: int, seed: int, index: int) -> np.ndarray:
    """The index-th random complex n x n matrix of the stream (seed, TAG_BATTERY, index)."""
    st = rng.stream(seed, rng.TAG_BATTERY, index)
    return st.standard_normal((n, n)) + 1j * st.standard_normal((n, n))


def alpha_battery(A: Superoperator, alpha: float, seed: int, samples: int) -> PsdVerdict:
    """psd_verdict of the Hermitian part of Gamma_2(x,x) - alpha Gamma(x,x) on the first `samples`
    unit-Frobenius battery matrices: psd if every one passes, min_eig the least eigenvalue."""
    require(alpha, "alpha", lambda v: is_number(v) and 0 <= v < np.inf, "a finite number >= 0")
    require(samples, "samples", lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    psd, worst = True, np.inf
    for i in range(samples):
        x = battery_matrix(A.n, seed, i)
        x /= np.linalg.norm(x)
        form = superop_gamma2(A, x, x) - alpha * superop_gamma(A, x, x)
        v = psd_verdict(np.linalg.eigvalsh(0.5 * (form + form.conj().T)))
        psd, worst = psd and v.psd, min(worst, v.min_eig)
    return PsdVerdict(psd, worst)


def lindblad_gamma_residual(A: Superoperator, a: Sequence[np.ndarray], seed: int,
                            samples: int) -> float:
    """Max entry of Gamma(x,x) - sum_j [a_j,x]^dag [a_j,x] over the first `samples` battery
    matrices: the Lindblad generator of the family a against its carre du champ."""
    require(samples, "samples", lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    resid = 0.0
    for i in range(samples):
        x = battery_matrix(A.n, seed, i)
        direct = sum((m @ x - x @ m).conj().T @ (m @ x - x @ m) for m in a)
        resid = max(resid, float(np.abs(superop_gamma(A, x, x) - direct).max()))
    return resid


def matrix_poincare_ratio(A: Superoperator, x: np.ndarray, p, gradient: bool = False):
    """Poincare ratio per witness of x, an n x n matrix or an (..., n, n) stack, at p one number
    or an array of one per witness.  Each witness scores as it does alone at its own p, bit for
    bit.

    With a symbol the denominator is max(||D(x0)||_p, ||D(x0^dag)||_p), D the
    derivation stacked as a (d n) x n matrix, so tau|D|^p = tau(Gamma^{p/2}):
    even p takes matrix products, every other p the singular values of D, both
    norms, their moments and gradients from linalg._schatten_grad.  Without a
    symbol, the superoperator route runs, its rows grouped by p.  A witness whose
    largest |entry| lies outside [2^-WINDOW, 2^WINDOW] is scored divided by a power
    of two (poincare._scored).

    With gradient, x a (k, n, n) stack, returns (scores, G) with the same scores: G[i] the
    gradient of the i-th ratio R in x's entries, dR = Re sum conj(G[i]) o dx.  It is
    (R / p)(grad N / N - grad D / D) on the active branch of the max, projected off ker A
    (poincare._ratio_gradient): linalg._schatten_grad of x0 and of D(x0), the second pulled back
    by derive_adjoint; on the superoperator route grad D = q (A(x0 M) + A(x0) M - x0 A(M)),
    M = sign(Gamma)|Gamma|^{q-1} by eigh, q = p/2, as its Gamma need not be PSD.
    """
    _require_matrices(A.n, x)
    p = _require_p(p, np.shape(x)[:-2])
    require_finite(x, "Poincare ratio input")
    if A.symbol is None:
        return _superop_ratio(A, x, p, gradient)

    def parts(x):
        x0 = x - A.fix_project(x)
        num, _, gn = _schatten_grad(x0, p)
        Y = A.derive(np.stack([x0, _adjoint(x0)]))
        den, moments, gy = _schatten_grad(Y.reshape((-1,) + Y.shape[-2:]),
                                          p if np.ndim(p) == 0 else np.tile(p, 2))
        den, moments, gy = den.reshape(2, -1), moments.reshape(2, -1), gy.reshape(Y.shape)
        grad = lambda r: _ratio_gradient(r, p, gn, A.derive_adjoint(gy), moments, _adjoint,
                                         _off_fix(A))
        return num, np.maximum(den[0], den[1]), grad if gradient else None

    return _scored(np.asarray(x), (-2, -1), parts)


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x.conj(), -1, -2)


def _off_fix(A: Superoperator):
    return lambda x: x - A.fix_project(x)


def _superop_ratio(A: Superoperator, x: np.ndarray, p, gradient: bool = False):
    """The ratio through superop_gamma, the reference route, its rows grouped by p; its callers
    check p.  gradient and the window as matrix_poincare_ratio's."""
    def parts(x):
        x0 = x - A.fix_project(x)
        pair = (x0, _adjoint(x0))
        gammas = np.stack([superop_gamma(A, y, y) for y in pair])
        num, den = np.empty(len(x)), np.empty(len(x))
        L, moments = np.empty(gammas.shape, complex), np.empty((2, len(x)))
        if gradient:
            num[:], _, gn = _schatten_grad(x0, p)              # schatten_norm's bits
        for q, R in _by_p(p):
            den[R] = np.maximum(*(schatten_norm(g[R], q / 2.0) for g in gammas))
            if gradient:
                L[:, R], moments[:, R] = _trace_power_grad(gammas[:, R], q / 2.0, psd=False)
            else:
                num[R] = schatten_norm(x0[R], q)

        def grad(r):
            gd = np.stack([gamma_gradient(A.apply, _mul, y, m) for y, m in zip(pair, L)])
            return _ratio_gradient(r, p, gn, gd, moments, _adjoint, _off_fix(A))

        return num, root(den, 2), grad if gradient else None

    return _scored(np.asarray(x), (-2, -1), parts)


def matrix_worst_constant(A: Superoperator, p: float, budget: int = 20000, seed: int = 0, *,
                          ascent: Optional[WorstConstant] = None) -> WorstConstant:
    """Empirical lower bound for the best L_p Poincare constant over matrix witnesses.

    The optimizer scores by matrix_poincare_ratio; the constant is the
    winning witness re-scored on the superoperator route, whose Schatten
    norms take no trace power, so it stays a certified bound for a symbol
    that passes the CN test only within its tolerance.  ascent, this p's
    result of an ascent shared with other p (matrix_poincare's), replaces
    the search: the call then only certifies it, and reads no budget or seed.
    """
    _require_p(p)
    if ascent is None:
        [ascent] = _matrix_ascend(A, [(p, seed)], budget)
    return ascent._replace(constant=float(_superop_ratio(A, ascent.witness, p)))


def _matrix_ascend(A: Superoperator, problems: Sequence[tuple[float, int]],
                   budget: int) -> list[WorstConstant]:
    """maximize_ratio of matrix_poincare_ratio at each (p, seed) of problems."""
    n = A.n
    if A.fix_dimension() == n * n:
        raise ValueError("generator is identically 0: no spectral gap")

    def scores(x: np.ndarray, ps: list):
        r, G = matrix_poincare_ratio(A, x, np.array(ps), gradient=True)
        return r, vec(G)

    return maximize_ratio(scores, lambda z: unvec(z, n), n * n, budget, problems, n ** 4)


def matrix_poincare(A: Superoperator, p_grid: Sequence[float], budget: int = 20000,
                    seed: int = 0) -> PoincareReport:
    """Poincare sweep over matrix witnesses, each p certified by matrix_worst_constant; E_Fix
    comes from ker(A).  No alpha envelope."""
    return sweep(lambda problems: _matrix_ascend(A, problems, budget),
                 lambda p, res: matrix_worst_constant(A, p, ascent=res), p_grid, seed)
