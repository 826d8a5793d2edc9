"""Semigroups on the n x n matrix algebra.

Two generator constructors: the Fourier multiplier (delta or word-length
symbol) diagonal in the clock/shift basis v_c u_b read off Z_n's shifts and
characters, and the commuting-family Lindblad generator A(x) = sum_j (x a_j^2
+ a_j^2 x - 2 a_j x a_j).  Superoperators are materialized as n^2 x n^2
matrices over row-major vec, capped at n <= 12.  The working inner product
is <x,y> = tr(x^dag y)/n and L_p norms are normalized Schatten norms.

The multiplier also records its symbol, the cocycles.coordinate_length
w(b) + w(c) on Z_n x Z_n: its algebra is the twisted group algebra of that
group, so Gamma takes the Gromov-kernel contraction of the group side with
a phase, and Poincare witnesses score through it.  The superoperator route
(superop_gamma) is the reference that certifies every matrix constant, and
the only route for Lindblad generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .algebra import AlgebraElement, Semigroup, _kernel_contract, bakry_emery
from .cocycles import LengthFunction, coordinate_length
from .groups import build_cyclic, build_power, coordinates
from .linalg import (HERMITIAN_PRECHECK, PsdVerdict, is_integer, is_number, psd_scale,
                     psd_verdict, require, require_finite, schatten_norm)
from .poincare import PoincareReport, WorstConstant, maximize_ratio, ratio_scores, sweep

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


class _SymbolKernel(NamedTuple):
    sg: Semigroup           # the symbol's semigroup on Z_n x Z_n
    basis: np.ndarray       # (n^2, n^2), row s = vec(clock_shift_basis(n)[s])
    dual: np.ndarray        # conj(basis) / n: dual[s] . vec(x) = tau(w_s^dag x)
    weight: np.ndarray      # (n^2, n^2), K(s, s + u) omega^(-b_s c_u)
    psd: bool               # the Gromov form passes the PSD test: every Gamma(x, x) >= 0


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
    def _symbol_kernel(self) -> _SymbolKernel:
        """The twisted Gromov kernel of the symbol, built on first use.

        w_s^dag w_(s+u) = omega^(-b_s c_u) w_u for omega = e^(2 pi i/n), so
        Gamma(x, x) = sum_u (sum_s conj(a_s) a_(s+u) weight[s, u]) w_u.  The twist
        is row (0, b_s) of the symbol group's character table, conjugated.
        """
        sg = Semigroup(self.symbol)
        b, _ = coordinates(self.n * self.n, (self.n, self.n))
        W = vec(clock_shift_basis(self.n))
        return _SymbolKernel(sg, W, W.conj() / self.n,
                             sg._kernel_su * sg.group.characters[b].conj(), sg.gamma_psd)

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


def _symbol_gammas(A: Superoperator, x: np.ndarray) -> np.ndarray:
    """Gamma(x,x) and Gamma(x^dag,x^dag) stacked on a new first axis, through A's symbol.

    The coefficients a_s = tau(w_s^dag x) contract with the twisted kernel
    one row at a time, as on the group side, so a matrix gets the same
    bits alone and inside any stack.
    """
    ker = A._symbol_kernel
    xs = vec(np.stack([x, np.swapaxes(x.conj(), -1, -2)]))
    f = AlgebraElement(ker.sg.group, np.einsum("...m,sm->...s", xs, ker.dual))
    g = _kernel_contract(ker.sg, f, f, ker.weight).coeffs
    return unvec(np.einsum("...u,um->...m", g, ker.basis), A.n)


def matrix_poincare_ratio(A: Superoperator, x: np.ndarray, p: float):
    """Poincare ratio per witness of x, an n x n matrix or an (..., n, n) stack.

    With a symbol, Gamma(x0,x0) and Gamma(x0^dag,x0^dag) come from the
    twisted kernel and take one schatten_norm call, with the PSD flag when
    the symbol passes the CN test (odd p/2 then takes trace powers).
    Without one, the superoperator route runs.
    """
    _require_matrices(A.n, x)
    require(p, "p", lambda v: is_number(v) and v >= 2, "a number >= 2")
    if A.symbol is None:
        return _superop_ratio(A, x, p)
    require_finite(x, "Poincare ratio input")
    x0 = x - A.fix_project(x)
    gam = _symbol_gammas(A, x0)
    require_finite(gam, "Gamma of the Poincare ratio input")
    den = schatten_norm(gam, p / 2.0, A._symbol_kernel.psd)
    return ratio_scores(schatten_norm(x0, p), np.maximum(den[0], den[1]),
                        np.abs(x).max(axis=(-2, -1)))


def _superop_ratio(A: Superoperator, x: np.ndarray, p: float):
    """The ratio through superop_gamma, without the PSD flag: the reference route; its callers
    check p."""
    x0 = x - A.fix_project(x)
    x0d = np.swapaxes(x0.conj(), -1, -2)
    return ratio_scores(schatten_norm(x0, p),
                        np.maximum(schatten_norm(superop_gamma(A, x0, x0), p / 2.0),
                                   schatten_norm(superop_gamma(A, x0d, x0d), p / 2.0)),
                        np.abs(x).max(axis=(-2, -1)))


def matrix_worst_constant(A: Superoperator, p: float, budget: int = 20000, seed: int = 0, *,
                          ascent: Optional[WorstConstant] = None) -> WorstConstant:
    """Empirical lower bound for the best L_p Poincare constant over matrix witnesses.

    The optimizer scores by matrix_poincare_ratio; the constant is the
    winning witness re-scored on the superoperator route without the PSD
    flag, so it stays a certified bound for a symbol that passes the CN
    test only within its tolerance.  ascent, this p's result of an ascent
    shared with other p (matrix_poincare's), replaces the search: the call
    then only certifies it, and reads no budget or seed.
    """
    require(p, "p", lambda v: is_number(v) and v >= 2, "a number >= 2")
    if ascent is None:
        [ascent] = _matrix_ascend(A, [(p, seed)], budget)
    return ascent._replace(constant=float(_superop_ratio(A, ascent.witness, p)))


def _matrix_ascend(A: Superoperator, problems: Sequence[tuple[float, int]],
                   budget: int) -> list[WorstConstant]:
    """maximize_ratio of matrix_poincare_ratio at each (p, seed) of problems."""
    n = A.n
    if A.fix_dimension() == n * n:
        raise ValueError("generator is identically 0: no spectral gap")
    return maximize_ratio(lambda x, p: matrix_poincare_ratio(A, x, p), lambda z: unvec(z, n),
                          n * n, budget, problems, n ** 4)


def matrix_poincare(A: Superoperator, p_grid: Sequence[float], budget: int = 20000,
                    seed: int = 0) -> PoincareReport:
    """Poincare sweep over matrix witnesses, each p certified by matrix_worst_constant; E_Fix
    comes from ker(A).  No alpha envelope."""
    return sweep(lambda problems: _matrix_ascend(A, problems, budget),
                 lambda p, res: matrix_worst_constant(A, p, ascent=res), p_grid, seed)
