"""Length functions, Gromov forms and explicit 1-cocycle realizations.

The Gromov form K(s,t) = (psi(s)+psi(t)-psi(s^{-1}t))/2 is the Gram matrix
of the cocycle vectors b(g); psi is conditionally negative exactly when K
is positive semidefinite.  K is diagonalised once: its psd_verdict reads
lambda_min >= -tol*(1 + ||K||_2), and at tol = DEFAULT_TOL that bound is
also the rank cut, above which the eigenvalues span ran K.  A realization
is B alone: the orthogonal action alpha of the cocycle (b, alpha) is
determined by b and never formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup, build_cyclic, coordinates
from .linalg import DEFAULT_TOL, PsdVerdict, psd_scale, psd_verdict


@dataclass(frozen=True)
class LengthFunction:
    group: FiniteGroup
    values: np.ndarray      # (order,) nonnegative reals, values[0] = 0

    def __post_init__(self):
        self.values.setflags(write=False)


def length_function(group: FiniteGroup, values) -> LengthFunction:
    """Validated constructor: psi finite, psi(e) = 0, psi >= 0, psi(g) = psi(g^{-1}) to
    1e-12 * psd_scale(psi); stored as (v + v[inv]) / 2, so psi and K are exactly symmetric."""
    v = np.asarray(values, dtype=float)
    if v.shape != (group.order,):
        raise ValueError(f"psi has shape {v.shape}, expected ({group.order},)")
    if not np.isfinite(v).all():
        g = int(np.argmin(np.isfinite(v)))
        raise ValueError(f"psi({g}) = {v[g]} is not finite")
    if v[0] != 0.0:
        raise ValueError(f"psi(e) = {v[0]}, must be 0")
    if v.min() < 0:
        g = int(np.argmin(v))
        raise ValueError(f"psi({g}) = {v[g]} is negative")
    asym = np.abs(v - v[group.inv])
    if asym.max() > 1e-12 * psd_scale(v):
        g = int(np.argmax(asym))
        raise ValueError(
            f"psi not symmetric: psi({g}) = {v[g]} but psi(inv({g})) = {v[group.inv[g]]}")
    return LengthFunction(group, (v + v[group.inv]) / 2)


@dataclass(frozen=True)
class GromovForm:
    """K, diagonalised once for the PSD test, the rank cut, realize and both alpha* solvers.

    K must be finite, of shape (order, order), or ValueError.  Built by
    gromov_form, K satisfies the Gromov identity exactly; one built directly
    is checked against it by realize_cocycle.
    """
    group: FiniteGroup
    K: np.ndarray           # (order, order) real symmetric

    def __post_init__(self):
        n = self.group.order
        if self.K.shape != (n, n):
            raise ValueError(f"K has shape {self.K.shape}, expected {(n, n)}")
        if not np.isfinite(self.K).all():
            s, t = np.argwhere(~np.isfinite(self.K))[0]
            raise ValueError(f"K({s},{t}) = {self.K[s, t]} is not finite")
        self.K.setflags(write=False)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, U) = eigh(K), ascending, read-only."""
        lam, U = np.linalg.eigh(self.K)
        lam.flags.writeable = U.flags.writeable = False
        return lam, U

    def _psd_test(self, tol: float = DEFAULT_TOL) -> PsdVerdict:
        return psd_verdict(self.spectrum[0], tol)

    def _rank_cut(self) -> float:
        """DEFAULT_TOL * (1 + ||K||_2), once K passes the PSD test (else ValueError)."""
        test = self._psd_test()
        if not test.psd:
            raise ValueError(f"K is not PSD: min eigenvalue {test.min_eig:.3e}")
        return DEFAULT_TOL * psd_scale(self.spectrum[0])


def gromov_form(psi: LengthFunction) -> GromovForm:
    """K(s,t) = (psi(s) + psi(t) - psi(s^{-1} t)) / 2 from psi.values as given: a LengthFunction
    built directly (the dilation's ||b(g)||^2) is not re-symmetrized, which would move its Gamma."""
    length_function(psi.group, psi.values)      # revalidate invariants
    v = psi.values
    K = 0.5 * (v[:, None] + v[None, :] - v[psi.group.conv_index])
    return GromovForm(psi.group, K)


def is_conditionally_negative(psi: LengthFunction, tol: float = DEFAULT_TOL) -> PsdVerdict:
    return gromov_form(psi)._psd_test(tol)


@dataclass(frozen=True)
class CocycleRealization:
    """The cocycle vectors b(g) of a 1-cocycle (b, alpha) on an orthogonal R^d.

    alpha is determined by b and not stored: the b(h) span R^d, so
    b(gh) = b(g) + alpha_g b(h) over all h fixes each alpha_g.
    """
    group: FiniteGroup
    dimension: int
    vectors: np.ndarray     # (order, d), rows b(g)

    def __post_init__(self):
        self.vectors.setflags(write=False)

    @property
    def psi(self) -> np.ndarray:
        """psi(g) = ||b(g)||^2."""
        return np.einsum("gj,gj->g", self.vectors, self.vectors)


def realize_cocycle(K: GromovForm) -> CocycleRealization:
    """Factor K = B B^T from K's eigenvalues above the rank cut; B's rows are the b(g).

    d is the numerical rank of K, and the b(g) span R^d.  An orthogonal
    alpha_g with b(gh) = b(g) + alpha_g b(h) exists for every g exactly when
    K is a Gromov form: symmetric, with K(s,t) = (K(s,s) + K(t,t) -
    K(s^{-1}t, s^{-1}t))/2 for all s, t.  Then the Gram matrix of the
    b(gh) - b(g) over h is K again.  After the PSD test, both conditions are
    checked entrywise to the rank cut, and a K that fails one is a ValueError
    naming the worst (s, t).
    """
    lam, U = K.spectrum
    cut = K._rank_cut()
    diag = np.diag(K.K)
    for what, rhs, ref in (
            ("symmetric", "K(t,s)", K.K.T),
            ("a Gromov form", "(K(s,s) + K(t,t) - K(s^-1 t, s^-1 t))/2",
             0.5 * (diag[:, None] + diag[None, :] - diag[K.group.conv_index]))):
        dev = np.abs(K.K - ref)
        s, t = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[s, t] > cut:
            raise ValueError(f"K is not {what}: at (s, t) = ({s}, {t}), "
                             f"K(s,t) = {K.K[s, t]:.6g} but {rhs} = {ref[s, t]:.6g}")
    keep = lam > cut
    B = U[:, keep] * np.sqrt(lam[keep])
    return CocycleRealization(K.group, int(keep.sum()), B)


def word_length_cocycle(n: int) -> CocycleRealization:
    """The explicit d = n/2 realization of the word length on Z_n, n even.

    b(k) = e_1 + ... + e_k for k <= n/2 and e_{k-n/2+1} + ... + e_{n/2}
    beyond; its alpha_1 is the signed shift e_j -> e_{j+1}, e_{n/2} -> -e_1,
    and alpha_k = alpha_1^k.  Everything is integer-exact.
    """
    if n < 2 or n % 2:
        raise ValueError(
            f"word-length realization needs even n >= 2, got {n}; "
            f"for odd n embed Z_n into Z_(2n) and restrict")
    d = n // 2
    B = np.zeros((n, d))
    for k in range(1, n):
        if k <= d:
            B[k, :k] = 1.0
        else:
            B[k, k - d:d] = 1.0
    return CocycleRealization(build_cyclic(n), d, B)


def cyclic_length(mode: str, k: np.ndarray, n) -> np.ndarray:
    """A length of Z_n at the coordinates k, as floats: 'delta' is k != 0 and
    'wordlength' is min(k, n - k), n broadcast against k.  coordinate_length sums these."""
    if mode == "delta":
        return (k != 0).astype(float)
    if mode == "wordlength":
        return np.minimum(k, n - k).astype(float)
    raise ValueError(f"unknown psi_mode {mode!r}")


def coordinate_length(group: FiniteGroup, radices: Sequence[int], axes: Sequence[int],
                      mode: str) -> LengthFunction:
    """psi(g) = sum over a in axes of cyclic_length(mode, digit_a(g), radices[a]), the digits
    read by coordinates(group.order, radices): the one sum behind every builtin length."""
    axes = list(axes)
    k, n = coordinates(group.order, radices)[axes], np.asarray(radices)[axes, None]
    return length_function(group, cyclic_length(mode, k, n).sum(axis=0))


def word_length_psi(n: int) -> LengthFunction:
    """psi(k) = min(k, n-k) on Z_n (any n >= 1)."""
    return coordinate_length(build_cyclic(n), (n,), (0,), "wordlength")


@dataclass(frozen=True)
class SchurReport:
    residual: float
    terms: int


def _word_block(m: int) -> np.ndarray:
    """(m-1)x(m-1) word-length Gromov matrix of Z_m over indices 1..m-1."""
    K = gromov_form(word_length_psi(m)).K
    return K[1:, 1:]


def verify_schur_identity(n: int, psi: Optional[LengthFunction] = None) -> SchurReport:
    """Check K_n o K_n - K_n = 2 sum_{l=1}^{n/2-1} embedded K_{2l}.

    K_n is the word-length Gromov matrix over indices 1..n-1 and the l-th
    block is embedded at offset (n-2l)/2.  The identity is exact for the
    word length; passing a different psi on Z_n substitutes its Gromov
    matrix on the left-hand side only, which serves as a negative control.
    """
    if n < 4 or n % 2:
        raise ValueError(f"Schur identity needs even n >= 4, got {n}")
    if psi is None:
        Kn = _word_block(n)
    else:
        if psi.group.order != n:
            raise ValueError(f"psi lives on a group of order {psi.group.order}, expected {n}")
        Kn = gromov_form(psi).K[1:, 1:]
    lhs = Kn * Kn - Kn
    rhs = np.zeros_like(lhs)
    terms = n // 2 - 1
    for l in range(1, n // 2):
        m = 2 * l
        off = (n - m) // 2
        rhs[off:off + m - 1, off:off + m - 1] += 2.0 * _word_block(m)
    return SchurReport(float(np.abs(lhs - rhs).max()), terms)
