"""Length functions, Gromov forms and explicit 1-cocycle realizations.

The Gromov form K(s,t) = (psi(s)+psi(t)-psi(s^{-1}t))/2 is the Gram matrix
of the cocycle vectors b(g); psi is conditionally negative exactly when K
is positive semidefinite, and GromovForm(psi) derives K from psi alone.  The
CN verdict, the span pair and both alpha* solvers read one factor of K,
GromovForm.factor: a rank cut and d cocycle columns B_r with K = B_r B_r^T
to within it.  A builtin length carries its cocycle in closed form, the
CocycleRealization psi.cocycle, and B_r is its vectors reduced to their
rank, so its CN verdict is exact; a psi without one (read from a file, or
built by length_function) takes B_r = U_r sqrt(lambda_r) off K's spectrum.
A realization is that spectral factor on every input: the orthogonal action
alpha of the cocycle (b, alpha) is determined by b and never formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup, build_cyclic, coordinates
from .linalg import (DEFAULT_TOL, PsdVerdict, blocks, is_integer, psd_scale, psd_verdict,
                     require, require_finite)

CYCLIC_MODES = ("delta", "wordlength")


@dataclass(frozen=True)
class LengthFunction:
    group: FiniteGroup
    values: np.ndarray      # (order,) nonnegative reals, values[0] = 0
    # a cocycle with psi(g) = ||b(g)||^2, as coordinate_length sets it
    cocycle: Optional[CocycleRealization] = field(default=None, compare=False)

    def __post_init__(self):
        self.values.setflags(write=False)


def length_function(group: FiniteGroup, values) -> LengthFunction:
    """Validated constructor: psi finite, psi(e) = 0, psi >= 0, psi(g) = psi(g^{-1}) to
    1e-12 * psd_scale(psi); stored as (v + v[inv]) / 2, so psi and K are exactly symmetric."""
    v = np.asarray(values, dtype=float)
    if v.shape != (group.order,):
        raise ValueError(f"psi has shape {v.shape}, expected ({group.order},)")
    require_finite(v, "psi")
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
    """K(s,t) = (psi(s) + psi(t) - psi(s^{-1} t)) / 2 of a length function psi, and its one
    factor: see factor.  psi is revalidated as length_function checks it, and K is derived
    from psi.values as given: a LengthFunction built directly (the dilation's ||b(g)||^2) is
    not re-symmetrized, which would move its Gamma.  So diag K = psi exactly, K satisfies the
    Gromov identity bit for bit, and |K - K^T| <= 1e-12 * psd_scale(psi) / 2.  K's spectrum,
    diagonalised at most once, serves realize, the uncompressed pair, and every psi without
    a cocycle.
    """
    psi: LengthFunction
    K: np.ndarray = field(init=False, repr=False, compare=False)    # (order, order) real

    def __post_init__(self):
        length_function(self.psi.group, self.psi.values)      # revalidate invariants
        v, conv = self.psi.values, self.psi.group.conv_index
        K = np.add.outer(v, v)
        for lo, hi in blocks(len(v), 2 * len(v)):   # in place, so no |G| x |G| temporary
            K[lo:hi] -= v[conv[lo:hi]]
        K *= 0.5
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @property
    def group(self) -> FiniteGroup:
        return self.psi.group

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, U) = eigh(K), ascending, read-only."""
        lam, U = np.linalg.eigh(self.K)
        lam.flags.writeable = U.flags.writeable = False
        return lam, U

    @cached_property
    def factor(self) -> tuple[float, np.ndarray]:
        """(cut, B_r), read-only, what the PSD test, span_pair and both alpha* solvers read:
        d orthogonal columns with K = B_r B_r^T to the rank cut.  With psi's cocycle, whose
        vectors are B, the cut is DEFAULT_TOL * (1 + lambda_max(B^T B)), K = B B^T is checked
        entrywise to it in row blocks (else a ValueError naming the worst (s, t)), and
        B_r = B V over the eigenvectors V of the Gram B^T B above it: B is rank-deficient on
        delta and odd word lengths.  Without one, _spectral_factor()."""
        if self.psi.cocycle is None:
            return self._spectral_factor()
        B = self.psi.cocycle.vectors
        mu, V = np.linalg.eigh(B.T @ B)
        cut = DEFAULT_TOL * (1.0 + mu.max(initial=0.0))
        worst, at = -1.0, (0, 0)
        for lo, hi in blocks(len(B), 3 * len(B)):
            dev = np.abs(self.K[lo:hi] - B[lo:hi] @ B.T)
            i = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i] > worst:
                worst, at = dev[i], (lo + i[0], i[1])
        if worst > cut:
            s, t = at
            raise ValueError(f"K is not B B^T: at (s, t) = ({s}, {t}), K(s,t) = "
                             f"{self.K[s, t]:.6g} but b(s).b(t) = {B[s] @ B[t]:.6g}")
        Br = B @ V[:, mu > cut]
        Br.flags.writeable = False
        return cut, Br

    def _spectral_factor(self) -> tuple[float, np.ndarray]:
        """(cut, U_r sqrt(lam_r)), read-only: cut = DEFAULT_TOL * (1 + ||K||_2) once K's spectrum
        passes the PSD test (else ValueError), U_r and lam_r the eigenpairs above it."""
        lam, U = self.spectrum
        test = psd_verdict(lam)
        if not test.psd:
            raise ValueError(f"K is not PSD: min eigenvalue {test.min_eig:.3e}")
        cut = DEFAULT_TOL * psd_scale(lam)
        keep = lam > cut
        Br = U[:, keep] * np.sqrt(lam[keep])
        Br.flags.writeable = False
        return cut, Br

    def _psd_test(self, tol: float = DEFAULT_TOL) -> PsdVerdict:
        """psd_verdict on K's spectrum; with a cocycle B, on min_eig 0.0, exact once factor
        checks K = B B^T: B B^T is PSD, and b(e) = 0 gives it a zero row."""
        if self.psi.cocycle is None:
            return psd_verdict(self.spectrum[0], tol)
        self.factor                             # K = B B^T to the cut, or ValueError
        return psd_verdict(np.zeros(1), tol)

    @cached_property
    def span_pair(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(P^T (K o K) P, P^T K P, P), read-only: K o K - alpha K on the cocycle's span.

        With B = factor[1], d columns, K = B B^T and K o K = sum (B_i o B_j)(B_i o B_j)^T
        map into ran W, W = [B, C], C = [B_i o B_j (i <= j)], of m = d + d(d+1)/2 columns.  So
        for P an orthonormal basis of a space holding ran W (one QR of W), K o K - alpha K
        is PSD exactly when its m x m compression is, and a witness v of the compression is
        P v of K.  On a psi with a cocycle, the compression is read off R = P^T W alone:
        M = R_B R_B^T and Q = R_C D R_C^T, D = 1 on i = j and 2 on i < j, so neither K's
        spectrum nor K o K is formed.  Without one, M = P^T K P and Q = P^T (K o K) P: read
        off R there, alpha* on Z_2^2 misses the uncompressed one by 6.5e-12.  Where
        m >= order, or d = 0, the pair is (K o K, K, None): K itself, uncompressed.
        """
        B = self.factor[1]
        d = B.shape[1]
        if not 0 < d * (d + 3) // 2 < self.group.order:
            Q = self.K * self.K
            Q.flags.writeable = False
            return Q, self.K, None
        i, j = np.triu_indices(d)
        P, R = np.linalg.qr(np.hstack([B, B[:, i] * B[:, j]]))
        if self.psi.cocycle is None:
            Q, M = P.T @ (self.K * self.K) @ P, P.T @ self.K @ P
        else:
            RB, RC = R[:, :d], R[:, d:]
            Q, M = (RC * np.where(i == j, 1.0, 2.0)) @ RC.T, RB @ RB.T
        for a in (Q, M, P):
            a.flags.writeable = False
        return Q, M, P


def gromov_form(psi: LengthFunction) -> GromovForm:
    return GromovForm(psi)


def is_conditionally_negative(psi: LengthFunction, tol: float = DEFAULT_TOL) -> PsdVerdict:
    return gromov_form(psi)._psd_test(tol)


@dataclass(frozen=True)
class CocycleRealization:
    """The cocycle vectors b(g) of a 1-cocycle (b, alpha) on an orthogonal R^d.

    alpha is determined by b and not stored: b(gh) = b(g) + alpha_g b(h) over all h fixes
    alpha_g on the span of the b(h), which may be a proper subspace of R^d (the closed form
    of delta:n has n columns of rank n - 1, and odd word lengths are rank-deficient too).
    """
    group: FiniteGroup
    vectors: np.ndarray     # (order, d), rows b(g)

    def __post_init__(self):
        n = self.group.order
        if self.vectors.ndim != 2 or len(self.vectors) != n:
            raise ValueError(f"vectors have shape {self.vectors.shape}, expected ({n}, d)")
        require_finite(self.vectors, "b")
        self.vectors.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def psi(self) -> np.ndarray:
        """psi(g) = ||b(g)||^2."""
        return np.einsum("gj,gj->g", self.vectors, self.vectors)


def realize_cocycle(K: GromovForm) -> CocycleRealization:
    """K's spectral factor B (GromovForm._spectral_factor); B's rows are the b(g).

    d is the numerical rank of K, and the b(g) span R^d.  An orthogonal
    alpha_g with b(gh) = b(g) + alpha_g b(h) exists for every g because K is a
    Gromov form: symmetric, with K(s,t) = (K(s,s) + K(t,t) - K(s^{-1}t,
    s^{-1}t))/2 for all s, t, as GromovForm derives it.  Then the Gram matrix
    of the b(gh) - b(g) over h is K again.  A psi with a cocycle is realized
    the same way, in K's eigenbasis, the basis the dilation draws its
    increments in.
    """
    return CocycleRealization(K.group, K._spectral_factor()[1])


def word_length_cocycle(n: int) -> CocycleRealization:
    """The explicit d = n/2 realization of the word length on Z_n, n even.

    b(k) = e_1 + ... + e_k for k <= n/2 and e_{k-n/2+1} + ... + e_{n/2}
    beyond; its alpha_1 is the signed shift e_j -> e_{j+1}, e_{n/2} -> -e_1,
    and alpha_k = alpha_1^k.  Everything is integer-exact.  For odd n, embed Z_n into
    Z_(2n) and restrict.  It is word_length_psi(n).cocycle.
    """
    require(n, "word-length realization n", lambda v: is_integer(v) and v >= 2 and v % 2 == 0,
            "an even integer >= 2")
    return word_length_psi(n).cocycle


def _walls(k: np.ndarray, n: int) -> np.ndarray:
    """Rows b(k) of the wall cocycle of the word length on Z_n, n even: entry j is 1 where
    k - n/2 <= j < k, so b(k) counts the n/2 walls that a shortest path from 0 to k crosses."""
    j = np.arange(n // 2)
    return ((k[:, None] - n // 2 <= j) & (j < k[:, None])).astype(float)


def _cyclic_cocycle(mode: str, k: np.ndarray, n: int) -> np.ndarray:
    """Rows b(k) of a cocycle of cyclic_length(mode, k, n) on Z_n, ||b(k)||^2 that length:
    'delta' is (e_k - e_0)/sqrt 2, even 'wordlength' the n/2 walls of Z_n (_walls),
    odd 'wordlength' the walls of Z_2n at 2k, over sqrt 2.  mode as cyclic_length checks it."""
    if mode == "delta":
        B = np.zeros((len(k), n))
        B[np.arange(len(k)), k] = 1.0
        B[:, 0] -= 1.0
        return B * np.sqrt(0.5)
    if n % 2 == 0:
        return _walls(k, n)
    return _walls(2 * k, 2 * n) * np.sqrt(0.5)


def cyclic_length(mode: str, k: np.ndarray, n) -> np.ndarray:
    """A length of Z_n at the coordinates k, as floats: 'delta' is k != 0 and
    'wordlength' is min(k, n - k), n broadcast against k.  coordinate_length sums these."""
    require(mode, "mode", lambda v: isinstance(v, str) and v in CYCLIC_MODES,
            "one of " + ", ".join(CYCLIC_MODES))
    if mode == "delta":
        return (k != 0).astype(float)
    return np.minimum(k, n - k).astype(float)


def coordinate_length(group: FiniteGroup, radices: Sequence[int], axes: Sequence[int],
                      mode: str) -> LengthFunction:
    """psi(g) = sum over a in axes of cyclic_length(mode, digit_a(g), radices[a]), the digits
    read by coordinates(group.order, radices): the one sum behind every builtin length.  Its
    cocycle is the direct sum of the axes' _cyclic_cocycle."""
    axes = list(axes)
    k, n = coordinates(group.order, radices)[axes], np.asarray(radices)[axes, None]
    psi = length_function(group, cyclic_length(mode, k, n).sum(axis=0))
    B = np.hstack([np.zeros((group.order, 0))]
                  + [_cyclic_cocycle(mode, k[a], radices[ax]) for a, ax in enumerate(axes)])
    return replace(psi, cocycle=CocycleRealization(group, B))


def word_length_psi(n: int) -> LengthFunction:
    """psi(k) = min(k, n-k) on Z_n (any n >= 1)."""
    return coordinate_length(build_cyclic(n), (n,), (0,), "wordlength")


@dataclass(frozen=True)
class SchurReport:
    residual: float
    terms: int


def verify_schur_identity(n: int, psi: Optional[LengthFunction] = None) -> SchurReport:
    """Check K o K - K = G o G - G, with G = Z Z^T for the wall matrix Z of the word length.

    Z = word_length_psi(n).cocycle.vectors has 0/1 columns z_r, so
    G o G - G = 2 sum_{r<r'} (z_r o z_r')(z_r o z_r')^T, a sum of PSD terms: at
    K = G this is Gamma_2 >= Gamma.  Grouped by the gap r' - r = g, the pairs sum
    to the word-length Gromov matrix of Z_(n-2g) embedded at offset g, so terms
    counts the n/2 - 1 gap classes.  K is the Gromov matrix of the word length,
    or of psi on Z_n, which serves as a negative control.
    """
    require(n, "Schur n", lambda v: is_integer(v) and v >= 4 and v % 2 == 0, "an even integer >= 4")
    word = word_length_psi(n)
    if psi is None:
        psi = word
    elif psi.group.order != n:
        raise ValueError(f"psi lives on a group of order {psi.group.order}, expected {n}")
    elif not np.array_equal(psi.group.mul, word.group.mul):
        raise ValueError(f"psi lives on a group of order {n} that is not Z_{n}")
    K = gromov_form(psi).K
    Z = word.cocycle.vectors
    G = Z @ Z.T
    G *= G - 1.0                                # G o G - G, exact: G is integer-valued
    R = K * K
    R -= K
    R -= G
    return SchurReport(float(np.abs(R, out=R).max()), n // 2 - 1)
