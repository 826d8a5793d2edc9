"""Length functions, Gromov forms and explicit 1-cocycle realizations.

The Gromov form K(s,t) = (psi(s)+psi(t)-psi(s^{-1}t))/2 is the Gram matrix
of the cocycle vectors b(g); psi is conditionally negative exactly when K
is positive semidefinite.  Every builtin length (coordinate_length) carries
its cocycle B in closed form, and its GromovForm reads B: K = B B^T is
checked entrywise to DEFAULT_TOL * (1 + lambda_max(B^T B)), and the CN
verdict is exact, min_eig 0.0.  That bound is also the rank cut: B is
reduced to its rank through its Gram B^T B, and the span pair is read off
the reduced B.  A psi without B (read from a file, or built by
length_function) is diagonalised instead: its psd_verdict reads
lambda_min >= -tol*(1 + ||K||_2) off K's spectrum, and at tol = DEFAULT_TOL
that bound is the rank cut, above which the eigenvalues span ran K.  A
realization is B alone, read off K's eigenbasis on every input: the
orthogonal action alpha of the cocycle (b, alpha) is determined by b and
never formed.  Both alpha* solvers read K o K - alpha K through
GromovForm.span_pair, its compression onto the span of the b_i and the
b_i o b_j.
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
    # (order, c) rows b(g) of a cocycle with psi(g) = ||b(g)||^2, as coordinate_length sets it
    cocycle: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.cocycle is not None:
            self.cocycle.setflags(write=False)


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
    """K, with the cocycle B behind it if known.  B, checked against K, gives the PSD test,
    the rank cut and the span pair of both alpha* solvers.  K's spectrum, diagonalised at
    most once, serves realize, the uncompressed pair, and every form without B.

    K must be finite, of shape (order, order), and B finite, of shape (order, c), or
    ValueError.  Built by gromov_form, K satisfies the Gromov identity exactly; one built
    directly is checked against it by realize_cocycle.
    """
    group: FiniteGroup
    K: np.ndarray           # (order, order) real symmetric
    B: Optional[np.ndarray] = None      # (order, c) with K = B B^T, rows b(g)

    def __post_init__(self):
        n = self.group.order
        if self.K.shape != (n, n):
            raise ValueError(f"K has shape {self.K.shape}, expected {(n, n)}")
        require_finite(self.K, "K")
        self.K.setflags(write=False)
        if self.B is not None:
            if self.B.ndim != 2 or len(self.B) != n:
                raise ValueError(f"B has shape {self.B.shape}, expected ({n}, c)")
            require_finite(self.B, "B")
            self.B.setflags(write=False)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, U) = eigh(K), ascending, read-only."""
        lam, U = np.linalg.eigh(self.K)
        lam.flags.writeable = U.flags.writeable = False
        return lam, U

    @cached_property
    def _factor(self) -> tuple[float, np.ndarray]:
        """(cut, B_r) from B: cut = DEFAULT_TOL * (1 + lambda_max(B^T B)), once K = B B^T is
        checked entrywise to it, in row blocks (a K that fails is a ValueError naming the worst
        (s, t)), and B_r = B V over the eigenvectors V of the Gram B^T B above the cut, d
        orthogonal columns (B is rank-deficient on delta and odd word lengths)."""
        mu, V = np.linalg.eigh(self.B.T @ self.B)
        cut = DEFAULT_TOL * (1.0 + mu.max(initial=0.0))
        worst, at = -1.0, (0, 0)
        for lo, hi in blocks(len(self.B), 3 * len(self.B)):
            dev = np.abs(self.K[lo:hi] - self.B[lo:hi] @ self.B.T)
            i = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i] > worst:
                worst, at = dev[i], (lo + i[0], i[1])
        if worst > cut:
            s, t = at
            raise ValueError(f"K is not B B^T: at (s, t) = ({s}, {t}), K(s,t) = "
                             f"{self.K[s, t]:.6g} but b(s).b(t) = {self.B[s] @ self.B[t]:.6g}")
        Br = self.B @ V[:, mu > cut]
        Br.flags.writeable = False
        return cut, Br

    def _psd_test(self, tol: float = DEFAULT_TOL) -> PsdVerdict:
        """psd_verdict on K's spectrum; with B, on min_eig 0.0, exact once K = B B^T: B B^T
        is PSD, and b(e) = 0 gives it a zero row."""
        if self.B is None:
            return psd_verdict(self.spectrum[0], tol)
        self._factor                            # K = B B^T to the cut, or ValueError
        return psd_verdict(np.zeros(1), tol)

    def _rank_cut(self) -> float:
        """B's cut, or K's spectral cut without B."""
        return self._spectral_cut() if self.B is None else self._factor[0]

    def _spectral_cut(self) -> float:
        """DEFAULT_TOL * (1 + ||K||_2), once K's spectrum passes the PSD test (else ValueError)."""
        test = psd_verdict(self.spectrum[0])
        if not test.psd:
            raise ValueError(f"K is not PSD: min eigenvalue {test.min_eig:.3e}")
        return DEFAULT_TOL * psd_scale(self.spectrum[0])

    def _cocycle_vectors(self) -> np.ndarray:
        """B = U_r sqrt(lam_r) over K's eigenvalues above the spectral cut: K = B B^T to it."""
        lam, U = self.spectrum
        keep = lam > self._spectral_cut()
        return U[:, keep] * np.sqrt(lam[keep])

    @cached_property
    def span_pair(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(P^T (K o K) P, P^T K P, P), read-only: K o K - alpha K on the cocycle's span.

        With B the d cocycle vectors above the rank cut (B_r, or read off K's spectrum
        without B), K = B B^T and K o K = sum_{i,j} (B_i o B_j)(B_i o B_j)^T both map
        into ran W, W = [B, C], C = [B_i o B_j (i <= j)], of m = d + d(d+1)/2 columns.  So
        for P an orthonormal basis of a space holding ran W (one QR of W), K o K - alpha K
        is PSD exactly when its m x m compression is, and a witness v of the compression is
        P v of K.  With B, the compression is read off R = P^T W alone:
        M = R_B R_B^T and Q = R_C D R_C^T, D = 1 on i = j and 2 on i < j, so neither K's
        spectrum nor K o K is formed; else M = P^T K P and Q = P^T (K o K) P.  Where
        m >= order, or d = 0, the pair is (K o K, K, None): K itself, uncompressed.
        """
        B = self._cocycle_vectors() if self.B is None else self._factor[1]
        d = B.shape[1]
        if not 0 < d * (d + 3) // 2 < self.group.order:
            Q = self.K * self.K
            Q.flags.writeable = False
            return Q, self.K, None
        i, j = np.triu_indices(d)
        P, R = np.linalg.qr(np.hstack([B, B[:, i] * B[:, j]]))
        if self.B is None:
            Q, M = P.T @ (self.K * self.K) @ P, P.T @ self.K @ P
        else:
            RB, RC = R[:, :d], R[:, d:]
            Q, M = (RC * np.where(i == j, 1.0, 2.0)) @ RC.T, RB @ RB.T
        for a in (Q, M, P):
            a.flags.writeable = False
        return Q, M, P


def gromov_form(psi: LengthFunction) -> GromovForm:
    """K(s,t) = (psi(s) + psi(t) - psi(s^{-1} t)) / 2 from psi.values as given: a LengthFunction
    built directly (the dilation's ||b(g)||^2) is not re-symmetrized, which would move its Gamma."""
    length_function(psi.group, psi.values)      # revalidate invariants
    v, conv = psi.values, psi.group.conv_index
    K = np.add.outer(v, v)
    for lo, hi in blocks(len(v), 2 * len(v)):   # in place, so no |G| x |G| temporary
        K[lo:hi] -= v[conv[lo:hi]]
    K *= 0.5
    return GromovForm(psi.group, K, psi.cocycle)


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
    naming the worst (s, t).  A form with a cocycle B is realized the same way, in
    K's eigenbasis, the basis the dilation draws its increments in.
    """
    cut = K._spectral_cut()
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
    B = K._cocycle_vectors()
    return CocycleRealization(K.group, B.shape[1], B)


def word_length_cocycle(n: int) -> CocycleRealization:
    """The explicit d = n/2 realization of the word length on Z_n, n even.

    b(k) = e_1 + ... + e_k for k <= n/2 and e_{k-n/2+1} + ... + e_{n/2}
    beyond; its alpha_1 is the signed shift e_j -> e_{j+1}, e_{n/2} -> -e_1,
    and alpha_k = alpha_1^k.  Everything is integer-exact.  For odd n, embed Z_n into
    Z_(2n) and restrict.
    """
    require(n, "word-length realization n", lambda v: is_integer(v) and v >= 2 and v % 2 == 0,
            "an even integer >= 2")
    group = build_cyclic(n)                     # the order cap fails before B exists
    return CocycleRealization(group, n // 2, _walls(np.arange(n), n))


def _walls(k: np.ndarray, n: int) -> np.ndarray:
    """Rows b(k) of the wall cocycle of the word length on Z_n, n even: entry j is 1 where
    k - n/2 <= j < k, so b(k) counts the n/2 walls that a shortest path from 0 to k crosses."""
    j = np.arange(n // 2)
    return ((k[:, None] - n // 2 <= j) & (j < k[:, None])).astype(float)


def _cyclic_cocycle(mode: str, k: np.ndarray, n: int) -> np.ndarray:
    """Rows b(k) of a cocycle of cyclic_length(mode, k, n) on Z_n, ||b(k)||^2 that length:
    'delta' is (e_k - e_0)/sqrt 2, even 'wordlength' the walls of word_length_cocycle(n),
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
    return replace(psi, cocycle=B)


def word_length_psi(n: int) -> LengthFunction:
    """psi(k) = min(k, n-k) on Z_n (any n >= 1)."""
    return coordinate_length(build_cyclic(n), (n,), (0,), "wordlength")


@dataclass(frozen=True)
class SchurReport:
    residual: float
    terms: int


def verify_schur_identity(n: int, psi: Optional[LengthFunction] = None) -> SchurReport:
    """Check K o K - K = G o G - G, with G = Z Z^T for the wall matrix Z of the word length.

    Z = word_length_cocycle(n).vectors has 0/1 columns z_r, so
    G o G - G = 2 sum_{r<r'} (z_r o z_r')(z_r o z_r')^T, a sum of PSD terms: at
    K = G this is Gamma_2 >= Gamma.  Grouped by the gap r' - r = g, the pairs sum
    to the word-length Gromov matrix of Z_(n-2g) embedded at offset g, so terms
    counts the n/2 - 1 gap classes.  K is the Gromov matrix of the word length,
    or of psi on Z_n, which serves as a negative control.
    """
    require(n, "Schur n", lambda v: is_integer(v) and v >= 4 and v % 2 == 0, "an even integer >= 4")
    walls = word_length_cocycle(n)
    if psi is None:
        psi = coordinate_length(walls.group, (n,), (0,), "wordlength")   # word_length_psi(n)
    elif psi.group.order != n:
        raise ValueError(f"psi lives on a group of order {psi.group.order}, expected {n}")
    elif not np.array_equal(psi.group.mul, walls.group.mul):
        raise ValueError(f"psi lives on a group of order {n} that is not Z_{n}")
    K = gromov_form(psi).K
    Z = walls.vectors
    G = Z @ Z.T
    G *= G - 1.0                                # G o G - G, exact: G is integer-valued
    R = K * K
    R -= K
    R -= G
    return SchurReport(float(np.abs(R, out=R).max()), n // 2 - 1)
