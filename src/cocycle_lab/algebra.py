"""The group algebra of a finite group as a von Neumann algebra.

Elements are coefficient vectors f = sum_g a_g lambda(g); the regular
representation sends them to order x order matrices, tau is the
normalized matrix trace, and L_p norms are normalized Schatten norms.
On a group with a character table, lambda(f) is normal and the
characters diagonalise it: its eigenvalues are the transform f^(chi),
so ||f||_p^p = mean_chi |f^(chi)|^p at every p.
The heat semigroup T_t acts by coefficient multipliers e^{-t psi(g)};
Gamma and Gamma_2 have both a kernel code path (Gromov kernel weights)
and a definitional one (bakry_emery, the Bakry-Emery iteration through
the generator), kept deliberately separate as a cross-check.  Gamma(f, f) is also
sum_j D_j(f)* D_j(f) over the derivation D_j(f) = sum_s b_j(s) a_s lambda(s) of a cocycle
b of d columns, so its transform is sum_j |(b_j a)^|^2 (gamma_transform, for small d).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cocycles import GromovForm, LengthFunction, gromov_form
from .groups import FiniteGroup
from .linalg import (HERMITIAN_PRECHECK, PsdVerdict, psd_scale, psd_verdict, require,
                     require_finite, schatten_norm)

# gamma_transform squares the derivation where 2 d <= order, d <= DERIVATION_D and W's d order^2
# entries fit DERIVATION_ENTRIES (32 MiB); else it transforms the kernel Gamma.  Not merged with
# linalg.BLOCK_ENTRIES: a route picked by block size would make bits follow the blocking (64 sends
# walsh:2:3 to the kernel).  Derivation over kernel time, 64-4096 rows, one thread (2-vCPU x86-64,
# AVX-512, numpy 2.4.6), at (order, d): walsh:2:3 (8, 3) 0.21-0.58, walsh:2:6 (64, 6) 0.10-0.20,
# walsh:2:8 (256, 8) 0.47-0.59, walsh:2:9 (512, 9) 0.61-0.69, walsh:3:3 (27, 6) 0.30-0.50,
# wordlength:8 (8, 4) 0.55-0.67, :16 (16, 8) 0.71-0.86, :32 (32, 16) 0.86-1.11, :64 (64, 32)
# 1.62-2.42, wordlength:7 (7, 6) 0.84-1.00, delta:8 (8, 7) 0.86-1.05, delta:32 (32, 31) 1.72-2.66.
DERIVATION_D = 16
DERIVATION_ENTRIES = 2 ** 21


@dataclass(frozen=True)
class AlgebraElement:
    group: FiniteGroup
    coeffs: np.ndarray      # (order,) complex; (..., order) for a stack of elements

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.group, np.take(np.conj(self.coeffs), self.group.inv, axis=-1))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_group(self, other)
        return AlgebraElement(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_group(self, other)
        return AlgebraElement(self.group, self.coeffs - other.coeffs)

    def __rmul__(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self.group, c * self.coeffs)


def _same_group(f, g, what: str = "algebra elements live over different groups") -> None:
    if f.group is not g.group and not np.array_equal(f.group.mul, g.group.mul):
        raise ValueError(what)


def element(group: FiniteGroup, coeffs) -> AlgebraElement:
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (group.order,):
        raise ValueError(f"coefficients have shape {c.shape}, expected ({group.order},)")
    return AlgebraElement(group, c)


def delta(group: FiniteGroup, g: int) -> AlgebraElement:
    """lambda(g) as an algebra element."""
    c = np.zeros(group.order, dtype=complex)
    c[g] = 1.0
    return AlgebraElement(group, c)


def tau(f: AlgebraElement) -> complex:
    return complex(f.coeffs[0])


def conv(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f g)[u] = sum_s a_s b_{s^{-1} u}, per row of a stack."""
    _same_group(f, g)
    b = np.take(g.coeffs, f.group.conv_index, axis=-1)
    return AlgebraElement(f.group, (f.coeffs[..., None, :] @ b)[..., 0, :])


def regular_rep(f: AlgebraElement) -> np.ndarray:
    """M[x, y] = a_{x y^{-1}}; a *-homomorphism with tau = normalized trace."""
    return np.take(f.coeffs, f.group.rep_index, axis=-1)


def lp_norm(f: AlgebraElement, p: float):
    """||f||_p, or per element of a stack."""
    return schatten_norm(regular_rep(f), p)


def fourier(f: AlgebraElement) -> np.ndarray:
    """f^(chi_k) = sum_g a_g chi_k(g), the eigenvalues of lambda(f), per element of a stack.

    Needs the group's character table.  einsum without optimize contracts each
    row on its own, so a row transforms as it does alone, whatever the stack size.
    """
    return np.einsum("...g,kg->...k", f.coeffs, f.group.characters)


@dataclass(frozen=True)
class Semigroup:
    psi: LengthFunction

    @property
    def group(self) -> FiniteGroup:
        return self.psi.group

    @cached_property
    def gromov(self) -> GromovForm:
        return gromov_form(self.psi)

    @cached_property
    def _kernel_su(self) -> np.ndarray:
        # weight[s, u] = K(s, s u), the kernel aligned for the Gamma contraction
        K = self.gromov.K
        g = self.group
        w = K[np.arange(g.order)[:, None], g.mul]
        w.setflags(write=False)
        return w

    @cached_property
    def derivation(self) -> np.ndarray | None:
        """W[s, j order + k] = b_j(s) chi_k(s) over the d columns b_j of gromov.factor, read-only,
        where the group has characters, psi has a cocycle and d passes the size rule above;
        else None."""
        chi, order = self.group.characters, self.group.order
        if chi is None or self.psi.cocycle is None:
            return None
        B = self.gromov.factor[1]
        d = B.shape[1]
        if 2 * d > order or d > DERIVATION_D or d * order ** 2 > DERIVATION_ENTRIES:
            return None
        W = (B[:, :, None] * chi.T[:, None, :]).reshape(order, -1)
        W.setflags(write=False)
        return W

    @cached_property
    def gamma_psd(self) -> bool:
        """psi passes the Gromov-form PSD test, so every Gamma(f, f) is PSD (Schoenberg): the
        certificate under which poincare_ratio takes linalg._psd_moments at integer p/2."""
        return self.gromov._psd_test().psd

    @cached_property
    def fix_mask(self) -> np.ndarray:
        return self.psi.values == 0.0


def semigroup_apply(sg: Semigroup, f: AlgebraElement, t: float | np.ndarray) -> AlgebraElement:
    """T_t f; a column of times t[:, None] gives the stack of T_{t_k} f."""
    require_finite(t, "semigroup time")
    if np.min(t) < 0:
        raise ValueError(f"semigroup time must be >= 0, got {np.min(t)}")
    return AlgebraElement(f.group, f.coeffs * np.exp(-t * sg.psi.values))


def generator_apply(sg: Semigroup, f: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(f.group, f.coeffs * sg.psi.values)


def fix_project(sg: Semigroup, f: AlgebraElement) -> AlgebraElement:
    """Trace-preserving conditional expectation onto span{lambda(g): psi(g) = 0}."""
    return AlgebraElement(f.group, np.where(sg.fix_mask, f.coeffs, 0.0))


def bakry_emery(apply, product, u, g, k: int):
    """Gamma_k(f, g) = (Gamma_{k-1}(Af, g) + Gamma_{k-1}(f, Ag) - A Gamma_{k-1}(f, g))/2 of the
    generator A = apply, from Gamma_0(f, g) = product(u, g) for u = f*.  (Af)* is taken to be
    apply(u), so A must satisfy A(f*) = A(f)*, as every generator here does."""
    if k == 0:
        return product(u, g)
    step = lambda v, h: bakry_emery(apply, product, v, h, k - 1)
    return 0.5 * (step(apply(u), g) + step(u, apply(g)) - apply(step(u, g)))


def _gamma_k(sg: Semigroup, f: AlgebraElement, g: AlgebraElement, k: int, path: str):
    """Gamma_k(f, g): on the kernel path the coefficient of lambda(u) is
    sum_s conj(a_s) b_{su} K(s, su)^k, on the definitional path bakry_emery runs."""
    _same_group(f, g)
    require(path, "path", lambda v: v in ("kernel", "definitional"), "one of kernel, definitional")
    if path == "kernel":
        w = sg._kernel_su
        w = np.take(g.coeffs, sg.group.mul, axis=-1) * (w if k == 1 else w ** k)
        return AlgebraElement(f.group, (np.conj(f.coeffs)[..., None, :] @ w)[..., 0, :])
    return bakry_emery(lambda h: generator_apply(sg, h), conv, f.adjoint(), g, k)


def gamma(sg: Semigroup, f: AlgebraElement, g: AlgebraElement,
          path: str = "kernel") -> AlgebraElement:
    """Gamma(f,g) = (A(f*)g + f*A(g) - A(f*g))/2."""
    return _gamma_k(sg, f, g, 1, path)


def gamma_transform(sg: Semigroup, f: AlgebraElement) -> np.ndarray:
    """|Gamma(f, f)^| per row of a (k, order) stack f: sum_j |(b_j a)^|^2 through sg.derivation,
    whose stacked product gives each row the bits it has alone; else |fourier(gamma(f, f))|."""
    if sg.derivation is None:
        return np.abs(fourier(gamma(sg, f, f)))
    t = derived_transform(sg, f)
    s, n = t.real ** 2 + t.imag ** 2, sg.group.order
    # the j blocks added in order: 0.8 of the time of .sum(axis=1) over (k, d, order) at k = 225
    return sum((s[:, j:j + n] for j in range(n, s.shape[1], n)), s[:, :n])


def derived_transform(sg: Semigroup, f: AlgebraElement) -> np.ndarray:
    """(b_j a)^(chi_k) at j order + k per row of a (k, order) stack f, through sg.derivation: one
    stacked (1 x order) by W product per row, with the bits the row has alone."""
    return (np.ascontiguousarray(f.coeffs)[:, None, :] @ sg.derivation)[:, 0]


def gamma_gradient(apply, product, x, m):
    """A(x m) + A(x) m - x A(m), the gradient in x of the trace of m Gamma(x, x) for a fixed
    self-adjoint m, with A = apply, the products by product, and the trace of the pairing the
    gradient is taken in (tau on coefficients, tr on matrix entries).  It needs tr(y A(z)) =
    tr(A(y) z) and A(x*) = A(x)*, as every generator here has for a symmetric psi."""
    return apply(product(x, m)) + product(apply(x), m) - product(x, apply(m))


def gamma_norm(sg: Semigroup, f: AlgebraElement, q: float):
    """max{||Gamma(f,f)||_q, ||Gamma(f*,f*)||_q} per element of f, an element or a stack, by
    linalg.schatten_norm: products at even q, singular values at any other q."""
    return np.maximum(*(schatten_norm(regular_rep(gamma(sg, g, g)), q) for g in (f, f.adjoint())))


def gamma2(sg: Semigroup, f: AlgebraElement, g: AlgebraElement,
           path: str = "kernel") -> AlgebraElement:
    """Gamma_2(f,g) = (Gamma(Af,g) + Gamma(f,Ag) - A Gamma(f,g))/2."""
    return _gamma_k(sg, f, g, 2, path)


def operator_positivity(f: AlgebraElement) -> PsdVerdict:
    """psd_verdict on the spectrum of regular_rep(f); f must be Hermitian to the precheck."""
    herm_dev = np.abs(f.adjoint().coeffs - f.coeffs).max()
    if herm_dev > HERMITIAN_PRECHECK * psd_scale(f.coeffs):
        raise ValueError(f"element is not Hermitian: f* - f has max coefficient {herm_dev:.3e}")
    M = regular_rep(f)
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return psd_verdict(w)
