"""The group algebra of a finite group as a von Neumann algebra.

Elements are coefficient vectors f = sum_g a_g lambda(g); the regular
representation sends them to order x order matrices, tau is the
normalized matrix trace, and L_p norms are normalized Schatten norms.
The heat semigroup T_t acts by coefficient multipliers e^{-t psi(g)};
Gamma and Gamma_2 have both a kernel code path (Gromov kernel weights)
and a definitional one (through the generator), kept deliberately
separate as a cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cocycles import DEFAULT_TOL, GromovForm, LengthFunction, gromov_form
from .groups import FiniteGroup
from .linalg import HERMITIAN_PRECHECK, psd_scale, schatten_norm


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


def _same_group(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.group is not g.group and not np.array_equal(f.group.mul, g.group.mul):
        raise ValueError("algebra elements live over different groups")


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
    """(f g)[u] = sum_s a_s b_{s^{-1} u}."""
    _same_group(f, g)
    return AlgebraElement(f.group, f.coeffs @ g.coeffs[f.group.conv_index])


def regular_rep(f: AlgebraElement) -> np.ndarray:
    """M[x, y] = a_{x y^{-1}}; a *-homomorphism with tau = normalized trace."""
    return np.take(f.coeffs, f.group.rep_index, axis=-1)


def lp_norm(f: AlgebraElement, p: float):
    """||f||_p, or per element of a stack."""
    return schatten_norm(regular_rep(f), p)


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
    def gamma_psd(self) -> bool:
        """psi passes the Gromov-form PSD test, so every Gamma(f, f) is PSD (Schoenberg)."""
        return self.gromov._psd_test().verdict

    @cached_property
    def fix_mask(self) -> np.ndarray:
        return self.psi.values == 0.0


def semigroup_apply(sg: Semigroup, f: AlgebraElement, t: float | np.ndarray) -> AlgebraElement:
    """T_t f; a column of times t[:, None] gives the stack of T_{t_k} f."""
    if not np.isfinite(np.max(t)):
        raise ValueError(f"semigroup time must be finite, got {np.max(t)}")
    if np.min(t) < 0:
        raise ValueError(f"semigroup time must be >= 0, got {np.min(t)}")
    return AlgebraElement(f.group, f.coeffs * np.exp(-t * sg.psi.values))


def generator_apply(sg: Semigroup, f: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(f.group, f.coeffs * sg.psi.values)


def fix_project(sg: Semigroup, f: AlgebraElement) -> AlgebraElement:
    """Trace-preserving conditional expectation onto span{lambda(g): psi(g) = 0}."""
    return AlgebraElement(f.group, np.where(sg.fix_mask, f.coeffs, 0.0))


def _kernel_contract(sg: Semigroup, f: AlgebraElement, g: AlgebraElement, weight):
    """sum_s conj(a_s) b_{su} weight[s, u] as the coefficient of lambda(u), per row of a stack."""
    w = np.take(g.coeffs, sg.group.mul, axis=-1) * weight
    return AlgebraElement(f.group, (np.conj(f.coeffs)[..., None, :] @ w)[..., 0, :])


def gamma(sg: Semigroup, f: AlgebraElement, g: AlgebraElement,
          path: str = "kernel") -> AlgebraElement:
    """Gamma(f,g) = (A(f*)g + f*A(g) - A(f*g))/2.

    Kernel path: coefficient of lambda(u) is sum_s conj(a_s) b_{su} K(s, su).
    """
    _same_group(f, g)
    if path == "kernel":
        return _kernel_contract(sg, f, g, sg._kernel_su)
    if path == "definitional":
        fs = f.adjoint()
        a = conv(generator_apply(sg, fs), g)
        b = conv(fs, generator_apply(sg, g))
        c = generator_apply(sg, conv(fs, g))
        return AlgebraElement(f.group, 0.5 * (a.coeffs + b.coeffs - c.coeffs))
    raise ValueError(f"unknown gamma path {path!r}")


def gamma2(sg: Semigroup, f: AlgebraElement, g: AlgebraElement,
           path: str = "kernel") -> AlgebraElement:
    """Gamma_2(f,g) = (Gamma(Af,g) + Gamma(f,Ag) - A Gamma(f,g))/2.

    Kernel path: same contraction as gamma with kernel weight K(s, su)^2.
    """
    _same_group(f, g)
    if path == "kernel":
        return _kernel_contract(sg, f, g, sg._kernel_su ** 2)
    if path == "definitional":
        a = gamma(sg, generator_apply(sg, f), g)
        b = gamma(sg, f, generator_apply(sg, g))
        c = generator_apply(sg, gamma(sg, f, g))
        return AlgebraElement(f.group, 0.5 * (a.coeffs + b.coeffs - c.coeffs))
    raise ValueError(f"unknown gamma path {path!r}")


@dataclass(frozen=True)
class PositivityReport:
    psd: bool
    min_eig: float


def operator_positivity(f: AlgebraElement) -> PositivityReport:
    """Minimum eigenvalue of regular_rep(f) for Hermitian f."""
    herm_dev = np.abs(f.adjoint().coeffs - f.coeffs).max()
    if herm_dev > HERMITIAN_PRECHECK:
        raise ValueError(f"element is not Hermitian: f* - f has max coefficient {herm_dev:.3e}")
    M = regular_rep(f)
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return PositivityReport(bool(w[0] >= -DEFAULT_TOL * psd_scale(w)), float(w[0]))
