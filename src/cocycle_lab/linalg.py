"""Small shared numerical helpers: Schatten norms, the one PSD/tolerance rule, the one block rule.

Schatten norms at even integer p use matrix products only, and so does odd
integer p on a stack the caller certifies PSD (psd=True): there
||X||_p^p = tau(X^p), a trace read at p = 1 and a product beyond.  Every
other p, and odd p without the flag, takes the singular values, the reference route.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

HERMITIAN_PRECHECK = 1e-10
DEFAULT_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 21   # array entries one block may hold at once, summed over its arrays
_NOT_FINITE = "Schatten norm input is not finite (it holds NaN or inf)"


def schatten_norm(mat: np.ndarray, p: float, psd: bool = False):
    """((1/n) sum sigma_i^p)^{1/p} of a matrix; max sigma for p = inf.

    A float for one matrix; an array for an (..., n, n) stack, which takes
    one call.  psd=True lets odd integer p take trace powers, which give
    the norm only where every matrix is PSD.
    """
    out = _schatten(mat, p, take_root=True, psd=psd)
    return float(out) if np.ndim(out) == 0 else out


def root(x, k: float):
    """x^{1/k} elementwise by Python's scalar float power, so each value rounds as v ** (1/k).

    np.power(x, 1/k) is consistent across stack lengths and strides, but it differs from
    the scalar ** in the last ulp for about 5% of values at k in {3, 4, 6, 16} and under
    0.1% at k = 2 (numpy 2.4.6, whose float64 power kernel is picked by CPU feature:
    X86_V4/AVX512 on the CPU measured).  So only fewer roots, not a vectorized one, save time.
    """
    return np.array([v ** (1.0 / k) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def schatten_pow_batch(mats: np.ndarray, p: float, psd: bool = False) -> np.ndarray:
    """(1/n) sum sigma_i^p per matrix of a (..., n, n) batch, no root; psd as in schatten_norm."""
    return _schatten(mats, p, take_root=False, psd=psd)


def _schatten(mats: np.ndarray, p: float, take_root: bool, psd: bool = False) -> np.ndarray:
    """tau(|X|^p) per matrix of a stack, or its p-th root: the one product / SVD rule.

    Even integer p >= 2 takes matrix products (_even_moment), and so does
    odd integer p on a PSD stack (_trace_power), in blocks(count, 32 n^2): up to
    4 stacks of n x n at once (p <= 16), counted 8-fold to keep each in cache
    (blocks 8 times larger ran dilation-report 10% slower at 36% more RSS).  Any other p
    (odd, fractional, inf) takes the singular values, the reference route;
    for the root they are rescaled by their max before powering.  All scale
    by _pow2_scale first; a p not >= 1 (NaN too) raises ValueError.
    """
    if not p >= 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    mats = np.asarray(mats)
    if float(p).is_integer() and (p % 2 == 0 or psd):
        rule = _even_moment if p % 2 == 0 else _trace_power
        flat = mats.reshape((-1,) + mats.shape[-2:])
        scale, acc = np.empty((2, len(flat)))
        for lo, hi in blocks(len(flat), 32 * mats.shape[-1] ** 2):
            scale[lo:hi], acc[lo:hi] = rule(flat[lo:hi], int(p))
        scale, acc = scale.reshape(mats.shape[:-2]), acc.reshape(mats.shape[:-2])
        return scale * root(acc, p) if take_root else scale ** p * acc
    c, y = _pow2_scale(mats)
    s = np.linalg.svd(y, compute_uv=False)
    if not take_root:
        return np.mean((c[..., None] * s) ** p, axis=-1)
    smax = s[..., 0]
    if np.isinf(p):
        return c * smax
    acc = np.mean((s / np.where(smax > 0, smax, 1.0)[..., None]) ** p, axis=-1)
    return c * (smax * root(acc, p))     # c * smax alone can overflow where the norm does not


def _pow2_scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, x / c) per matrix of a (..., n, n) stack, c = 2^e at or below its largest |entry|:
    exact, since e >= -1022 keeps 1/c finite.  Non-finite input raises ValueError."""
    amax = np.abs(x).max(axis=(-2, -1))
    if not np.isfinite(amax).all():
        raise ValueError(_NOT_FINITE)
    e = np.maximum(np.frexp(amax)[1] - 1, -1022)
    return np.ldexp(1.0, e), x * np.ldexp(1.0, -e)[..., None, None]


def _even_moment(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, tau((Y* Y)^m)) per matrix of a (k, n, n) stack x, p = 2m, with (c, Y) = _pow2_scale(x).

    With H = Y* Y, tau(H^m) = (1/n) ||Z||_F^2 for Z = H^{m/2} (m even) or
    Z = Y H^{(m-1)/2} (m odd): a sum of squares, and Z = Y itself at p = 2.
    """
    c, y = _pow2_scale(x)
    m = p // 2
    z = y
    if m > 1:
        z = np.linalg.matrix_power(np.swapaxes(y.conj(), -1, -2) @ y, m // 2)
        if m % 2:
            z = y @ z
    sq = (z * z.conj()).real
    return c, sq.reshape(len(sq), -1).sum(axis=-1) / z.shape[-1]


def _trace_power(x: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, tau(Y^q)) per matrix of a PSD (k, n, n) stack x, q odd, with (c, Y) = _pow2_scale(x).

    q = 1 is the normalized trace; q = 2m + 1 is (1/n) Re sum conj(Z) o (Y Z)
    with Z = Y^m.  Y's entries are below 2 in modulus, so tau(Y^q) <= (2n)^q
    does not overflow.
    """
    c, y = _pow2_scale(x)
    n = y.shape[-1]
    if q == 1:
        return c, np.trace(y, axis1=-2, axis2=-1).real / n
    z = np.linalg.matrix_power(y, q // 2)
    return c, (z.conj() * (y @ z)).real.reshape(len(y), -1).sum(axis=-1) / n


def psd_scale(x: np.ndarray) -> float:
    """1 + max|x|: the scale of a PSD verdict on eigenvalues x, and of an input precheck on x."""
    return 1.0 + float(np.abs(x).max())


@dataclass(frozen=True)
class PsdVerdict:
    psd: bool
    min_eig: float


def psd_verdict(w: np.ndarray, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """The one PSD verdict, on ascending eigenvalues w: lambda_min >= -tol * psd_scale(w)."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return PsdVerdict(bool(w[0] >= -tol * psd_scale(w)), float(w[0]))


def blocks(count: int, per_item: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of at most max(1, BLOCK_ENTRIES // per_item) of count items,
    per_item counting the entries one item adds to all the arrays a block holds at once."""
    step = max(1, BLOCK_ENTRIES // max(1, per_item))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def block_map(fn, count: int, per_item: int) -> list:
    """[fn(lo, hi) for (lo, hi) in blocks(count, per_item)] on COCYCLE_LAB_THREADS threads (an
    integer >= 1, read on every call), in block order; one block runs inline, without a pool."""
    text = os.environ.get("COCYCLE_LAB_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"COCYCLE_LAB_THREADS must be an integer >= 1, got {text!r}")
    spans = blocks(count, per_item)
    if workers == 1 or len(spans) == 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda span: fn(*span), spans))
