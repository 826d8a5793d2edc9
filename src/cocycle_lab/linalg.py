"""Small shared numerical helpers: Schatten norms, the one PSD/tolerance rule, the one block
rule, and the one bad-input rule: require for a scalar, require_list and require_finite,
each naming the bad value or entry.

Schatten norms at even integer p use matrix products only, and so does odd
integer p on a stack the caller certifies PSD (psd=True): there
||X||_p^p = tau(X^p), a trace read at p = 1 and a product beyond.  Every
other p, and odd p without the flag, takes the singular values, the reference route.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

HERMITIAN_PRECHECK = 1e-10
DEFAULT_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 21   # array entries one block may hold at once, summed over its arrays
ECHO = 80                 # longest value text a rejection echoes in full


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
    X86_V4/AVX512 on the CPU measured).  Swapped in, np.power moved the walsh:2:3,
    wordlength:8 and walsh:3:2 sweep constants by up to 4e-11 relative with no speedup
    beyond noise, and it would tie report bits to the power kernel a CPU picks, so a report
    would not replay across machines.  Only fewer roots, not a vectorized one, save time.
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
    by _pow2_scale first; a p that is no number >= 1, or a non-finite entry, raises ValueError.
    """
    require(p, "Schatten p", lambda v: is_number(v) and v >= 1, "a number >= 1")
    mats = np.asarray(mats)
    require_finite(mats, "Schatten norm input")
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
    exact, since e >= -1022 keeps 1/c finite."""
    amax = np.abs(x).max(axis=(-2, -1))
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
    require(tol, "tol", lambda v: is_number(v) and 0 <= v < np.inf, "a finite number >= 0")
    return PsdVerdict(bool(w[0] >= -tol * psd_scale(w)), float(w[0]))


def echo(text: str) -> str:
    """text as a rejection shows it: whole up to ECHO characters, else cut to end in '...'."""
    return text if len(text) <= ECHO else text[:ECHO - 3] + "..."


def _shown(value) -> str:
    """value as a rejection shows it: its JSON, a numpy scalar as its Python value and anything
    else JSON lacks as its repr, through echo."""
    plain = lambda v: v.item() if isinstance(v, np.generic) else repr(v)
    return echo(json.dumps(value, default=plain))


def is_number(v) -> bool:
    """v is a real number a float holds: not a bool (which Python counts as an int),
    a string, None or an int too large for a float."""
    if isinstance(v, bool) or not isinstance(v, Real):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def is_integer(v) -> bool:
    """v is a Python or numpy integer, not a bool (which Python counts as an int)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def require(value, name: str, ok, what: str):
    """value, if ok(value); else ValueError name = <value> is not <what>, the value shown as
    require_list shows an entry.  The one rule for a scalar argument's type and range."""
    if not ok(value):
        raise ValueError(f"{name} = {_shown(value)} is not {what}")
    return value


def require_list(value, name: str, ok, what: str, size: int | None = None) -> list:
    """value, a JSON list (of size entries, when given) whose entries all pass ok; else ValueError
    name = <value> is not a list [of length size], or name[i] = <entry> is not <what> for the
    first bad entry.  ok may walk an entry by require_list(entry, "", ...), prefixed name[i]."""
    of = "" if size is None else f" of length {size}"
    require(value, name, lambda v: isinstance(v, list) and (size is None or len(v) == size),
            f"a list{of}")
    for i, v in enumerate(value):
        try:
            if ok(v):
                continue
        except ValueError as exc:       # a nested walk, named from its entry on
            raise ValueError(f"{name}[{i}]{exc}") from None
        raise ValueError(f"{name}[{i}] = {_shown(v)} is not {what}")
    return value


def require_finite(x, name: str) -> None:
    """ValueError naming the first non-finite entry of x: name(i,...) = <value> is not finite,
    or name = <value> for a scalar.  A finite x costs one np.isfinite(x).all()."""
    if not np.isfinite(x).all():
        at = tuple(np.argwhere(~np.isfinite(x))[0])
        index = f"({','.join(map(str, at))})" if at else ""
        raise ValueError(f"{name}{index} = {echo(str(np.asarray(x)[at]))} is not finite")


def blocks(count: int, per_item: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of at most max(1, BLOCK_ENTRIES // per_item) of count items,
    per_item counting the entries one item adds to all the arrays a block holds at once."""
    step = max(1, BLOCK_ENTRIES // max(1, per_item))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]

