"""Small shared numerical helpers: Schatten norms, the one PSD/tolerance rule, the one block
rule, and the one bad-input rule: require for a scalar, require_list and require_finite,
each naming the bad value or entry.

Schatten norms of (..., r, n) stacks, r >= n, take matrix products, tau((X* X)^{p/2}), at even
integer p and the singular values at any other: no caller can tell them that X is PSD.  A PSD
X has ||X||_q^q = tau(X^q), taken at integer q by _psd_moments alone, for the two callers that
hold a checked certificate: poincare_ratio under Semigroup.gamma_psd and martingale_transform,
whose b passed GromovForm.factor.  A product with rows x inner x columns <= SMALL_N^3 is
broadcast multiply-adds (_mul), whose bits are not the BLAS build's.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

HERMITIAN_PRECHECK = 1e-10
DEFAULT_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 21   # array entries one block may hold at once, summed over its arrays
# _mul's broadcast products take r m c <= SMALL_N^3 multiply-adds.  Their time over np.matmul
# on complex (k, n, n) stacks, one thread, k = 64...8192 (2-vCPU x86-64, AVX-512, numpy 2.4.6,
# OpenBLAS 0.3.31): 0.18-0.40 at n = 2, 0.48-0.96 at 3, 0.94-1.8 at 4 and 1.4-8.6 at
# n >= 5; 0.35-0.81 for 2 x 4 by 4 x 2 (16), 1.3-2.3 for 3 x 12 by 12 x 3 (108).
SMALL_N = 3
ECHO = 80                 # longest value text a rejection echoes in full


def schatten_norm(mat: np.ndarray, p: float):
    """((1/n) sum sigma_i^p)^{1/p} of a matrix, max sigma at p = inf: products at even p, singular
    values at any other.  A float for one matrix; an array for an (..., r, n) stack, r >= n."""
    out = _schatten(mat, p, take_root=True)
    return float(out) if np.ndim(out) == 0 else out


def root(x, k: float):
    """x^{1/k} elementwise by Python's scalar float power, so each value rounds as v ** (1/k).

    A negative entry, whose root that power makes complex, raises ValueError naming it
    (at k = 1 the root is v itself).

    np.power(x, 1/k) is consistent across stack lengths and strides, but it differs from
    the scalar ** in the last ulp for about 5% of values at k in {3, 4, 6, 16} and under
    0.1% at k = 2 (numpy 2.4.6, whose float64 power kernel is picked by CPU feature:
    X86_V4/AVX512 on the CPU measured).  Swapped in, np.power moved the walsh:2:3,
    wordlength:8 and walsh:3:2 sweep constants by up to 4e-11 relative with no speedup
    beyond noise, and it would tie report bits to the power kernel a CPU picks, so a report
    would not replay across machines.  Only fewer roots, not a vectorized one, save time.
    """
    x = np.asarray(x)
    flat = x.ravel().tolist()
    try:
        out = np.fromiter(map(pow, flat, itertools.repeat(1.0 / float(k))), float, len(flat))
    except TypeError:                   # pow made a complex root
        i = next(i for i, v in enumerate(flat) if v < 0)
        raise ValueError(f"root of order {k}: x{_index(np.unravel_index(i, x.shape))} = "
                         f"{flat[i]!r} is negative") from None
    return out.reshape(x.shape)


def schatten_pow_batch(mats: np.ndarray, p: float) -> np.ndarray:
    """tau|X|^p per matrix of an (..., r, n) batch at finite p, no root; as schatten_norm."""
    return _schatten(mats, p, take_root=False)


def _psd_moments(mats: np.ndarray, qs, take_root: bool = False) -> np.ndarray:
    """tau(X^q), or its root, per matrix of a PSD square stack at each integer q >= 1 of qs, [q,
    ...]: products off one finiteness check and _pow2_scale, at even q schatten_pow_batch's bit
    for bit.  A q that is no integer >= 1, a stack that is not square, and a matrix whose odd trace
    power is negative or whose diagonal has an entry below -DEFAULT_TOL times its scale (not PSD)
    raise ValueError."""
    for q in qs:
        require(q, "trace power q", lambda v: is_number(v) and v >= 1 and float(v) % 1 == 0,
                "an integer >= 1")
    if np.ndim(mats) < 2 or np.shape(mats)[-2] != np.shape(mats)[-1]:
        raise ValueError(f"trace power input has shape {np.shape(mats)}: not square")
    require_finite(mats := np.asarray(mats), "Schatten norm input")
    scale, acc = _moments(mats, qs)
    diag = np.diagonal(mats, 0, -2, -1).real
    neg = (diag < -DEFAULT_TOL * scale[..., None]).any(axis=-1)
    for q, a in zip(qs, acc):
        if q % 2 and (bad := neg | (a < 0)).any():
            at = tuple(np.argwhere(bad)[0])
            why = (f"its trace power tau(X^{int(q)}) is {float(a[at] * scale[at] ** q)!r}"
                   if a[at] < 0 else f"its least diagonal entry is {float(diag[at].min())!r}")
            raise ValueError(f"trace power input{_index(at)} is not PSD: {why} < 0")
    return np.stack([scale * root(a, q) if take_root else scale ** q * a for q, a in zip(qs, acc)])


def _schatten(mats: np.ndarray, p: float, take_root: bool):
    """tau(|X|^p) per matrix of an (..., r, n) stack, or its p-th root: the product/SVD rule.

    Even integer p >= 2 takes matrix products (_moments).  Any other p (odd, fractional, inf) takes
    the singular values, the reference route, for the root rescaled by their max before powering.
    All scale by _pow2_scale first; a p that is no number >= 1 (or inf with no root to take), a
    non-finite entry, an input with fewer than 2 axes or a wide stack (r < n) raises ValueError.
    """
    require(p, "Schatten p", lambda v: is_number(v) and v >= 1, "a number >= 1")
    require(p, "Schatten moment p", lambda v: take_root or v < np.inf, "finite")
    mats = np.asarray(mats)
    require_finite(mats, "Schatten norm input")
    if mats.ndim < 2:
        raise ValueError(f"Schatten norm input has shape {mats.shape}: not a matrix")
    if mats.shape[-2] < mats.shape[-1]:
        raise ValueError(f"Schatten norm input has {mats.shape[-2]} x {mats.shape[-1]} "
                         f"matrices: fewer rows than columns")
    if float(p) % 2 == 0:
        scale, (acc,) = _moments(mats, (p,))
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


def _moments(mats: np.ndarray, ps) -> tuple[np.ndarray, np.ndarray]:
    """(c, [tau(Y^p) at odd p, else tau((Y* Y)^{p/2}), per p of ps]) per matrix of a finite (..., r,
    n) stack X, (c, Y) = _pow2_scale(X), by _mul's products in blocks(count, 32 r n): up to 4 r x n
    stacks at once (p <= 16), counted 8-fold to keep each in cache (blocks 8 times larger ran
    dilation-report 10% slower at 36% more RSS)."""
    flat = mats.reshape((-1,) + mats.shape[-2:])
    scale, acc = np.empty(len(flat)), np.empty((len(ps), len(flat)))
    for lo, hi in blocks(len(flat), 32 * mats.shape[-2] * mats.shape[-1]):
        scale[lo:hi], y = _pow2_scale(flat[lo:hi])
        for a, p in zip(acc, ps):
            a[lo:hi] = (_odd_moment if p % 2 else _even_moment)(y, int(p))
    return scale.reshape(mats.shape[:-2]), acc.reshape((len(ps),) + mats.shape[:-2])


def _pow2_scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, x / c) per matrix of a (..., n, n) stack, c = 2^e at or below its largest |entry|:
    exact, since e >= -1022 keeps 1/c finite."""
    amax = np.abs(x).max(axis=(-2, -1))
    e = np.maximum(np.frexp(amax)[1] - 1, -1022)
    return np.ldexp(1.0, e), x * np.ldexp(1.0, -e)[..., None, None]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per matrix of (..., r, m), (..., m, c) stacks: at r m c <= SMALL_N^3 by broadcast
    multiply-adds in j order, whose bits do not depend on the stack; np.matmul beyond."""
    r, m = a.shape[-2:]
    if r * m * b.shape[-1] > SMALL_N ** 3:
        return a @ b
    out = a[..., :1] * b[..., None, 0, :]
    for j in range(1, m):
        out += a[..., j:j + 1] * b[..., None, j, :]
    return out


def _power(a: np.ndarray, q: int) -> np.ndarray:
    """a^q (q >= 1) per matrix of a (k, n, n) stack by _mul, multiplied in
    np.linalg.matrix_power's order: (a a) a at q = 3, else squarings from the lowest bit."""
    if q == 3:
        return _mul(_mul(a, a), a)
    z = out = None
    while q:
        z = a if z is None else _mul(z, z)
        q, bit = divmod(q, 2)
        if bit:
            out = z if out is None else _mul(out, z)
    return out


def _even_moment(y: np.ndarray, p: int) -> np.ndarray:
    """tau((Y* Y)^m) per matrix of a (k, r, n) stack y, p = 2m, scaled by _pow2_scale.

    With H = Y* Y, tau(H^m) = (1/n) ||Z||_F^2 for Z = H^{m/2} (m even) or
    Z = Y H^{(m-1)/2} (m odd): a sum of squares, and Z = Y itself at p = 2.
    """
    m = p // 2
    z = y
    if m > 1:
        z = _power(_mul(np.swapaxes(y.conj(), -1, -2), y), m // 2)
        if m % 2:
            z = _mul(y, z)
    sq = (z * z.conj()).real
    return sq.reshape(len(sq), -1).sum(axis=-1) / z.shape[-1]


def _odd_moment(y: np.ndarray, q: int) -> np.ndarray:
    """tau(Y^q) per matrix of a (k, n, n) stack y, q odd, scaled by _pow2_scale.

    q = 1 is the normalized trace; q = 2m + 1 is (1/n) Re sum conj(Z) o (Y Z)
    with Z = Y^m.  Y's entries are below 2 in modulus, so tau(Y^q) <= (2n)^q
    does not overflow.
    """
    n = y.shape[-1]
    if q == 1:
        return np.trace(y, axis1=-2, axis2=-1).real / n
    z = _power(y, q // 2)
    return (z.conj() * _mul(y, z)).real.reshape(len(y), -1).sum(axis=-1) / n


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
        raise ValueError(f"{name}{_index(at)} = {echo(str(np.asarray(x)[at]))} is not finite")


def _index(at) -> str:
    """An entry's index as a rejection shows it: (i,j,...), or nothing for a scalar."""
    return f"({','.join(map(str, at))})" if len(at) else ""


def blocks(count: int, per_item: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of at most max(1, BLOCK_ENTRIES // per_item) of count items,
    per_item counting the entries one item adds to all the arrays a block holds at once."""
    step = max(1, BLOCK_ENTRIES // max(1, per_item))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]

