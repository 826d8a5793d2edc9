"""Small shared numerical helpers: Schatten norms, Hermitian/PSD guards, threaded map."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

HERMITIAN_PRECHECK = 1e-10


def schatten_norm(mat: np.ndarray, p: float):
    """((1/n) sum sigma_i^p)^{1/p} of a matrix; max sigma for p = inf.

    A float for one matrix; an array for an (..., n, n) stack, which takes
    one SVD call.  Singular values are rescaled by their max before
    powering so large p neither overflows nor underflows.
    """
    if p < 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    s = np.linalg.svd(mat, compute_uv=False)
    smax = s[..., 0]
    if np.isinf(p):
        out = smax
    else:
        acc = np.mean((s / np.where(smax > 0, smax, 1.0)[..., None]) ** p, axis=-1)
        out = smax * root(acc, p)
    return float(out) if np.ndim(out) == 0 else out


def root(x, k: float):
    """x^{1/k} elementwise by Python float power, so a stack rounds as its values do one by one.

    numpy's vectorized power can differ from the scalar one in the last ulp.
    """
    return np.array([v ** (1.0 / k) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def schatten_pow_batch(mats: np.ndarray, p: float) -> np.ndarray:
    """(1/n) sum sigma_i^p per matrix in a (..., n, n) batch (no root taken)."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.mean(s ** p, axis=-1)


def hermitize(M: np.ndarray, tol: float = HERMITIAN_PRECHECK) -> np.ndarray:
    """Symmetrize after checking the input is Hermitian to within tol."""
    dev = np.abs(M - M.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e} (tol {tol:.0e})")
    return 0.5 * (M + M.conj().T)


def psd_scale(w: np.ndarray) -> float:
    """1 + max(|lambda_min|, |lambda_max|) of ascending eigenvalues: the scale of PSD tests."""
    return 1.0 + max(abs(w[0]), abs(w[-1]))


def thread_map(fn, items) -> list:
    """[fn(item) for item in items] on COCYCLE_LAB_THREADS (an integer >= 1) threads.

    Results keep the input order, so they do not depend on the thread count.
    """
    text = os.environ.get("COCYCLE_LAB_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"COCYCLE_LAB_THREADS must be an integer >= 1, got {text!r}")
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))
