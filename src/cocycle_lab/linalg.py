"""Small shared numerical helpers: Schatten norms, Hermitian/PSD guards, threaded map."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

HERMITIAN_PRECHECK = 1e-10


def schatten_norm(mat: np.ndarray, p: float, normalized: bool = True) -> float:
    """((1/n) sum sigma_i^p)^{1/p} of a single matrix; max sigma for p = inf.

    Singular values are rescaled by their max before powering so large p
    neither overflows nor underflows.
    """
    if p < 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    s = np.linalg.svd(mat, compute_uv=False)
    if np.isinf(p):
        return float(s[0])
    smax = float(s[0])
    if smax == 0.0:
        return 0.0
    acc = np.mean((s / smax) ** p) if normalized else np.sum((s / smax) ** p)
    return smax * float(acc) ** (1.0 / p)


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
