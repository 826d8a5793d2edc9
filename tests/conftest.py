import numpy as np
import pytest

from cocycle_lab import rng as clrng


def rand_coeffs(order: int, index: int, seed: int = 0) -> np.ndarray:
    """Deterministic complex coefficient vector on the unit sphere."""
    st = clrng.stream(seed, clrng.TAG_BATTERY, index)
    c = st.standard_normal(order) + 1j * st.standard_normal(order)
    return c / np.linalg.norm(c)


def associativity_failure(mul: np.ndarray):
    """The first triple (i, j, k) with (i*j)*k != i*(j*k), or None: all order**3 triples.

    The reference route for groups.validate_group, which checks a generating set only.
    """
    for i in range(len(mul)):
        lhs = mul[mul[i], :]       # (i*j)*k over j,k
        rhs = mul[i][mul]          # i*(j*k)
        if not np.array_equal(lhs, rhs):
            j, k = np.argwhere(lhs != rhs)[0]
            return i, int(j), int(k)
    return None


def rand_matrix(n: int, index: int, seed: int = 0, unit: bool = True) -> np.ndarray:
    """Deterministic complex n x n matrix, scaled to unit Frobenius norm unless unit=False."""
    st = clrng.stream(seed, clrng.TAG_BATTERY, index)
    x = st.standard_normal((n, n)) + 1j * st.standard_normal((n, n))
    return x / np.linalg.norm(x) if unit else x


def svd_schatten(mats: np.ndarray, p: float) -> np.ndarray:
    """Reference ((1/n) sum sigma_i^p)^{1/p} per matrix, straight from np.linalg.svd."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.mean(s ** p, axis=-1) ** (1.0 / p)


# bracket SEs of a walsh:2:2 dilation report: there S_c and S_r have the same spectrum
# on every path, so the per-sample spread behind these SEs is rounding noise
ROUNDING_NOISE = (("hc", "se"), ("hr", "se"), ("bracket_bound", "se"))
# even-p norms come from matrix products, not singular values, so a pinned float
# may move in its last ulps (observed <= 2.1e-15 relative); the MC windows are ~1e-2
PIN_RTOL = 1e-12


def assert_report_pinned(report: dict, pinned: dict) -> None:
    """report equals pinned: floats to PIN_RTOL relative, ROUNDING_NOISE fields to
    absolute 1e-15, everything else exactly."""
    assert report.keys() == pinned.keys()
    for key, want in pinned.items():
        got = report[key]
        if isinstance(want, dict):
            assert got.keys() == want.keys(), key
            for name, w in want.items():
                if (key, name) in ROUNDING_NOISE:
                    assert abs(got[name] - w) <= 1e-15, (key, name)
                else:
                    assert _pinned_equal(got[name], w), (key, name, got[name], w)
        else:
            assert _pinned_equal(got, want), (key, got, want)


def _pinned_equal(got, want) -> bool:
    if isinstance(want, float):
        return abs(got - want) <= PIN_RTOL * abs(want)
    return got == want


def captured_objective(monkeypatch, run):
    """The batched objective that run() hands to poincare.maximize_on_sphere, which is not run."""
    from cocycle_lab import poincare
    seen = {}

    def capture(fun, dim, *args):
        seen["fun"] = fun
        return 0.0, np.ones(dim), 0.0

    monkeypatch.setattr(poincare, "maximize_on_sphere", capture)
    run()
    return seen["fun"]


def pytest_runtest_logreport(report):
    # live one-line verdict per acceptance criterion, independent of capture
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n{name}: {'PASS' if report.passed else 'FAIL'}", flush=True)
