import numpy as np
import pytest

from cocycle_lab import rng as clrng


def rand_coeffs(order: int, index: int, seed: int = 0) -> np.ndarray:
    """Deterministic complex coefficient vector on the unit sphere."""
    st = clrng.stream(seed, clrng.TAG_BATTERY, index)
    c = st.standard_normal(order) + 1j * st.standard_normal(order)
    return c / np.linalg.norm(c)


def rand_matrix(n: int, index: int, seed: int = 0, unit: bool = True) -> np.ndarray:
    """Deterministic complex n x n matrix, scaled to unit Frobenius norm unless unit=False."""
    st = clrng.stream(seed, clrng.TAG_BATTERY, index)
    x = st.standard_normal((n, n)) + 1j * st.standard_normal((n, n))
    return x / np.linalg.norm(x) if unit else x


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
