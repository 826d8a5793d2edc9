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


# bracket SEs of a walsh:2:2 dilation report: there S_c and S_r have the same spectrum
# on every path, so the per-sample spread behind these SEs is rounding noise
ROUNDING_NOISE = (("hc", "se"), ("hr", "se"), ("bracket_bound", "se"))


def assert_report_pinned(report: dict, pinned: dict) -> None:
    """report equals pinned exactly, apart from ROUNDING_NOISE fields (absolute 1e-15)."""
    for key, name in ROUNDING_NOISE:
        assert abs(report[key][name] - pinned[key][name]) <= 1e-15, (key, name)

    def exact(rep):
        return {k: {n: v for n, v in val.items() if (k, n) not in ROUNDING_NOISE}
                if isinstance(val, dict) else val for k, val in rep.items()}

    assert exact(report) == exact(pinned)


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
