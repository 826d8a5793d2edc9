import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab.algebra import Semigroup, delta
from cocycle_lab.cli import _gallery_entries
from cocycle_lab.cocycles import GromovForm, gromov_form, length_function, realize_cocycle, word_length_psi
from cocycle_lab.criterion import (best_alpha_bisection, best_alpha_pencil,
                                   check_element)
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic

GALLERY_ALPHA = [sub["psi"]["builtin"] for _, command, sub in _gallery_entries(0)
                 if command == "alpha"]
LARGE = ["walsh:2:8", "wordlength:256", "heisenberg-wordlength:7"]    # orders 256, 256, 343


def test_delta_family_closed_form():
    # best constant for the 0/1 length on Z_n is (n+2)/(2n)
    for n in range(2, 9):
        K = gromov_form(delta_psi(n))
        want = (n + 2) / (2 * n)
        assert abs(best_alpha_pencil(K).alpha_star - want) < 1e-8
        assert abs(best_alpha_bisection(K).alpha_star - want) < 1e-8


def test_word_length_alpha_is_one():
    for n in (4, 6, 8):
        K = gromov_form(word_length_psi(n))
        assert abs(best_alpha_pencil(K).alpha_star - 1.0) < 1e-8


def test_rank_one_kernel_exact():
    g = build_cyclic(2)
    K = gromov_form(length_function(g, [0.0, 2.0]))
    # K = diag(0, 2), K o K = diag(0, 4): alpha* = 2 exactly
    cert = best_alpha_pencil(K)
    assert cert.method == "pencil"
    assert cert.alpha_star == pytest.approx(2.0, abs=1e-12)
    assert abs(best_alpha_bisection(K).alpha_star - 2.0) < 1e-9


def test_heisenberg_methods_agree():
    from cocycle_lab.families import heisenberg_delta
    K = gromov_form(heisenberg_delta(2))
    a = best_alpha_pencil(K)
    b = best_alpha_bisection(K)
    assert abs(a.alpha_star - b.alpha_star) < 1e-8
    assert a.alpha_star > 0


def test_certificate_contents():
    K = gromov_form(word_length_psi(6))
    M = 0.5 * (K.K + K.K.T)
    Q = M * M
    for cert in (best_alpha_pencil(K), best_alpha_bisection(K)):
        assert cert.method in ("pencil", "bisection-fallback", "bisection")
        assert np.linalg.norm(cert.witness) == pytest.approx(1.0)
        rayleigh = cert.witness @ (Q - cert.alpha_star * M) @ cert.witness
        assert abs(rayleigh - cert.residual) < 1e-9
        with pytest.raises(ValueError):
            cert.witness[0] = 5.0   # frozen


def test_pencil_without_a_kernel():
    """A nonsingular K, built directly, leaves the pencil S = Q_rr: with K = I,
    K o K - alpha K = (1 - alpha) I, so both solvers give alpha* = 1."""
    K = GromovForm(build_cyclic(2), np.eye(2))
    assert best_alpha_pencil(K).alpha_star == 1.0
    assert best_alpha_bisection(K).alpha_star == 1.0


def test_pencil_falls_back_to_bisection_when_the_kernel_couples(monkeypatch):
    """A zero pseudo-inverse of Q_kk leaves Q_rk unexplained, as a kernel direction that couples
    to the range outside ran(Q_kk) would: the pencil hands the kernel to bisection whole."""
    K = gromov_form(word_length_psi(4))
    assert (K.spectrum[0] <= K._rank_cut()).any()          # wordlength:4 has a kernel
    want = best_alpha_bisection(K)
    monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: np.zeros_like(a))
    cert = best_alpha_pencil(K)
    assert cert.method == "bisection-fallback"
    assert cert.alpha_star == want.alpha_star and cert.residual == want.residual
    assert np.array_equal(cert.witness, want.witness)


def test_check_element_oracle():
    sg = Semigroup(word_length_psi(4))
    f = delta(sg.group, 1)
    # Gamma_2 - alpha Gamma on lambda(1) is (psi(1)^2 - alpha psi(1)) lambda(e)
    rep = check_element(sg, f, 1.2)
    assert not rep.psd
    assert abs(rep.min_eig - (-0.2)) < 1e-12
    assert check_element(sg, f, 1.0).psd
    with pytest.raises(ValueError, match=">= 0"):
        check_element(sg, f, -0.5)


def test_check_element_rejects_a_non_finite_alpha():
    sg = Semigroup(word_length_psi(4))
    for alpha, shown in ((np.nan, "NaN"), (np.inf, "Infinity")):
        with pytest.raises(ValueError, match=f"^alpha = {shown} is not a finite number >= 0$"):
            check_element(sg, delta(sg.group, 1), alpha)


def test_random_conic_combinations_maximality():
    w = word_length_psi(6)
    d = delta_psi(6)
    rng = np.random.default_rng(42)
    for _ in range(20):
        s, t = rng.uniform(0.1, 3.0, size=2)
        psi = length_function(w.group, s * d.values + t * w.values)
        K = gromov_form(psi)
        M = 0.5 * (K.K + K.K.T)
        Q = M * M
        scale = 1.0 + np.linalg.norm(Q, 2)
        for cert in (best_alpha_pencil(K), best_alpha_bisection(K)):
            # feasible at alpha*, infeasible once pushed past it
            assert np.linalg.eigvalsh(Q - cert.alpha_star * M)[0] >= -1e-8 * scale
            assert np.linalg.eigvalsh(Q - (cert.alpha_star + 1e-4) * M)[0] < 0


def _dinkelbach_iterates(K, star):
    """best_alpha_bisection(K), its alphas replayed: the start min{psi > cut} (else max psi),
    then each Rayleigh quotient of the previous least eigenvector.  Every solve must be at
    exactly Q - alpha K for the next alpha in that sequence, and every alpha must be an
    upper bound on the pencil's alpha* = star, falling strictly.  Every solve but the last
    must find lambda_min below rounding level: past that, the least eigenvector is noise."""
    M = K.K
    Q = M * M
    tol = 1e-12 * (1 + star)
    psi = np.diag(M)
    above = psi[psi > K._rank_cut()]
    alphas = [float(above.min() if above.size else psi.max())]
    assert alphas[0] >= star - tol
    rounding = []
    eigh = np.linalg.eigh

    def replayed(A):
        assert np.array_equal(A, Q - alphas[-1] * M)
        w, V = eigh(A)
        rounding.append(w[0] >= -len(A) * np.finfo(float).eps * np.abs(w).max())
        v = V[:, 0]
        with np.errstate(invalid="ignore"):     # 0/0 at psi = 0, where the route stops
            alphas.append(float(v @ Q @ v / (v @ M @ v)))
        return w, V
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", replayed)
        cert = best_alpha_bisection(K)
    solved = alphas[:-1]        # the last quotient is never solved at
    assert solved and cert.alpha_star == solved[-1]
    assert all(alpha >= star - tol for alpha in solved)
    assert all(b < a for a, b in zip(solved, solved[1:]))
    assert not any(rounding[:-1])
    return cert


@pytest.mark.parametrize("name", GALLERY_ALPHA + LARGE)
def test_bisection_matches_pencil(name):
    K = gromov_form(builtin_length(name))
    a = best_alpha_pencil(K)
    b = _dinkelbach_iterates(K, a.alpha_star)
    assert a.method == "pencil" and b.method == "bisection"
    assert abs(a.alpha_star - b.alpha_star) <= 1e-12 * (1 + a.alpha_star)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), s=st.just(0.0) | st.floats(0.1, 3.0),
       t=st.just(0.0) | st.floats(0.1, 3.0))
def test_dinkelbach_iterates_on_conic_combinations_hypothesis(n, s, t):
    K = gromov_form(length_function(build_cyclic(n),
                                    s * delta_psi(n).values + t * word_length_psi(n).values))
    star = best_alpha_pencil(K).alpha_star
    assert abs(_dinkelbach_iterates(K, star).alpha_star - star) <= 1e-12 * (1 + star)


def test_bisection_exact_on_wordlength_256():
    # even word length on Z_n has alpha* = 1
    assert abs(best_alpha_bisection(gromov_form(builtin_length("wordlength:256"))).alpha_star
               - 1.0) <= 1e-12


@pytest.mark.parametrize("name", GALLERY_ALPHA + LARGE)
def test_bisection_eigensolve_count(name, monkeypatch):
    K = gromov_form(builtin_length(name))
    K._rank_cut()       # K.spectrum, which the PSD test and the rank cut read, is not counted
    calls = []
    for module, fn in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
        solver = getattr(module, fn)
        monkeypatch.setattr(module, fn,
                            lambda *a, _solver=solver, **kw: calls.append(1) or _solver(*a, **kw))
    best_alpha_bisection(K)
    # the diagonal start min psi is alpha* itself on walsh:2:8 and wordlength:256
    exact = {"walsh:2:8": 1, "wordlength:256": 1, "heisenberg-wordlength:7": 5}
    assert len(calls) == exact[name] if name in exact else len(calls) <= 8


@pytest.mark.parametrize("name", LARGE)
def test_one_gromov_spectrum_serves_both_solvers_and_realize(name, monkeypatch):
    K = gromov_form(builtin_length(name))
    n = K.group.order
    solves = []     # per numpy eigensolve: (is its input K.K, is it n x n)

    def counted(solver):
        def call(a, *rest, **kw):
            solves.append((a is K.K, np.shape(a) == (n, n)))
            return solver(a, *rest, **kw)
        return call
    for fn in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, fn, counted(getattr(np.linalg, fn)))
    best_alpha_pencil(K)
    in_pencil = len(solves)
    best_alpha_bisection(K)         # Dinkelbach's own n x n solves are not K's spectrum
    in_bisection = len(solves) - in_pencil
    pinv = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **kw: pinv.append(1))
    realize_cocycle(K)
    assert sum(of_K for of_K, _ in solves) == 1
    outside = solves[:in_pencil] + solves[in_pencil + in_bisection:]
    assert sum(full for _, full in outside) <= 2    # K's spectrum and the pencil's certificate
    assert not pinv


def test_non_psd_kernel_rejected():
    g = build_cyclic(4)
    psi = length_function(g, [0.0, 1.0, 3.0, 1.0])  # symmetric but not cn
    K = gromov_form(psi)
    with pytest.raises(ValueError, match="not PSD"):
        best_alpha_pencil(K)
    with pytest.raises(ValueError, match="not PSD"):
        best_alpha_bisection(K)
