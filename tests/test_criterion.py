from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cocycle_lab.algebra import Semigroup, delta
from cocycle_lab.cli import _gallery_entries
from cocycle_lab.cocycles import (CocycleRealization, LengthFunction, coordinate_length,
                                  gromov_form, is_conditionally_negative, length_function,
                                  realize_cocycle, word_length_psi)
from cocycle_lab.criterion import (best_alpha_bisection, best_alpha_pencil,
                                   check_element)
from cocycle_lab.families import builtin_length, delta_psi
from cocycle_lab.groups import build_cyclic, build_power
from cocycle_lab.linalg import psd_scale

GALLERY_ALPHA = [sub["psi"]["builtin"] for _, command, sub in _gallery_entries(0)
                 if command == "alpha"]
LARGE = ["walsh:2:8", "wordlength:256", "heisenberg-wordlength:7"]    # orders 256, 256, 343
COMPRESSED = ["walsh:3:5", "heisenberg-delta:7"]     # orders 243, 343; m = 65 and 90


def reference_dinkelbach(K):
    """Dinkelbach's iteration on the uncompressed |G| x |G| matrices K o K and K: the route
    independent of the span pair, reading of K's spectrum only the rank cut.  Same start
    and stopping rule as best_alpha_bisection, with rounding level n eps at order n."""
    cut = K.factor[0]
    M = K.K
    Q = M * M
    psi = np.diag(M)
    alpha = float(psi[psi > cut].min(initial=psi.max()))
    rounding = len(M) * np.finfo(float).eps
    while True:
        w, V = np.linalg.eigh(Q - alpha * M)
        v = V[:, 0]
        mass = v @ M @ v
        if w[0] >= -rounding * max(abs(w[0]), abs(w[-1])) or mass <= cut:
            return alpha
        quotient = float(v @ Q @ v / mass)
        if not quotient < alpha:
            return alpha
        alpha = quotient


def assert_solvers_match_reference(K):
    star = reference_dinkelbach(gromov_form(replace(K.psi, cocycle=None)))   # without the cocycle
    for cert in (best_alpha_pencil(K), best_alpha_bisection(K)):
        assert cert.alpha_star >= 0
        assert abs(cert.alpha_star - star) <= 1e-12 * (1 + abs(star)), cert.method


def assert_span_holds_both_operators(K):
    """ran K and ran(K o K) lie in ran P to 1e-12 of each operator's scale."""
    _, _, P = K.span_pair
    assert P is not None
    assert np.allclose(P.T @ P, np.eye(P.shape[1]), rtol=0, atol=1e-12)
    for A in (K.K, K.K * K.K):
        off = A - P @ (P.T @ A)
        assert np.linalg.norm(off, 2) <= 1e-12 * psd_scale(A)


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
    """The witness is a unit vector of R^G, P v on a compressed pair (heisenberg-wordlength:7,
    m = 90 < 343), and its Rayleigh quotient on the full K o K - alpha* K is the residual."""
    for psi in (word_length_psi(6), builtin_length("heisenberg-wordlength:7")):
        K = gromov_form(psi)
        M = 0.5 * (K.K + K.K.T)
        Q = M * M
        for cert in (best_alpha_pencil(K), best_alpha_bisection(K)):
            assert cert.method in ("pencil", "bisection-fallback", "bisection")
            assert cert.witness.shape == (K.group.order,)
            assert np.linalg.norm(cert.witness) == pytest.approx(1.0)
            rayleigh = cert.witness @ (Q - cert.alpha_star * M) @ cert.witness
            assert abs(rayleigh - cert.residual) < 1e-9
            with pytest.raises(ValueError):
                cert.witness[0] = 5.0   # frozen


def test_pencil_falls_back_to_bisection_when_the_kernel_couples(monkeypatch):
    """Q_kk's spectrum zeroed leaves Q_rk unexplained, as a kernel direction that couples to
    the range outside ran(Q_kk) would: the pencil hands the kernel to bisection whole."""
    K = gromov_form(word_length_psi(4))
    kernel = int((K.spectrum[0] <= K.factor[0]).sum())
    assert kernel and K.span_pair[2] is None        # wordlength:4 has a kernel, m >= |G|
    want = best_alpha_bisection(K)
    eigh = np.linalg.eigh

    def zeroed(a, *rest, **kw):
        w, V = eigh(a, *rest, **kw)
        return (np.zeros_like(w) if len(a) == kernel else w), V
    monkeypatch.setattr(np.linalg, "eigh", zeroed)
    cert = best_alpha_pencil(K)
    assert cert.method == "bisection-fallback"
    assert cert.alpha_star == want.alpha_star and cert.residual == want.residual
    assert np.array_equal(cert.witness, want.witness)


def test_pencil_drops_a_rounding_level_kernel_block():
    """On Z_3 x Z_3 with psi = 2.23 delta(x), ran(K o K) lies in ran K, so Q_kk is rounding
    noise through and through: a cut relative to Q_kk's own norm inverts that noise (alpha*
    read -68.6 so), the cut at the coupling scale drops it.  alpha* = (n+2)/(2n) * 2.23."""
    group = build_power(3, 2)
    K = gromov_form(length_function(group, 2.23 * coordinate_length(group, (3, 3), (0,),
                                                                     "delta").values))
    for cert in (best_alpha_pencil(K), best_alpha_bisection(K)):
        assert cert.alpha_star == pytest.approx(5 / 6 * 2.23, rel=1e-12)


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
    """best_alpha_bisection(K), its alphas replayed on the pair (Q, M) = K.span_pair: the start
    min{psi > cut} (else max psi), then each Rayleigh quotient of the previous least
    eigenvector.  Every solve must be at exactly Q - alpha M for the next alpha in that
    sequence, and every alpha must be an upper bound on the pencil's alpha* = star, falling
    strictly.  Every solve but the last must find lambda_min below rounding level: past
    that, the least eigenvector is noise."""
    Q, M, _ = K.span_pair
    tol = 1e-12 * (1 + star)
    psi = np.diag(K.K)
    above = psi[psi > K.factor[0]]
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


@pytest.mark.parametrize("name", GALLERY_ALPHA + LARGE + COMPRESSED)
def test_both_solvers_match_the_uncompressed_reference(name):
    """Both solvers lie within 1e-12 (1 + alpha*) of Dinkelbach on the uncompressed K o K
    and K, on the B route.  On the larger families but wordlength:256 the pair is
    compressed, read off R = P^T [B, C], and P holds ran K and ran(K o K)."""
    K = gromov_form(builtin_length(name))
    assert K.psi.cocycle is not None
    assert_solvers_match_reference(K)
    if name in LARGE + COMPRESSED and name != "wordlength:256":
        assert K.span_pair[2] is not None
        assert_span_holds_both_operators(K)


def test_a_pair_as_large_as_the_group_is_k_itself():
    """m = d(d+3)/2 >= |G| (wordlength:256, d = 128) or d = 0 leaves K uncompressed."""
    for K in (gromov_form(builtin_length("wordlength:256")),
              gromov_form(length_function(build_cyclic(3), np.zeros(3)))):
        Q, M, P = K.span_pair
        assert P is None and M is K.K and np.array_equal(Q, K.K * K.K)
        assert not Q.flags.writeable
    K = gromov_form(builtin_length("heisenberg-wordlength:7"))
    Q, M, P = K.span_pair
    assert P.shape == (343, 90) and Q.shape == M.shape == (90, 90)
    assert not (Q.flags.writeable or M.flags.writeable or P.flags.writeable)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), coeffs=st.lists(st.just(0.0) | st.floats(0.1, 3.0),
                                            min_size=4, max_size=4))
@example(n=2, coeffs=[0.0, 0.0, 0.0, 1.0])
def test_compressed_solvers_on_conic_combinations_over_z_n_squared_hypothesis(n, coeffs):
    """psi = a delta(x) + b |x| + c delta(y) + e |y| on Z_n x Z_n, where the pair is
    compressed (m < n^2): both solvers lie at the uncompressed reference, and P holds
    ran K and ran(K o K).  The example |y| on Z_2^2 is where a B-less pair read off the
    QR factor R instead of P^T K P misses the reference by 6.5e-12."""
    group = build_power(n, 2)
    values = sum(c * coordinate_length(group, (n, n), (axis,), mode).values
                 for c, (axis, mode) in zip(coeffs, [(0, "delta"), (0, "wordlength"),
                                                     (1, "delta"), (1, "wordlength")]))
    K = gromov_form(length_function(group, values))
    assume(K.span_pair[2] is not None)
    assert_span_holds_both_operators(K)
    assert_solvers_match_reference(K)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), s=st.just(0.0) | st.floats(0.1, 3.0),
       t=st.just(0.0) | st.floats(0.1, 3.0))
def test_dinkelbach_iterates_on_conic_combinations_hypothesis(n, s, t):
    K = gromov_form(length_function(build_cyclic(n),
                                    s * delta_psi(n).values + t * word_length_psi(n).values))
    star = best_alpha_pencil(K).alpha_star
    assert abs(_dinkelbach_iterates(K, star).alpha_star - star) <= 1e-12 * (1 + star)


SCALED_BUILTINS = ["walsh:2:3", "walsh:3:2", "walsh:4:1", "delta:5", "delta:8", "wordlength:4",
                   "wordlength:5", "wordlength:8", "heisenberg-delta:2", "heisenberg-delta:3",
                   "heisenberg-wordlength:3"]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SCALED_BUILTINS),
       c=st.sampled_from([0.37, 3.0, 1e3]) | st.floats(1e-3, 1e3))
def test_alpha_is_at_most_the_least_psi_and_one_homogeneous_hypothesis(spec, c):
    """alpha* <= lambda_1 = min{psi > 0}, as the eigenvector lambda(g) of the generator binds
    alpha <= psi(g), and alpha*(c psi) = c alpha*(psi): for each solver on c psi with the
    closed-form cocycle sqrt(c) B and on c psi without a cocycle, whose factor is K's own."""
    psi = builtin_length(spec)
    lam1 = psi.values[psi.values > 0].min()
    scaled = (LengthFunction(psi.group, c * psi.values,
                             CocycleRealization(psi.group, np.sqrt(c) * psi.cocycle.vectors)),
              length_function(psi.group, c * psi.values))
    for solver in (best_alpha_pencil, best_alpha_bisection):
        star = solver(gromov_form(psi)).alpha_star
        assert 0 < star <= lam1 * (1 + 1e-12)
        for q in scaled:
            got = solver(gromov_form(q)).alpha_star
            assert got <= c * lam1 * (1 + 1e-12), (solver.__name__, q.cocycle is None)
            assert abs(got - c * star) <= 1e-12 * c * star, (solver.__name__, q.cocycle is None)


def test_bisection_exact_on_wordlength_256():
    # even word length on Z_n has alpha* = 1
    assert abs(best_alpha_bisection(gromov_form(builtin_length("wordlength:256"))).alpha_star
               - 1.0) <= 1e-12


@pytest.mark.parametrize("name", GALLERY_ALPHA + LARGE)
def test_bisection_eigensolve_count(name, monkeypatch):
    K = gromov_form(builtin_length(name))
    K.factor            # the rank cut, off B's Gram, is not counted
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
    """K's spectrum is computed once per form, by whichever reads it first.  On walsh:2:8 and
    heisenberg-wordlength:7 neither solver nor the CN test solves an n x n eigenproblem:
    they read the cocycle B and its m x m pair, and K's spectrum is realize's alone.  On
    wordlength:256 (m >= n) the pair is K itself.  realize keeps K's eigenbasis: its vectors
    are those of the same K without B."""
    psi = builtin_length(name)
    K = gromov_form(psi)
    n = K.group.order
    solves = []     # per eigensolve: (is its input K.K, is it n x n)

    def counted(solver):
        def call(a, *rest, **kw):
            solves.append((a is K.K, np.shape(a) == (n, n)))
            return solver(a, *rest, **kw)
        return call
    for module, fn in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
    assert is_conditionally_negative(psi, tol=0.0).min_eig == 0.0
    K._psd_test()
    best_alpha_pencil(K)
    in_pencil = len(solves)
    best_alpha_bisection(K)         # Dinkelbach's own n x n solves are not K's spectrum
    before_realize = len(solves)
    pinv = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **kw: pinv.append(1))
    real = realize_cocycle(K)
    assert sum(of_K for of_K, _ in solves) == 1
    assert not pinv
    if name == "wordlength:256":
        assert K.span_pair[2] is None
        outside = solves[:in_pencil] + solves[before_realize:]
        assert sum(full for _, full in outside) <= 2    # K's spectrum, the pencil's certificate
    else:
        assert K.span_pair[2] is not None
        assert not any(full for _, full in solves[:before_realize])
        assert solves[before_realize:] == [(True, True)]
    monkeypatch.undo()
    assert np.array_equal(real.vectors,
                          realize_cocycle(gromov_form(replace(psi, cocycle=None))).vectors)


def test_non_psd_kernel_rejected():
    g = build_cyclic(4)
    psi = length_function(g, [0.0, 1.0, 3.0, 1.0])  # symmetric but not cn
    K = gromov_form(psi)
    with pytest.raises(ValueError, match="not PSD"):
        best_alpha_pencil(K)
    with pytest.raises(ValueError, match="not PSD"):
        best_alpha_bisection(K)
