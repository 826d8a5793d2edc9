import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import cocycles
from cocycle_lab.cli import _gallery_entries
from cocycle_lab.cocycles import (CocycleRealization, GromovForm, LengthFunction,
                                  _cyclic_cocycle, gromov_form,
                                  is_conditionally_negative, length_function, realize_cocycle,
                                  verify_schur_identity, word_length_cocycle,
                                  word_length_psi)
from cocycle_lab.families import builtin_length, delta_psi, heisenberg_delta, walsh_length
from cocycle_lab.groups import ORDER_CAP, SizeCapError, build_cyclic
from cocycle_lab.linalg import PsdVerdict, psd_scale

# every builtin family at the sizes the tests run it: the gallery's alpha families (walsh n <= 4,
# m <= 3, both Heisenberg modes n <= 4, wordlength 4..16), then the rest, up to ORDER_CAP
BUILTIN_SIZES = sorted({sub["psi"]["builtin"] for _, command, sub in _gallery_entries(0)
                        if command == "alpha"} | {
    "delta:1", "delta:2", "delta:3", "delta:4", "delta:5", "delta:7", "delta:12",
    "wordlength:1", "wordlength:2", "wordlength:3", "wordlength:255", "wordlength:256",
    "wordlength:512", "walsh:2:8", "walsh:3:5", "walsh:2:12", "heisenberg-delta:7",
    "heisenberg-delta:16", "heisenberg-wordlength:5", "heisenberg-wordlength:7",
    "heisenberg-wordlength:16"})

# Gromov matrix of the Z_4 word length over indices 1..3, by hand
Z4_WORD_BLOCK = np.array([[1.0, 1.0, 0.0],
                          [1.0, 2.0, 1.0],
                          [0.0, 1.0, 1.0]])

# principal 3x3 minor of the Gromov form of psi=(0,1,3,1) on Z_4; its
# determinant is -4.5, so that psi is not conditionally negative
Z4_BAD_MINOR = np.array([[1.0, 1.5, -0.5],
                         [1.5, 3.0, 1.5],
                         [-0.5, 1.5, 1.0]])


def test_length_function_validation():
    g = build_cyclic(3)
    with pytest.raises(ValueError, match="psi has shape"):
        length_function(g, [0.0, 1.0])
    with pytest.raises(ValueError, match=r"psi\(e\)"):
        length_function(g, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="negative"):
        length_function(g, [0.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="not symmetric"):
        length_function(g, [0.0, 1.0, 2.0])
    # NaN compares false against every guard above, so it must be caught by name
    g = build_cyclic(4)
    with pytest.raises(ValueError, match=r"psi\(1\) = nan is not finite"):
        length_function(g, [0.0, np.nan, 2.0, np.nan])
    with pytest.raises(ValueError, match=r"psi\(2\) = inf is not finite"):
        length_function(g, [0.0, 1.0, np.inf, 1.0])
    with pytest.raises(ValueError, match=r"psi\(0\) = nan is not finite"):
        length_function(g, [np.nan, 1.0, 2.0, 1.0])


def test_length_function_stores_an_exactly_symmetric_psi():
    g = build_cyclic(4)
    psi = length_function(g, [0.0, 1.0, 2.0, 1.0 + 4e-13])     # inside the 1e-12 check
    assert np.array_equal(psi.values, psi.values[g.inv])
    K = gromov_form(psi).K
    assert np.array_equal(K, K.T)


def test_a_psi_at_the_float_range_is_stored_and_its_gromov_form_refused():
    """length_function once added psi(g) + psi(g^-1) before halving, so psi = 1e308 overflowed
    to inf with a RuntimeWarning, and its Gromov form came back with K = inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = length_function(build_cyclic(3), [0.0, 1e308, 1e308])
        assert psi.values.tolist() == [0.0, 1e308, 1e308]
        with pytest.raises(ValueError, match=r"^psi\(1\) = 1e\+308 overflows the Gromov form"):
            gromov_form(psi)
        top = np.finfo(float).max / 2                        # 2 psi is finite: K is formed
        assert gromov_form(length_function(build_cyclic(2), [0.0, top])).K[1, 1] == top


@pytest.mark.parametrize("spec", BUILTIN_SIZES)
def test_every_builtin_psi_keeps_the_bits_of_add_then_halve(monkeypatch, spec):
    """length_function halves before it adds; on the raw values of every builtin that stores
    the bits (v + v[inv]) / 2 did."""
    raw = []

    def spy(group, values):
        raw.append((group, np.asarray(values, dtype=float)))
        return length_function(group, values)

    monkeypatch.setattr(cocycles, "length_function", spy)
    psi = builtin_length(spec)
    [(group, v)] = raw
    assert np.array_equal(psi.values, (v + v[group.inv]) / 2)


def test_gromov_form_word_length_oracle():
    K = gromov_form(word_length_psi(4)).K
    assert np.array_equal(K[0], np.zeros(4))
    assert np.array_equal(K[:, 0], np.zeros(4))
    assert np.array_equal(K[1:, 1:], Z4_WORD_BLOCK)
    assert np.array_equal(np.diag(K), [0, 1, 2, 1])


def test_cn_verdicts():
    for n in (2, 3, 7, 12):
        v = is_conditionally_negative(delta_psi(n))
        assert v.psd and v.min_eig > -1e-12
    bad = length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0])
    K = gromov_form(bad).K
    assert np.allclose(K[1:, 1:], Z4_BAD_MINOR)
    assert abs(np.linalg.det(Z4_BAD_MINOR) - (-4.5)) < 1e-12
    v = is_conditionally_negative(bad)
    assert not v.psd and v.min_eig < -0.1


def test_cn_tolerance_must_be_finite_and_nonnegative():
    """A tol of inf would call every psi CN, and NaN or a negative tol would call none CN."""
    bad = length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0])
    for psi in (bad, delta_psi(4)):
        for tol, shown in ((np.inf, "Infinity"), (np.nan, "NaN"), (-1.0, "-1.0")):
            with pytest.raises(ValueError, match=f"^tol = {shown} is not a finite number >= 0$"):
                is_conditionally_negative(psi, tol=tol)
    assert is_conditionally_negative(delta_psi(4), tol=0.0).psd


@pytest.mark.parametrize("n", [255, 512])
def test_gromov_form_accepts_the_psi_a_realization_rebuilds(n):
    """||b(g)||^2 of the realized word length is symmetric only to 2.9e-12 (n = 255) and
    3.6e-12 (n = 512): above a bare 1e-12, within 1e-12 * psd_scale(psi)."""
    real = realize_cocycle(gromov_form(builtin_length(f"wordlength:{n}")))
    psi = LengthFunction(real.group, real.psi)
    asym = np.abs(psi.values - psi.values[real.group.inv]).max()
    assert 1e-12 < asym <= 1e-12 * psd_scale(psi.values)
    assert np.array_equal(np.diag(gromov_form(psi).K), psi.values)


def test_length_function_still_rejects_an_asymmetry_of_1e_9():
    with pytest.raises(ValueError, match=re.escape(
            "psi not symmetric: psi(1) = 1.0 but psi(inv(1)) = 1.000000001")):
        length_function(build_cyclic(3), [0.0, 1.0, 1.0 + 1e-9])


def reference_alpha(K: GromovForm) -> np.ndarray:
    """(order, d, d) stack of alpha_g solved from b(gh) - b(g) = alpha_g b(h) over all h.

    alpha_g^T = B^+ (b(gh) - b(g)) with B^+ = Lambda_r^{-1/2} U_r^T, U_r and
    Lambda_r the part of K's spectrum above the cut realize_cocycle reads.
    """
    lam, U = K.spectrum
    keep = lam > K._spectral_factor()[0]
    B = realize_cocycle(K).vectors
    Bpinv = U[:, keep].T / np.sqrt(lam[keep])[:, None]
    return np.swapaxes(Bpinv @ (B[K.group.mul] - B[:, None, :]), 1, 2)


def assert_cocycle(K: GromovForm) -> None:
    """realize_cocycle(K) and the reference alpha obey b(gh) = b(g) + alpha_g b(h),
    alpha_g^T alpha_g = I and alpha_{gh} = alpha_g alpha_h, each to 1e-8."""
    b, alpha, mul = realize_cocycle(K).vectors, reference_alpha(K), K.group.mul
    law = b[mul] - b[:, None, :] - np.einsum("gij,hj->ghi", alpha, b)
    orth = np.swapaxes(alpha, 1, 2) @ alpha - np.eye(b.shape[1])
    hom = alpha[mul] - np.einsum("gij,hjk->ghik", alpha, alpha)
    for name, dev in (("law", law), ("orthogonality", orth), ("homomorphism", hom)):
        assert np.abs(dev).max(initial=0.0) < 1e-8, name


def test_realize_walsh():
    psi = walsh_length(2, 2)
    K = gromov_form(psi)
    real = realize_cocycle(K)
    assert real.dimension == 2
    B = real.vectors
    assert np.abs(B @ B.T - K.K).max() < 1e-9
    assert np.abs(real.psi - psi.values).max() < 1e-9
    assert_cocycle(K)


def test_realize_rejects_non_psd():
    bad = length_function(build_cyclic(4), [0.0, 1.0, 3.0, 1.0])
    with pytest.raises(ValueError, match="not PSD"):
        realize_cocycle(gromov_form(bad))


def test_realize_drops_the_directions_below_the_rank_cut():
    # four eigenvalues of 5e-9 fall below the cut of 7.0e-9 and one of 1.33e-8 stays above
    k = np.arange(8)
    psi = length_function(build_cyclic(8), 1 - np.cos(2 * np.pi * k / 8) + 1e-8 * (k != 0))
    K = gromov_form(psi)
    cut = K.factor[0]
    assert np.isclose(cut, 7.0e-9, rtol=1e-6, atol=0)
    lam = K.spectrum[0]
    assert np.allclose(lam[1:6], [5e-9] * 4 + [4e-8 / 3], rtol=1e-6, atol=0)
    real = realize_cocycle(K)
    assert real.dimension == 3
    assert np.abs(real.vectors @ real.vectors.T - K.K).max() <= cut


@pytest.mark.parametrize("spec", BUILTIN_SIZES)
def test_builtin_cocycle_factors_the_gromov_form(spec):
    """B B^T = K to 1e-13 * psd_scale(K), for the cocycle the family carries, compared row
    block by row block against the Gromov form of psi itself."""
    psi = builtin_length(spec)
    B, K = psi.cocycle.vectors, gromov_form(psi).K
    assert not B.flags.writeable
    assert np.array_equal(B[0], np.zeros(B.shape[1]))       # b(e) = 0
    bound = 1e-13 * psd_scale(K)
    for lo in range(0, len(K), 256):
        assert np.abs(B[lo:lo + 256] @ B.T - K[lo:lo + 256]).max() <= bound, (spec, lo)


def assert_gromov_identity(psi: LengthFunction) -> None:
    """K(s,t) = (K(s,s) + K(t,t) - K(s^-1 t, s^-1 t)) / 2 bit for bit, and
    |K - K^T| <= 1e-12 * psd_scale(psi) / 2, row block by row block: the two checks a
    realization would otherwise need, which no K derived from a validated psi can fail."""
    K = gromov_form(psi).K
    diag, conv = np.diag(K), psi.group.conv_index
    assert np.array_equal(diag, psi.values)
    bound = 0.5e-12 * psd_scale(psi.values)
    for lo in range(0, len(K), 256):
        hi = lo + 256
        rows = 0.5 * (diag[lo:hi, None] + diag[None, :] - diag[conv[lo:hi]])
        assert np.array_equal(K[lo:hi], rows), lo
        assert np.abs(K[lo:hi] - K[:, lo:hi].T).max() <= bound, lo


@pytest.mark.parametrize("spec", BUILTIN_SIZES)
def test_every_builtin_gromov_form_obeys_the_gromov_identity(spec):
    assert_gromov_identity(builtin_length(spec))


@pytest.mark.parametrize("spec", ["wordlength:513", "heisenberg-wordlength:7"])
def test_a_rebuilt_norm_psi_obeys_the_gromov_identity(spec):
    """The dilation's psi = ||b(g)||^2, rebuilt from a realization and not re-symmetrized."""
    real = realize_cocycle(gromov_form(builtin_length(spec)))
    psi = LengthFunction(real.group, real.psi)
    assert not np.array_equal(psi.values, psi.values[real.group.inv])
    assert_gromov_identity(psi)


@pytest.mark.parametrize("spec", BUILTIN_SIZES)
def test_the_two_rank_rules_agree(spec):
    """factor cuts B's Gram at DEFAULT_TOL * (1 + lambda_max(B^T B)) and _spectral_factor cuts
    K's spectrum at DEFAULT_TOL * (1 + ||K||_2): on every builtin both keep the same d, and
    the cuts agree to 1e-13 relative (2.1e-15 at worst, on heisenberg-delta:16)."""
    K = gromov_form(builtin_length(spec))
    (cut, Br), (spectral_cut, Bs) = K.factor, K._spectral_factor()
    assert Br.shape == Bs.shape
    assert not (Br.flags.writeable or Bs.flags.writeable)
    assert abs(cut - spectral_cut) <= 1e-13 * spectral_cut


def test_a_realization_refuses_vectors_that_do_not_fit_its_group():
    """Vectors of the wrong shape, or not finite, are a ValueError naming the shape or the
    entry, not a broadcasting error deep in the dilation; d is read off the vectors."""
    group = build_cyclic(4)
    for shape in ((3, 2), (4,), (4, 2, 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"vectors have shape {shape}, expected (4, d)")):
            CocycleRealization(group, np.zeros(shape))
    nan = np.zeros((4, 2))
    nan[2, 1] = np.nan
    with pytest.raises(ValueError, match=re.escape("b(2,1) = nan is not finite")):
        CocycleRealization(group, nan)
    real = CocycleRealization(group, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert real.dimension == 2 and not real.vectors.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15])
@pytest.mark.parametrize("mode", ["delta", "wordlength"])
def test_cyclic_cocycle_obeys_the_cocycle_law(n, mode):
    """||b(k)||^2 is the cyclic length, and b(k + l) - b(k) = alpha_k b(l) with the Gram of
    the b(k + l) - b(k) over l equal to that of the b(l), so alpha_k is orthogonal."""
    k = np.arange(n)
    b = _cyclic_cocycle(mode, k, n)
    want = (k != 0) if mode == "delta" else np.minimum(k, n - k)
    assert np.allclose(np.einsum("kj,kj->k", b, b), want, rtol=0, atol=1e-15)
    for a in range(n):
        moved = b[(a + k) % n] - b[a]
        assert np.allclose(moved @ moved.T, b @ b.T, rtol=0, atol=1e-14), (a, mode)


def test_the_cocycle_b_is_checked_against_k():
    """A form given a wrong B is a ValueError naming (s, t), never a verdict: from the CN
    test, the rank cut and the span pair, whether the pair is compressed
    (heisenberg-wordlength:4, d = 4, 14 < 64) or K itself (wordlength:9, d = 9)."""
    for spec in ("heisenberg-wordlength:4", "wordlength:9"):
        psi = builtin_length(spec)
        wrong = psi.cocycle.vectors.copy()
        wrong[5, 1] += 0.5
        bad = GromovForm(replace(psi, cocycle=CocycleRealization(psi.group, wrong)))
        s, t = 5, int(np.argmax(np.abs(wrong @ wrong.T - bad.K)[5]))
        message = re.escape(f"K is not B B^T: at (s, t) = ({s}, {t}), ")
        for use in (bad._psd_test, lambda: bad.factor, lambda: bad.span_pair):
            with pytest.raises(ValueError, match=message):
                use()


@pytest.mark.parametrize("spec", BUILTIN_SIZES)
def test_every_builtin_is_cn_exactly(spec):
    """The CN verdict of a builtin reads B: true with min_eig 0.0 at tol 0, where K's
    spectrum reads -3.5e-13 on walsh:2:8 and -2.1e-15 on heisenberg-delta:3."""
    psi = builtin_length(spec)
    assert is_conditionally_negative(psi, tol=0.0) == PsdVerdict(True, 0.0)


def test_word_length_cocycle_oracle():
    assert np.array_equal(word_length_cocycle(4).vectors, [[0, 0], [1, 0], [1, 1], [0, 1]])
    assert np.array_equal(word_length_cocycle(4).psi, [0, 1, 2, 1])


def test_word_length_alpha1_has_order_two_n():
    # alpha_1 is the signed shift e_j -> e_(j+1), e_(n/2) -> -e_1 and alpha_a = alpha_1^a;
    # alpha_1^(n/2) = -1, so its matrix order is 2n though alpha is an n-periodic action
    for n in (4, 6):
        real = word_length_cocycle(n)
        d = n // 2
        assert real.dimension == d
        a1 = np.zeros((d, d), dtype=int)
        a1[np.arange(1, d), np.arange(d - 1)] = 1
        a1[0, d - 1] = -1
        assert np.array_equal(np.linalg.matrix_power(a1, d), -np.eye(d))
        assert np.array_equal(np.linalg.matrix_power(a1, n), np.eye(d))
        for a in range(n):
            alpha = np.linalg.matrix_power(a1, a)
            for h in range(n):
                assert np.array_equal(real.vectors[a] + alpha @ real.vectors[h],
                                      real.vectors[(a + h) % n])


def test_word_length_cocycle_matches_gromov():
    for n in (4, 6, 10):
        real = word_length_cocycle(n)
        K = gromov_form(word_length_psi(n)).K
        assert np.array_equal(real.vectors @ real.vectors.T, K)


def test_word_length_cocycle_odd_rejected():
    for n in (5, 7):
        with pytest.raises(ValueError,
                           match=f"^word-length realization n = {n} is not an even integer >= 2$"):
            word_length_cocycle(n)


def test_word_length_cocycle_checks_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="exceeds cap"):
            word_length_cocycle(ORDER_CAP + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_schur_identity_exact():
    for n in (4, 6, 8, 12, 20, 1024):
        rep = verify_schur_identity(n)
        assert rep.residual == 0.0
        assert rep.terms == n // 2 - 1


def test_schur_wall_pairs_are_the_word_blocks():
    """The reference route: the wall pairs of gap g sum to the Z_(n-2g) word-length
    Gromov matrix at offset g, and twice their sum over g is G o G - G."""
    for n in range(4, 41, 2):
        Z = word_length_cocycle(n).vectors
        G = Z @ Z.T
        total = np.zeros_like(G)
        for g in range(1, n // 2):
            pairs = Z[:, :-g] * Z[:, g:]
            block = np.zeros_like(G)
            m = n - 2 * g
            block[g + 1:g + m, g + 1:g + m] = gromov_form(word_length_psi(m)).K[1:, 1:]
            assert np.array_equal(pairs @ pairs.T, block), (n, g)
            total += block
        assert np.array_equal(2.0 * total, G * G - G), n


def test_schur_negative_control():
    for n, residual in ((4, 2.0), (6, 6.0), (8, 12.0), (16, 56.0)):
        rep = verify_schur_identity(n, delta_psi(n))
        assert rep.residual == residual
        assert rep.terms == n // 2 - 1


def test_schur_input_validation():
    with pytest.raises(ValueError, match="^Schur n = 5 is not an even integer >= 4$"):
        verify_schur_identity(5)
    with pytest.raises(ValueError, match=re.escape("order 4, expected 6")):
        verify_schur_identity(6, delta_psi(4))
    with pytest.raises(ValueError, match=re.escape("order 4 that is not Z_4")):
        verify_schur_identity(4, walsh_length(2, 2))
    with pytest.raises(ValueError, match=re.escape("order 8 that is not Z_8")):
        verify_schur_identity(8, heisenberg_delta(2))


def test_heisenberg_delta_degenerate_but_cn():
    psi = heisenberg_delta(2)
    v = is_conditionally_negative(psi)
    assert v.psd
    real = realize_cocycle(gromov_form(psi))
    # pulled back from the abelianization: central directions vanish
    assert real.dimension < psi.group.order - 1
    assert np.abs(real.psi - psi.values).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_conic_combinations_stay_cn(n, s, t):
    # nonnegative combinations of cn lengths are cn and realizable
    psi = length_function(build_cyclic(n),
                          s * delta_psi(n).values + t * word_length_psi(n).values)
    assert is_conditionally_negative(psi).psd
    K = gromov_form(psi)
    assert np.abs(realize_cocycle(K).psi - psi.values).max() < 1e-7
    assert_cocycle(K)


def test_heisenberg_realizations_obey_cocycle_law():
    for spec in ("heisenberg-delta:3", "heisenberg-wordlength:3"):
        assert_cocycle(gromov_form(builtin_length(spec)))


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.builds("delta:{}".format, st.integers(1, 12)),
    st.builds("wordlength:{}".format, st.integers(1, 16)),
    st.builds("walsh:{}:{}".format, st.integers(2, 4), st.integers(1, 2)),
    st.builds("heisenberg-delta:{}".format, st.integers(2, 3)),
    st.builds("heisenberg-wordlength:{}".format, st.integers(2, 3))))
def test_builtin_realizations_obey_cocycle_law(spec):
    assert_cocycle(gromov_form(builtin_length(spec)))
