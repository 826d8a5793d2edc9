import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import algebra
from cocycle_lab.algebra import (AlgebraElement, Semigroup, conv, delta,
                                 element, fix_project, gamma, gamma2, gamma_norm,
                                 generator_apply, lp_norm, operator_positivity,
                                 regular_rep, semigroup_apply, tau)
from cocycle_lab.cocycles import word_length_psi
from cocycle_lab.families import builtin_length, delta_psi, walsh_length
from cocycle_lab.groups import build_cyclic
from cocycle_lab.linalg import (_pow2_scale, _trace_power, schatten_norm,
                                schatten_pow_batch)

from conftest import rand_coeffs, rand_matrix, svd_schatten


@pytest.fixture(scope="module")
def z4word():
    return Semigroup(word_length_psi(4))


def test_adjoint_and_tau():
    g = build_cyclic(3)
    f = element(g, [1.0, 2.0 + 1j, 0.5])
    fs = f.adjoint()
    assert fs.coeffs[0] == 1.0
    assert fs.coeffs[1] == 0.5            # conj(a_{-1}) = conj(a_2)
    assert fs.coeffs[2] == 2.0 - 1j
    assert tau(f) == 1.0
    assert tau(conv(fs, f)) == pytest.approx(1.0 + abs(2 + 1j) ** 2 + 0.25)


def test_element_addition():
    g = build_cyclic(3)
    f = element(g, [1.0, 2.0 + 1j, 0.5]) + element(g, [0.5, -1.0, 1j])
    assert np.array_equal(f.coeffs, [1.5, 1.0 + 1j, 0.5 + 1j])
    with pytest.raises(ValueError, match="^algebra elements live over different groups$"):
        f + element(build_cyclic(4), [0.0, 0.0, 0.0, 0.0])


def test_regular_rep_circulant_oracle():
    g = build_cyclic(3)
    f = element(g, [0.0, 1.0, 1.0])
    M = regular_rep(f)
    assert np.array_equal(M[:, 0], [0, 1, 1])
    # f*f = 2 + lambda(1) + lambda(2)
    sq = conv(f, f)
    assert np.allclose(sq.coeffs, [2.0, 1.0, 1.0])
    assert np.allclose(M @ M, regular_rep(sq))


def test_regular_rep_star_homomorphism():
    g = build_cyclic(6)
    for i in range(10):
        f = element(g, rand_coeffs(6, 2 * i))
        h = element(g, rand_coeffs(6, 2 * i + 1))
        assert np.abs(regular_rep(conv(f, h)) - regular_rep(f) @ regular_rep(h)).max() < 1e-12
        assert np.abs(regular_rep(f.adjoint()) - regular_rep(f).conj().T).max() < 1e-12
        assert abs(tau(f) - np.trace(regular_rep(f)) / 6) < 1e-12


def test_lp_norms():
    g = build_cyclic(2)
    f = element(g, [1.0, 1.0])
    assert lp_norm(f, 2) == pytest.approx(np.sqrt(2.0))
    assert lp_norm(f, np.inf) == pytest.approx(2.0)
    g5 = build_cyclic(5)
    lam = delta(g5, 3)
    stack = np.array([rand_coeffs(5, 60 + i) for i in range(3)] + [np.zeros(5)])
    mats = regular_rep(AlgebraElement(g5, stack))
    for p in (1, 2, 3, 4, 6, 16, np.inf):
        assert lp_norm(lam, p) == pytest.approx(1.0)
        # a stack of matrices takes one call and matches the matrices one by one
        norms = schatten_norm(mats, p)
        assert norms.shape == (4,) and norms[3] == 0.0
        assert np.array_equal(norms, [schatten_norm(m, p) for m in mats])
        if np.isfinite(p):
            moments = schatten_pow_batch(mats, p)
            assert moments[3] == 0.0
            assert np.array_equal(moments, [schatten_pow_batch(m, p) for m in mats])
        assert np.array_equal(lp_norm(AlgebraElement(g5, stack), p), norms)
        assert isinstance(schatten_norm(mats[3], p), float)
    # one p check serves both norm functions; NaN fails it too
    for bad, shown in ((0.5, "0.5"), (np.nan, "NaN")):
        for call in (lambda: lp_norm(f, bad), lambda: schatten_norm(np.eye(3), bad),
                     lambda: schatten_pow_batch(mats, bad)):
            with pytest.raises(ValueError, match=f"^Schatten p = {shown} is not a number >= 1$"):
                call()


@pytest.mark.parametrize("p", [2.0, 4.0, 16.0, 1.0, 3.0, 5.5, np.inf])
def test_schatten_rejects_non_finite_input(p):
    """Even p (matrix products) and the SVD route both refuse NaN and inf entries."""
    mats = np.stack([rand_matrix(4, 70 + i) for i in range(3)])
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        stack = mats.copy()
        stack[1, 2, 3] = bad
        calls = [lambda: schatten_norm(stack, p), lambda: schatten_norm(stack[1], p),
                 lambda: schatten_norm(np.full((3, 3), bad), p)]
        if np.isfinite(p):
            calls.append(lambda: schatten_pow_batch(stack, p))
        for call in calls:
            with pytest.raises(ValueError, match="not finite"):
                call()


def test_schatten_scale_guard():
    """The norm is homogeneous per matrix on both routes: p = 16 neither overflows nor
    underflows, and the SVD route stays finite where sigma_max itself overflows."""
    x = rand_matrix(8, 80, unit=False)
    huge = 1e308 / np.abs(x).max()      # sigma_max(huge * x) is 2.4e308, past the float range
    for p in (16, 1, 3, 2.5, np.inf):
        base = schatten_norm(x, p)
        want = np.linalg.svd(x, compute_uv=False)[0] if np.isinf(p) else svd_schatten(x, p)
        assert base == pytest.approx(want, rel=1e-12)
        # the norm of huge * x is below the float maximum at p = 1, 3 and 2.5 only
        scales = (1e-150, 1.0, 1e150, 1e200) + ((huge,) if p in (1, 3, 2.5) else ())
        stack = schatten_norm(np.stack([c * x for c in scales] + [np.zeros((8, 8))]), p)
        for c, norm in zip(scales, stack):
            assert abs(schatten_norm(c * x, p) - c * base) <= 1e-12 * c * base
            assert abs(norm - c * base) <= 1e-12 * c * base
        assert stack[-1] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("walsh:2:2", "walsh:2:3", "delta:5", "wordlength:6",
                        "heisenberg-delta:2", "heisenberg-delta:3",
                        "heisenberg-wordlength:2", "heisenberg-wordlength:3")),
       st.integers(0, 10 ** 6), st.sampled_from((2, 4, 6, 8, 10, 12, 14, 16)))
def test_even_p_moments_match_svd_hypothesis(spec, index, p):
    """Even-p norms (matrix products) agree with the singular-value reference to 1e-12,
    on regular_rep stacks of random elements and on their Gamma."""
    sg = Semigroup(builtin_length(spec))
    order = sg.group.order
    f = AlgebraElement(sg.group, np.array([rand_coeffs(order, index + i) for i in range(3)]))
    fs = f.adjoint()
    for elem in (f, gamma(sg, f, f), gamma(sg, fs, fs), gamma(sg, f, fs)):
        mats = regular_rep(elem)
        ref = svd_schatten(mats, p)
        assert np.all(np.abs(schatten_norm(mats, p) - ref) <= 1e-12 * ref)
        assert np.all(np.abs(schatten_pow_batch(mats, p) - ref ** p) <= 1e-12 * ref ** p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6), st.integers(1, 9),
       st.sampled_from((1e-300, 1e-150, 1.0, 1e150, 1e300)), st.sampled_from((1, 3, 5, 7)))
def test_odd_trace_powers_match_svd_on_psd_stacks_hypothesis(n, index, rank, scale, q):
    """On PSD stacks B*B, rank deficient too, tau(X^q) by trace powers matches the singular
    values to 1e-12 at odd q; at entries near 1e+-300 neither it nor the norm overflows."""
    B = np.stack([rand_matrix(n, index + i, unit=False) for i in range(3)])
    B[:, min(rank, n):] = 0.0
    X = scale * (np.swapaxes(B.conj(), -1, -2) @ B)
    c, acc = _trace_power(X, q)
    y = _pow2_scale(X)[1]
    want = np.mean(np.linalg.svd(y, compute_uv=False) ** q, axis=-1)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(acc))
    assert np.all(np.abs(acc - want) <= 1e-12 * want)
    norms = schatten_norm(X, q, psd=True)
    ref = np.array([svd_schatten(x / scale, q) * scale for x in X])
    assert np.all(np.isfinite(norms))
    assert np.all(np.abs(norms - ref) <= 1e-12 * ref)
    assert np.array_equal(norms, [schatten_norm(x, q, psd=True) for x in X])


@pytest.mark.parametrize("spec", ["walsh:2:3", "heisenberg-wordlength:2", "wordlength:6"])
def test_gamma_norm_is_the_larger_gamma_norm_of_f_and_its_adjoint(spec):
    """Per element of a stack, on the SVD route and, for a CN psi, on trace powers."""
    sg = Semigroup(builtin_length(spec))
    C = np.stack([rand_coeffs(sg.group.order, i) for i in range(5)])
    assert sg.gamma_psd
    for q in (1.0, 1.5, 2.0, 3.0):
        norms = gamma_norm(sg, AlgebraElement(sg.group, C), q)
        for i, c in enumerate(C):
            f = element(sg.group, c)
            want = max(svd_schatten(regular_rep(gamma(sg, g, g)), q) for g in (f, f.adjoint()))
            assert abs(norms[i] - want) <= 1e-12 * want
            assert norms[i] == gamma_norm(sg, f, q)
            assert abs(gamma_norm(sg, f, q, psd=True) - want) <= 1e-12 * want


def test_semigroup_laws(z4word):
    g = z4word.group
    f = element(g, rand_coeffs(4, 0))
    assert np.allclose(semigroup_apply(z4word, f, 0.0).coeffs, f.coeffs)
    a = semigroup_apply(z4word, semigroup_apply(z4word, f, 0.3), 0.7)
    b = semigroup_apply(z4word, f, 1.0)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-14
    with pytest.raises(ValueError, match=">= 0"):
        semigroup_apply(z4word, f, -0.1)
    for bad, want in ((np.nan, " = nan"), (np.inf, " = inf"),
                      (np.array([[0.5], [np.nan]]), r"\(1,0\) = nan")):
        with pytest.raises(ValueError, match=f"^semigroup time{want} is not finite$"):
            semigroup_apply(z4word, f, bad)
    p = fix_project(z4word, f)
    assert np.allclose(fix_project(z4word, p).coeffs, p.coeffs)
    assert tau(p) == tau(f)
    # psi > 0 off e: projection keeps only the trace part
    assert np.allclose(p.coeffs, [f.coeffs[0], 0, 0, 0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("walsh:2:2", "walsh:2:3", "delta:5", "wordlength:6",
                        "heisenberg-delta:3", "heisenberg-wordlength:3")),
       st.integers(0, 10 ** 6), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.floats(-4.0, -1e-300), st.integers(0, 2))
def test_semigroup_law_hypothesis(spec, index, s, t, negative, where):
    sg = Semigroup(builtin_length(spec))
    f = element(sg.group, rand_coeffs(sg.group.order, index))
    composed = semigroup_apply(sg, semigroup_apply(sg, f, t), s)
    assert np.abs(composed.coeffs - semigroup_apply(sg, f, s + t).coeffs).max() < 1e-14
    # a column of times is the stack of the one-time calls, bit for bit
    times = np.array([s, t, s + t])
    column = semigroup_apply(sg, f, times[:, None]).coeffs
    assert column.shape == (3, sg.group.order)
    for row, time in zip(column, times):
        assert np.array_equal(row, semigroup_apply(sg, f, time).coeffs)
    times[where] = negative
    for bad in (negative, times[:, None]):
        with pytest.raises(ValueError, match=f"semigroup time must be >= 0, got {negative}"):
            semigroup_apply(sg, f, bad)


def test_semigroup_contraction(z4word):
    for i in range(5):
        f = element(z4word.group, rand_coeffs(4, 10 + i))
        for t in (0.1, 1.0):
            tf = semigroup_apply(z4word, f, t)
            for p in (1.0, 2.0, 4.0, np.inf):
                assert lp_norm(tf, p) <= lp_norm(f, p) + 1e-12


def test_gamma_unit_oracles(z4word):
    g = z4word.group
    for k in range(4):
        gm = gamma(z4word, delta(g, k), delta(g, k))
        expected = np.zeros(4)
        expected[0] = z4word.psi.values[k]
        assert np.allclose(gm.coeffs, expected)
        g2 = gamma2(z4word, delta(g, k), delta(g, k))
        expected[0] = z4word.psi.values[k] ** 2
        assert np.allclose(g2.coeffs, expected)


def test_gamma_trace_formula(z4word):
    f = element(z4word.group, rand_coeffs(4, 3))
    want = float(np.sum(z4word.psi.values * np.abs(f.coeffs) ** 2))
    assert tau(gamma(z4word, f, f)) == pytest.approx(want, abs=1e-12)


def test_gamma_identity_coefficient_oracle(z4word):
    # f = lambda(1)+lambda(2): coefficient at e is K(1,1)+K(2,2) = 1+2
    g = z4word.group
    f = element(g, [0.0, 1.0, 1.0, 0.0])
    gm = gamma(z4word, f, f)
    assert gm.coeffs[0] == pytest.approx(3.0)


def test_gamma_paths_agree(z4word):
    g = z4word.group
    for i in range(20):
        f = element(g, rand_coeffs(4, 20 + i))
        h = element(g, rand_coeffs(4, 60 + i))
        for fn in (gamma, gamma2):
            a = fn(z4word, f, h, path="kernel")
            b = fn(z4word, f, h, path="definitional")
            assert np.abs(a.coeffs - b.coeffs).max() < 1e-12
    with pytest.raises(ValueError, match='^path = "spectral" is not one of kernel, definitional$'):
        gamma(z4word, f, f, path="spectral")


def test_gamma2_names_an_unknown_path(z4word):
    f = element(z4word.group, rand_coeffs(4, 20))
    with pytest.raises(ValueError, match='^path = "bogus" is not one of kernel, definitional$'):
        gamma2(z4word, f, f, path="bogus")


def _written_out_gamma(sg, f, g, path):
    """Gamma(f, g) written out on each path: the reference gamma must match bit for bit."""
    if path == "kernel":
        w = np.take(g.coeffs, sg.group.mul, axis=-1) * sg._kernel_su
        return (np.conj(f.coeffs)[..., None, :] @ w)[..., 0, :]
    fs = f.adjoint()
    a = conv(generator_apply(sg, fs), g)
    b = conv(fs, generator_apply(sg, g))
    c = generator_apply(sg, conv(fs, g))
    return 0.5 * (a.coeffs + b.coeffs - c.coeffs)


@pytest.mark.parametrize("spec", ["walsh:2:3", "wordlength:8", "delta:5", "heisenberg-delta:3",
                                  "heisenberg-wordlength:3"])
def test_gamma_is_bit_identical_to_the_written_out_formulas(spec):
    """Gamma on both paths has the bits of the written-out formulas; the generator commutes with
    the adjoint exactly (psi(g^-1) = psi(g)), which bakry_emery needs to carry Gamma_k in f*."""
    sg = Semigroup(builtin_length(spec))
    order = sg.group.order
    for i in range(3):
        f = element(sg.group, rand_coeffs(order, 200 + i))
        h = element(sg.group, rand_coeffs(order, 300 + i))
        for path in ("kernel", "definitional"):
            assert np.array_equal(gamma(sg, f, h, path).coeffs, _written_out_gamma(sg, f, h, path))
        assert np.array_equal(generator_apply(sg, f.adjoint()).coeffs,
                              generator_apply(sg, f).adjoint().coeffs)


def test_definitional_gamma2_runs_without_the_kernel(z4word, monkeypatch):
    """The definitional Gamma_2 iterates the generator alone; it once built its three Gamma
    terms on the kernel path, so the cross-check compared the kernel against itself in part."""
    f = element(z4word.group, rand_coeffs(4, 20))
    h = element(z4word.group, rand_coeffs(4, 60))
    want = gamma2(z4word, f, h).coeffs

    def no_kernel(*args):
        raise AssertionError("kernel contraction on the definitional path")
    monkeypatch.setattr(algebra, "_kernel_contract", no_kernel)
    assert np.abs(gamma2(z4word, f, h, path="definitional").coeffs - want).max() < 1e-12
    with pytest.raises(AssertionError, match="kernel contraction"):
        gamma2(z4word, f, h)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=12, max_size=12))
def test_gamma_paths_agree_hypothesis(vals):
    sg = Semigroup(word_length_psi(6))
    c = np.array(vals[:6]) + 1j * np.array(vals[6:])
    f = element(sg.group, c)
    a = gamma(sg, f, f, path="kernel")
    b = gamma(sg, f, f, path="definitional")
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * (1 + np.abs(c).max()) ** 2


def test_gamma_positivity(z4word):
    for i in range(10):
        f = element(z4word.group, rand_coeffs(4, 100 + i))
        rep = operator_positivity(gamma(z4word, f, f))
        assert rep.psd


def test_gamma_of_fix_element_vanishes():
    sg = Semigroup(walsh_length(2, 2))
    f = element(sg.group, [2.5, 0, 0, 0])
    assert np.abs(gamma2(sg, f, f).coeffs).max() == 0.0


def test_operator_positivity_oracles():
    g = build_cyclic(4)
    one = element(g, [1.0, 0, 0, 0])
    rep = operator_positivity(one)
    assert rep.psd and rep.min_eig == pytest.approx(1.0)
    # lambda(1)+lambda(3)-3 has eigenvalues 2cos(2 pi k/4) - 3 < 0
    f = element(g, [-3.0, 1.0, 0.0, 1.0])
    rep = operator_positivity(f)
    assert not rep.psd and rep.min_eig == pytest.approx(-5.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        operator_positivity(element(g, [0.0, 1.0, 0.0, 0.0]))


def test_bakry_emery_decay_word_length(z4word):
    # alpha = 1 for the Z_4 word length: e^{-2t} T_t Gamma(f,f) - Gamma(T_tf,T_tf) >= 0
    g = z4word.group
    for i in range(5):
        f = element(g, rand_coeffs(4, 200 + i))
        for t in (0.1, 0.5):
            tf = semigroup_apply(z4word, f, t)
            lhs = np.exp(-2.0 * t) * semigroup_apply(z4word, gamma(z4word, f, f), t)
            diff = lhs - gamma(z4word, tf, tf)
            assert operator_positivity(diff).psd


def test_p_energy_gamma_regularity(z4word):
    # tau Gamma(f^{p/2}, f^{p/2}) <= p^2/(4(p-1)) tau Gamma(f, f^{p-1}), f >= 0
    g = z4word.group
    for i in range(5):
        a = element(g, rand_coeffs(4, 300 + i))
        f = conv(a.adjoint(), a)
        f2 = conv(f, f)
        f3 = conv(f2, f)
        # p = 2 is an identity
        lhs = tau(gamma(z4word, f, f)).real
        rhs = tau(gamma(z4word, f, f)).real
        assert lhs <= rhs + 1e-12
        # p = 4
        lhs = tau(gamma(z4word, f2, f2)).real
        rhs = (16.0 / 12.0) * tau(gamma(z4word, f, f3)).real
        assert lhs <= rhs + 1e-9


def test_cached_index_tables_are_read_only():
    """The cached fancy-index copies are shared by every later caller, so a write must fail."""
    sg = Semigroup(word_length_psi(4))
    g = sg.group
    for name, table in (("conv_index", g.conv_index), ("rep_index", g.rep_index),
                        ("_kernel_su", sg._kernel_su)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table += 1
        assert not table.flags.writeable, name


def test_mismatched_groups_rejected():
    f = element(build_cyclic(3), [1.0, 0, 0])
    h = element(build_cyclic(4), [1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="different groups"):
        conv(f, h)


def test_element_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        element(build_cyclic(3), [1.0, 0.0])
