import dataclasses
import functools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import dilation, linalg, rng
from cocycle_lab.algebra import (Semigroup, delta, element, gamma, lp_norm,
                                 regular_rep, semigroup_apply)
from cocycle_lab.cocycles import gromov_form, length_function, realize_cocycle, word_length_cocycle
from cocycle_lab.criterion import AlphaCertificate, best_alpha_pencil
from cocycle_lab.dilation import (BRACKET_PS, TransformPass, _root_stat, _sample_entries,
                                  bracket_estimates, dilation_matrix, dilation_mean,
                                  inequality_report, martingale_transform, sample_scenario,
                                  transform_l2_analytic)
from cocycle_lab.families import builtin_length, walsh_length
from cocycle_lab.groups import build_cyclic
from cocycle_lab.linalg import blocks, schatten_norm, schatten_pow_batch

from conftest import assert_report_pinned, rand_coeffs

# inequality_report on small_scenario, x = [0, 1, 0.7, 0.3j], p = 4, with the
# pencil certificate, at commit 7468425, where M and M~ took two chunk passes
# (numpy 2.4.6, scipy-openblas 0.3.31); the one-pass transform keeps every bit,
# the brackets read off Gamma keep every bit but the rounding-noise SEs, and
# even-p norms by matrix products move the floats by <= 3.6e-16 relative
# (the slack, a difference of two pinned values, by 2.1e-15)
PINNED_REPORT = {
    "p": 4.0,
    "transform_norm": {"mean": 1.3434420358637167, "se": 0.025308782812087045},
    "decoupled_norm": {"mean": 1.3915393657455086, "se": 0.03949565296951975},
    "decoupling_ratio": 0.9654358826880732,
    "decoupling_se": 0.04558929841346598,
    "hc": {"mean": 1.096406189378198, "se": 4.355153203207102e-18},
    "hr": {"mean": 1.096406189378198, "se": 5.040591829319728e-18},
    "hd": {"mean": 0.9443819626332379, "se": 0.019590564567718495},
    "bdg_ratio": 0.6126570831498221,
    "ito_mc": {"mean": 1.2301809699161947, "se": 0.04516445582868858},
    "ito_analytic": 1.2021065321068214,
    "bracket_bound": {"bound": 1.201661382001959, "max_bracket": 1.096406189378198,
                      "slack": 0.10525519262376104, "se": 4.355153203207102e-18},
}


def walsh_cocycle(n, m):
    return realize_cocycle(gromov_form(walsh_length(n, m)))


@pytest.fixture(scope="module")
def small_scenario():
    # Walsh Z_2 x Z_2, 8 steps to L = 1, 256 samples
    return sample_scenario(walsh_cocycle(2, 2), 8, 0.125, 256, seed=5)


def bracket_reference(x, sc, L, p):
    """(hc, hr) through the cocycle-indexed matrices C_{k,j}, with entry (h, g^{-1}h)

        x_g e^{-(L-t_k) psi(g)} e^{i <alpha_{h^{-1}} b(g), B_{t_k}>} (alpha_{h^{-1}} b(g))_j,

    S_c = 2 dt sum_{k,j} C_{k,j}^dag C_{k,j} and S_r = 2 dt sum_{k,j} C_{k,j} C_{k,j}^dag:
    the conditioned brackets written out coordinate by coordinate, without Gamma.
    """
    coc, g = sc.cocycle, sc.cocycle.group
    bdiff = coc.vectors[g.conv_index] - coc.vectors[g.inv][:, None, :]         # [h, g, j]
    tk = np.arange(sc.steps) * sc.dt
    weight = x.coeffs * np.exp(-(L - tk)[:, None] * coc.psi)                   # [k, g]
    dB = sc.increments(0, sc.samples)
    B = np.cumsum(dB, axis=1) - dB                                             # B_{t_k}
    amp = weight[:, None, :] * np.exp(1j * np.einsum("hgj,ckj->ckhg", bdiff, B))
    Cm = (amp[:, :, None] * bdiff.transpose(2, 0, 1))[..., np.arange(g.order)[:, None],
                                                      g.rep_index]
    Sc = 2.0 * sc.dt * np.einsum("ckjau,ckjav->cuv", np.conj(Cm), Cm)
    Sr = 2.0 * sc.dt * np.einsum("ckjua,ckjva->cuv", Cm, np.conj(Cm))
    return tuple(_root_stat(schatten_pow_batch(S, p / 2.0), p) for S in (Sc, Sr))


def transform_reference(x, sc, L, p):
    """martingale_transform through the |G|^2 phase field, without the diagonal conjugation.

    Every entry carries its own phase e^{i <alpha_{h^{-1}} b(g), B_{t_k}>}, with the twisted
    vectors bdiff[h, g] = b(h^{-1}g) - b(h^{-1}), and each step is the gather to entry
    (h, g^{-1}h) of i (y_k)_g e^{i beta} <bdiff[h, g], dB_k>; S_c and S_r gather the phase
    field times Gamma(y_k, y_k) and Gamma(y_k^*, y_k^*).  All samples in one block.
    """
    coc, g, sg = sc.cocycle, sc.cocycle.group, sc.semigroup
    bdiff = coc.vectors[g.conv_index] - coc.vectors[g.inv][:, None, :]         # [h, g, j]
    flat = np.arange(g.order)[:, None] * g.order + g.rep_index

    def gather(amp):    # amp[..., h, g] -> matrix with entry (h, g^{-1}h) = amp[..., h, g]
        return np.take(amp.reshape(amp.shape[:-2] + (g.order ** 2,)), flat, axis=-1)

    y = semigroup_apply(sg, x, L - sc.times[:, None])
    gam = np.stack([gamma(sg, y, y).coeffs, gamma(sg, y.adjoint(), y.adjoint()).coeffs])
    dB = sc.increments(0, sc.samples)
    B = np.concatenate([np.zeros_like(dB[:, :1]), np.cumsum(dB, axis=1)[:, :-1]], axis=1)
    ph = np.exp(1j * np.einsum("hgj,ckj->ckhg", bdiff, B))
    sc_pow, sr_pow = schatten_pow_batch(
        2.0 * sc.dt * gather(np.einsum("ckhg,skg->schg", ph, gam)), p / 2.0)
    amp = y.coeffs[:, None, :] * ph

    def steps(drive):
        return gather(1j * amp * np.einsum("hgj,ckj->ckhg", bdiff, drive))

    dx = steps(dB)
    return TransformPass(p, dx.sum(axis=1), steps(sc.increments_copy(0, sc.samples)).sum(axis=1),
                         sc_pow, sr_pow, schatten_pow_batch(dx, p).sum(axis=1))


@pytest.fixture(autouse=True)
def _no_kept_pass(request):
    # the module's scenarios are shared: each test starts with none of them keeping a pass
    for name in ("small_scenario", "wordlength_scenario", "heisenberg_scenario"):
        if name in request.fixturenames:
            request.getfixturevalue(name)._pass.clear()


def brackets(x, sc, L, p):
    return bracket_estimates(martingale_transform(x, sc, L, p))


@pytest.fixture(scope="module")
def wordlength_scenario():
    coc = realize_cocycle(gromov_form(builtin_length("wordlength:6")))
    return sample_scenario(coc, 8, 0.125, 64, seed=5)


@pytest.fixture(scope="module")
def heisenberg_scenario():
    # H_3(Z_3) is non-abelian: a gather that fills entry (h, u) from
    # amp[h, u^{-1}h] instead of amp[h, h u^{-1}] passes on abelian groups only
    coc = realize_cocycle(gromov_form(builtin_length("heisenberg-wordlength:3")))
    return sample_scenario(coc, 8, 0.125, 8, seed=5)


def test_scenario_validation():
    coc = word_length_cocycle(4)
    for dt, shown in ((0.0, "0.0"), (-0.1, "-0.1"), (np.nan, "NaN"), (np.inf, "Infinity")):
        with pytest.raises(ValueError, match=f"^dt = {shown} is not a finite number > 0$"):
            sample_scenario(coc, 4, dt, 8, 0)
    with pytest.raises(ValueError, match="^steps = 0 is not an integer >= 1$"):
        sample_scenario(coc, 0, 0.1, 8, 0)
    with pytest.raises(ValueError, match="^samples = 0 is not an integer >= 1$"):
        sample_scenario(coc, 4, 0.1, 0, 0)
    sc = sample_scenario(coc, 4, 0.25, 8, 0)
    x = delta(coc.group, 1)
    for L in (2.0, np.nan, np.inf):
        for call in (lambda x, sc, L: martingale_transform(x, sc, L, 4.0), transform_l2_analytic):
            with pytest.raises(ValueError, match=f"L = {L} does not match the scenario horizon"):
                call(x, sc, L)
    with pytest.raises(ValueError, match="not on the grid"):
        dilation_matrix(x, 0.3, sc, 0)
    # NaN once raised "cannot convert float NaN to integer", and +-inf an OverflowError
    for t in (np.nan, np.inf, -np.inf, 1e308):
        for call in (lambda t: dilation_matrix(x, t, sc, 0), lambda t: dilation_mean(x, t, sc)):
            with pytest.raises(ValueError, match=f"^t = {re.escape(str(t))} is not on the grid"):
                call(t)
    with pytest.raises(ValueError, match=r"^sample = 8 is not an integer in \[0, 8\)$"):
        dilation_matrix(x, 0.25, sc, 8)
    for p, shown in ((3.0, "3.0"), (np.nan, "NaN")):
        with pytest.raises(ValueError, match=f"^p = {shown} is not one of 2.0, 4.0, 6.0, 8.0$"):
            martingale_transform(x, sc, 1.0, p)


SCENARIO_CASES = [     # (steps, samples, seed, dt, the case's name, its message)
    (2.5, 8, 0, 0.25, "steps = 2.5 is not an integer", "steps = 2.5 is not an integer >= 1"),
    (True, 8, 0, 0.25, "steps = True is not an integer", "steps = true is not an integer >= 1"),
    (4, 8.9, 0, 0.25, "samples = 8.9 is not an integer", "samples = 8.9 is not an integer >= 1"),
    (4, 8, 1.7, 0.25, "seed = 1.7 is not an integer", "seed = 1.7 is not a non-negative integer"),
    (4, 8, -1, 0.25, "seed must be a non-negative integer, got -1",
     "seed = -1 is not a non-negative integer"),
    (4, 8, 0, True, "dt = True is not a number", "dt = true is not a finite number > 0"),
    (4, 8, 0, "0.1", "dt = '0.1' is not a number", 'dt = "0.1" is not a finite number > 0')]


@pytest.mark.parametrize("steps, samples, seed, dt, name, want", SCENARIO_CASES,
                         ids=["-".join(map(str, (*case[:3], case[4]))) for case in SCENARIO_CASES])
def test_scenario_rejects_a_count_or_seed_that_is_no_integer(steps, samples, seed, dt, name, want):
    # these were once cut to 2 steps, 8 samples, seed 1 and 1 step, and a negative seed
    # failed only at the first draw; dt True ran as a step of 1.0, and "0.1" died with a
    # TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        sample_scenario(word_length_cocycle(4), steps, dt, samples, seed)


def test_dilation_names_a_sample_or_p_of_the_wrong_type():
    """sample 1.5 died with numpy's TypeError and True read as sample 1; p "4" ran at p = 4."""
    sc = sample_scenario(word_length_cocycle(4), 4, 0.25, 8, 0)
    x = delta(sc.cocycle.group, 1)
    for sample, want in ((1.5, "sample = 1.5 is not an integer in [0, 8)"),
                         (True, "sample = true is not an integer in [0, 8)")):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            dilation_matrix(x, 0.25, sc, sample)
    assert dilation_matrix(x, 0.25, sc, np.int64(1)).shape == (4, 4)
    for call in (martingale_transform, inequality_report):
        with pytest.raises(ValueError, match='^p = "4" is not one of 2.0, 4.0, 6.0, 8.0$'):
            call(x, sc, 1.0, "4")


def test_scenario_takes_numpy_integers():
    sc = sample_scenario(word_length_cocycle(4), np.int64(4), 0.25, np.int32(8), np.uint8(3))
    assert (sc.steps, sc.samples, sc.seed) == (4, 8, 3)
    assert all(type(v) is int for v in (sc.steps, sc.samples, sc.seed))


def test_increments_deterministic_and_copy_independent(small_scenario):
    sc = small_scenario
    a = sc.increments(0, 4)
    b = sc.increments(0, 4)
    assert np.array_equal(a, b)
    assert a.shape == (4, 8, sc.d)
    c = sc.increments_copy(0, 4)
    assert not np.allclose(a, c)
    # sample blocks are independent of the chunking
    assert np.array_equal(sc.increments(2, 3)[0], a[2])


def test_increment_blocks_match_one_stream_per_sample(small_scenario, monkeypatch):
    # the reference route: sample s of either tag is stream(seed, tag, s).normal(0, sqrt(2 dt)),
    # and a block builds one SeedSequence, for its first sample
    sc = small_scenario
    built = []
    real = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda *a, **kw: built.append(kw["spawn_key"]) or real(*a, **kw))
    for draw, tag in ((sc.increments, rng.TAG_SCENARIO), (sc.increments_copy, rng.TAG_SCENARIO_COPY)):
        for lo, hi in ((0, sc.samples), (37, 101), (255, 256)):
            del built[:]
            block = draw(lo, hi)
            assert built == [(tag, lo)]
            want = np.stack([rng.stream(sc.seed, tag, s).normal(0.0, np.sqrt(2.0 * sc.dt),
                                                                (sc.steps, sc.d))
                             for s in range(lo, hi)])
            assert block.tobytes() == want.tobytes(), (tag, lo, hi)


def test_brownian_variance(small_scenario):
    # Var B_L = 2 L per coordinate
    sc = small_scenario
    B = sc.increments(0, sc.samples).sum(axis=1)
    var = (B ** 2).mean(axis=0)
    se = (B ** 2).std(ddof=1, axis=0) / np.sqrt(sc.samples)
    assert np.all(np.abs(var - 2.0 * sc.horizon) <= 5 * se)


def test_dilation_time_zero_is_regular_rep(small_scenario, heisenberg_scenario):
    hg = heisenberg_scenario.cocycle.group
    for sc, x in ((small_scenario, element(small_scenario.cocycle.group, [0.5, -1.0, 0.25j, 2.0])),
                  (heisenberg_scenario, element(hg, rand_coeffs(hg.order, 0)))):
        D = dilation_matrix(x, 0.0, sc, 3)
        assert np.abs(D - regular_rep(x)).max() < 1e-12


def test_dilation_multiplicative_per_sample(small_scenario, heisenberg_scenario):
    from cocycle_lab.algebra import conv, tau
    rng = np.random.default_rng(0)
    walsh = small_scenario.cocycle.group
    hg = heisenberg_scenario.cocycle.group
    cases = [(small_scenario, *(element(walsh, rng.standard_normal(4) + 1j * rng.standard_normal(4))
                                for _ in range(2))),
             (heisenberg_scenario, element(hg, rand_coeffs(hg.order, 1)),
              element(hg, rand_coeffs(hg.order, 2)))]
    for sc, x, y in cases:
        g = sc.cocycle.group
        for s in (0, 7):
            Dx = dilation_matrix(x, 1.0, sc, s)
            Dy = dilation_matrix(y, 1.0, sc, s)
            Dxy = dilation_matrix(conv(x, y), 1.0, sc, s)
            assert np.abs(Dx @ Dy - Dxy).max() < 1e-12
            Dxs = dilation_matrix(x.adjoint(), 1.0, sc, s)
            assert np.abs(Dxs - Dx.conj().T).max() < 1e-12
            # trace preservation of the embedding
            assert abs(np.trace(Dx) / g.order - tau(x)) < 1e-12


def test_dilation_mean_matches_semigroup(small_scenario):
    sc = small_scenario
    g = sc.cocycle.group
    x = element(g, [0.0, 1.0, -0.5, 0.25j])
    t = 0.5
    mean, se = dilation_mean(x, t, sc)
    target = regular_rep(semigroup_apply(sc.semigroup, x, t))
    dev = np.abs(mean - target)
    assert np.all(dev[se > 0] <= 5 * se[se > 0])
    assert np.all(dev[se == 0] <= 1e-10)


def test_martingale_transform_identity_is_zero(small_scenario):
    sc = small_scenario
    one = element(sc.cocycle.group, [1.0, 0, 0, 0])
    tr = martingale_transform(one, sc, 1.0, 4.0)
    assert tr.M.shape == tr.Mt.shape == (sc.samples, 4, 4)
    assert np.abs(tr.M).max() == 0.0
    assert np.abs(tr.Mt).max() == 0.0
    for moments in (tr.sc_pow, tr.sr_pow, tr.dx_pow):
        assert moments.shape == (sc.samples,) and np.abs(moments).max() == 0.0


def test_single_generator_bracket_closed_form(small_scenario):
    # for x = lambda(g) the conditioned bracket is deterministic
    sc = small_scenario
    x = delta(sc.cocycle.group, 1)
    est = brackets(x, sc, 1.0, 2.0)
    want = np.sqrt(transform_l2_analytic(x, sc, 1.0))
    assert est.hc.se < 1e-12
    assert abs(est.hc.mean - want) < 1e-10
    assert abs(est.hr.mean - want) < 1e-10


@pytest.mark.parametrize("p", BRACKET_PS)
def test_transform_matches_the_phase_field_reference(p, small_scenario, heisenberg_scenario):
    # the diagonal conjugation D_k^* Lambda D_k against |G|^2 phases per path point, sample
    # by sample: the matrices to 1e-13 of their Frobenius norm, the moments to 1e-13 relative
    cases = [(small_scenario, [0.0, 1.0, 0.7, 0.3j]),
             (heisenberg_scenario, rand_coeffs(27, 6)),
             (sample_scenario(word_length_cocycle(8), 8, 0.125, 64, seed=5), rand_coeffs(8, 7))]
    for sc, coeffs in cases:
        x = element(sc.cocycle.group, coeffs)
        got, want = martingale_transform(x, sc, 1.0, p), transform_reference(x, sc, 1.0, p)
        assert got.p == want.p == p
        order = sc.cocycle.group.order
        for name in ("M", "Mt"):
            a, b = getattr(got, name), getattr(want, name)
            dev = np.linalg.norm(a - b, axis=(-2, -1))
            assert np.all(dev <= 1e-13 * np.linalg.norm(b, axis=(-2, -1))), (order, name)
        for name in ("sc_pow", "sr_pow", "dx_pow"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == (sc.samples,)
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (order, name)


@functools.cache
def _route_scenario(spec, samples=256):
    coc = realize_cocycle(gromov_form(builtin_length(spec)))
    return sample_scenario(coc, 16, 0.125, samples, seed=5)


def _on_gram_route(sc):
    return dilation._gram_route(sc.d, sc.cocycle.group.order, sc.steps, sc.samples, 8.0)


@pytest.mark.parametrize("spec, gram", [("walsh:2:2", True), ("walsh:2:3", True),
                                        ("wordlength:6", True), ("heisenberg-delta:2", True),
                                        ("heisenberg-wordlength:3", True), ("wordlength:8", False)])
def test_both_hd_routes_agree_per_sample(spec, gram, monkeypatch):
    # h_d read off the per-step moment table against the commutator stack, each route forced
    # in turn; walsh:2:3 and wordlength:6 (d = 3) have 21 monomials of degree 2, so p = 6 is a
    # 6 x 21 form; wordlength:8 has d(d+1)/2 = 10 pairs > |G| = 8
    sc = _route_scenario(spec)
    assert _on_gram_route(sc) == gram
    x = element(sc.cocycle.group, rand_coeffs(sc.cocycle.group.order, 8))
    for p in BRACKET_PS:
        got = {}
        for route in (True, False):
            monkeypatch.setattr(dilation, "_gram_route", lambda *args, route=route: route)
            got[route] = martingale_transform(x, sc, 2.0, p)
        for name in ("M", "Mt", "sc_pow", "sr_pow"):
            assert np.array_equal(getattr(got[True], name), getattr(got[False], name)), name
        a, b = got[True].dx_pow, got[False].dx_pow
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (spec, p)


def test_gram_route_is_independent_of_chunking(monkeypatch):
    # every TransformPass field, sample by sample, at chunks of 1, 7 and all samples, on both
    # h_d routes: walsh:2:2, walsh:2:3, wordlength:6 and heisenberg-wordlength:3 read the
    # moment table, wordlength:8 (10 pairs > |G| = 8) builds the commutator stack.  A report's
    # means and SEs can absorb a last-bit change in one sample; these arrays cannot
    for spec, gram in (("walsh:2:2", True), ("walsh:2:3", True), ("wordlength:6", True),
                       ("heisenberg-wordlength:3", True), ("wordlength:8", False)):
        sc = _route_scenario(spec)
        assert _on_gram_route(sc) == gram
        x = element(sc.cocycle.group, rand_coeffs(sc.cocycle.group.order, 5))
        for p in BRACKET_PS:
            passes = []
            for size in (1, 7, sc.samples):
                with monkeypatch.context() as m:
                    m.setattr(linalg, "BLOCK_ENTRIES", size * _sample_entries(sc))
                    passes.append(martingale_transform(x, sc, 2.0, p))
            for field in TransformPass._fields:
                for other in passes[1:]:
                    assert np.array_equal(getattr(passes[0], field), getattr(other, field)), \
                        (spec, p, field)


def test_gram_route_identity_is_exactly_zero():
    # lambda(e) commutes with every diag b_j: each C_{k,j}, each G_{k,a} and so the moment
    # table is 0
    for spec in ("walsh:2:2", "heisenberg-wordlength:3"):
        sc = _route_scenario(spec)
        assert _on_gram_route(sc)
        one = delta(sc.cocycle.group, 0)
        for p in BRACKET_PS:
            tr = martingale_transform(one, sc, 2.0, p)
            assert tr.dx_pow.shape == (sc.samples,) and not tr.dx_pow.any(), (spec, p)


def test_a_zero_dimensional_cocycle_has_zero_moments():
    # psi = 0 realizes in dimension 0: no increments, so no pairs, and h_d keeps off the
    # moment route, whose table would have no rows
    coc = realize_cocycle(gromov_form(length_function(build_cyclic(3), np.zeros(3))))
    sc = sample_scenario(coc, 4, 0.25, 8, seed=0)
    assert coc.dimension == 0 and not _on_gram_route(sc)
    for p in BRACKET_PS:
        tr = martingale_transform(element(coc.group, [1.0, 0.5, 0.25]), sc, 1.0, p)
        assert tr.dx_pow.shape == (8,) and not tr.dx_pow.any() and not tr.M.any(), p


def test_moment_route_at_the_cli_default():
    # dilate's default of 4096 samples x 64 steps: the builtins whose h_d reads the moment
    # table at each p, bounded by that p's own s_i x s_j table.  walsh:3:3 and walsh:4:3
    # (d(d+1)/2 <= |G|) read it up to p = 6 and leave it at p = 8: their s2^2 x 64 table would
    # be larger than M_n(x), s2 = 231 and 1035
    specs = ([f"walsh:{n}:{m}" for n in (2, 3, 4) for m in (1, 2, 3)] + ["delta:3", "delta:7"]
             + [f"wordlength:{n}" for n in range(4, 17)]
             + [f"heisenberg-{mode}:{n}" for mode in ("delta", "wordlength") for n in (2, 3, 4)])
    cocs = {spec: realize_cocycle(gromov_form(builtin_length(spec))) for spec in specs}
    on_at_8 = {"walsh:2:1", "walsh:2:2", "walsh:2:3", "walsh:3:1", "delta:3", "wordlength:4",
               "wordlength:6", "heisenberg-delta:2", "heisenberg-delta:3", "heisenberg-delta:4",
               "heisenberg-wordlength:2", "heisenberg-wordlength:3", "heisenberg-wordlength:4"}
    want = {2.0: on_at_8 | {"walsh:3:3", "walsh:4:3"}, 4.0: on_at_8 | {"walsh:3:3", "walsh:4:3"},
            6.0: on_at_8 | {"walsh:3:3", "walsh:4:3"}, 8.0: on_at_8}
    for p, expected in want.items():
        on = {spec for spec, coc in cocs.items()
              if dilation._gram_route(coc.dimension, coc.group.order, 64, 4096, p)}
        assert on == expected, p


@functools.cache
def _scenario(spec):
    coc = realize_cocycle(gromov_form(builtin_length(spec)))
    return sample_scenario(coc, 8, 0.125, 16, seed=9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("walsh:2:2", "wordlength:6", "heisenberg-delta:2", "heisenberg-wordlength:3")),
       st.integers(0, 10 ** 6), st.integers(0, 15), st.integers(0, 8), st.sampled_from((1.0, 3.0, 4.0)))
def test_dilation_preserves_schatten_moments_hypothesis(spec, index, sample, k, p):
    """tau|pi_t(x)|^p = tau|Lambda(x)|^p per sample and grid time: pi_t is a unitary
    conjugation of the regular representation (odd p through the singular values)."""
    sc = _scenario(spec)
    x = element(sc.cocycle.group, rand_coeffs(sc.cocycle.group.order, index))
    got = schatten_pow_batch(dilation_matrix(x, k * sc.dt, sc, sample), p)
    want = schatten_pow_batch(regular_rep(x), p)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
def test_brackets_match_cocycle_coordinate_reference(p, small_scenario, wordlength_scenario,
                                                     heisenberg_scenario):
    # at odd p/2 the PSD trace route meets the reference's singular values; p = 2 alone
    # cannot tell S_c built from x from one built from x*: tau(S) is the same
    cases = [(small_scenario, [0.0, 1.0, 0.7, 0.3j]),
             (wordlength_scenario, rand_coeffs(6, 3)),
             (heisenberg_scenario, rand_coeffs(27, 4))]
    for sc, coeffs in cases:
        x = element(sc.cocycle.group, coeffs)
        est = brackets(x, sc, 1.0, p)
        for got, want in zip((est.hc, est.hr), bracket_reference(x, sc, 1.0, p)):
            assert got.mean == pytest.approx(want.mean, rel=1e-12)
            # absolute 1e-15 for SEs that are rounding noise (walsh:2:2)
            assert got.se == pytest.approx(want.se, rel=1e-12, abs=1e-15)


def test_ito_isometry(small_scenario):
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    vals = schatten_pow_batch(martingale_transform(x, sc, 1.0, 2.0).M, 2.0)
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(sc.samples)
    assert abs(mean - transform_l2_analytic(x, sc, 1.0)) <= 5 * se


def test_ito_isometry_decoupled(small_scenario):
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    vals = schatten_pow_batch(martingale_transform(x, sc, 1.0, 2.0).Mt, 2.0)
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(sc.samples)
    assert abs(mean - transform_l2_analytic(x, sc, 1.0)) <= 5 * se


def test_transform_norms_deterministic(small_scenario):
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    tr = martingale_transform(x, sc, 1.0, 4.0)
    tr2 = martingale_transform(x, sc, 1.0, 4.0)
    assert tr.M.shape == tr.Mt.shape == (sc.samples, 4, 4)
    for a, b in zip(tr, tr2):
        assert np.array_equal(a, b)
    assert not np.allclose(tr.M, tr.Mt)


def test_richardson_step_refinement():
    # halving dt roughly halves the discretization error of hc
    coc = walsh_cocycle(2, 2)
    x = element(coc.group, [0.0, 1.0, 0.7, 0.3j])
    L = 1.0
    vals = []
    for steps in (16, 32, 64):
        sc = sample_scenario(coc, steps, L / steps, 1024, seed=7)
        vals.append(brackets(x, sc, L, 4.0).hc.mean)
    ratio = (vals[2] - vals[1]) / (vals[1] - vals[0])
    assert 0.3 < ratio < 0.7


def test_step_bracket_halves_with_dt():
    # hd^p ~ sum_k E||dx_k||_p^p with ||dx_k|| ~ sqrt(dt): halving dt halves hd^p
    coc = walsh_cocycle(2, 2)
    x = element(coc.group, [0.0, 1.0, 0.7, 0.3j])
    L = 1.0
    vals = []
    for steps in (32, 64):
        sc = sample_scenario(coc, steps, L / steps, 512, seed=3)
        est = brackets(x, sc, L, 4.0)
        vals.append(est.hd.mean ** 4.0)
    factor = vals[1] / vals[0]
    assert 0.44 < factor < 0.60


def test_inequality_report_fields(small_scenario):
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    cert = best_alpha_pencil(gromov_form(sc.semigroup.psi))
    rep = inequality_report(x, sc, 1.0, 4.0, alpha_cert=cert)
    assert_report_pinned(dataclasses.asdict(rep), PINNED_REPORT)
    assert rep.p == 4.0
    assert rep.transform_norm.mean > 0
    assert rep.decoupled_norm.mean > 0
    assert rep.decoupling_ratio == pytest.approx(
        rep.transform_norm.mean / rep.decoupled_norm.mean)
    assert rep.bdg_ratio <= 2.0
    assert abs(rep.ito_mc.mean - rep.ito_analytic) <= 5 * rep.ito_mc.se
    assert rep.bracket_bound is not None
    assert rep.bracket_bound.slack >= -3 * max(rep.bracket_bound.se, 1e-12)
    with pytest.raises(ValueError, match="^p = 5.0 is not one of 2.0, 4.0, 6.0, 8.0$"):
        inequality_report(x, sc, 1.0, 5.0)


def test_inequality_report_on_the_realized_word_length_of_z255():
    """The scenario's semigroup rebuilds psi from B, symmetric only to 2.9e-12 on Z_255."""
    coc = realize_cocycle(gromov_form(builtin_length("wordlength:255")))
    sc = sample_scenario(coc, 2, 0.5, 8, seed=0)
    rep = inequality_report(delta(coc.group, 1), sc, 1.0, 2.0)
    assert rep.p == 2.0 and rep.transform_norm.mean > 0


def test_inequality_report_without_alpha(small_scenario):
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.0, 0.0])
    rep = inequality_report(x, sc, 1.0, 2.0,
                            alpha_cert=AlphaCertificate(0.0, "synthetic",
                                                        np.zeros(1), 0.0))
    assert rep.bracket_bound is None


def test_inequality_report_refuses_a_vanishing_transform(small_scenario, heisenberg_scenario):
    # x = lambda(e), or lambda of a central (a, 0, 0) of H_3(Z_3), lies in the fixed-point
    # algebra: M_n(x) = M~_n(x) = 0 (up to the rounding of b(h^{-1}g) - b(h^{-1}) on H_3)
    # and S_c = S_r = 0 exactly, so both ratios would read 0/0; a tiny x has p = 8 moments
    # that underflow to the same 0/0
    central = np.eye(27)[9]
    assert heisenberg_scenario.cocycle.psi[9] == 0.0
    cases = [(small_scenario, [1.0, 0, 0, 0], 4.0), (small_scenario, [2.0, 0, 0, 0], 2.0),
             (small_scenario, [0, 1e-200, 0, 0], 8.0), (heisenberg_scenario, central, 4.0)]
    for sc, coeffs, p in cases:
        x = element(sc.cocycle.group, coeffs)
        if p == 4.0:
            tr = martingale_transform(x, sc, 1.0, p)
            assert np.abs(tr.M).max() <= 1e-12 and not tr.sc_pow.any() and not tr.sr_pow.any()
        with pytest.raises(ValueError, match=f"M_n\\(x\\) vanishes at p = {p:g}: x lies in the "
                                             "fixed-point algebra"):
            inequality_report(x, sc, 1.0, p)


def test_inequality_report_draws_each_block_once(small_scenario, monkeypatch):
    # one chunk pass: the transform, the brackets and h_d read one draw of each
    # sample's increment block and of its copy, in one chunk or in chunks of 7
    sc = small_scenario
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    for size in (sc.samples, 7):
        drawn = {"increments": [], "increments_copy": []}
        with monkeypatch.context() as m:
            m.setattr(linalg, "BLOCK_ENTRIES", size * _sample_entries(sc))
            for name, log in drawn.items():
                draw = getattr(dilation.BrownianScenario, name)
                m.setattr(dilation.BrownianScenario, name, lambda self, lo, hi, draw=draw, log=log:
                          log.extend(range(lo, hi)) or draw(self, lo, hi))
            inequality_report(x, sc, 1.0, 4.0)
        for name, log in drawn.items():
            assert sorted(log) == list(range(sc.samples)), (size, name)


def _log_draws(m, drawn):
    """Patch both increment draws to log the samples each draws into drawn[name]."""
    for name, log in drawn.items():
        draw = getattr(dilation.BrownianScenario, name)
        m.setattr(dilation.BrownianScenario, name, lambda self, lo, hi, draw=draw, log=log:
                  log.extend(range(lo, hi)) or draw(self, lo, hi))


def _fresh_route_scenario(spec):
    coc = realize_cocycle(gromov_form(builtin_length(spec)))
    return lambda: sample_scenario(coc, 16, 0.125, 256, seed=5)


@pytest.mark.parametrize("spec, gram", [("walsh:2:2", True), ("wordlength:8", False)])
def test_a_p_grid_shares_one_pass(spec, gram, monkeypatch):
    # p = 2, 4, 8 on one scenario: the copy and the primary increments are drawn once for the
    # grid (the later p read h_d, on their route, off the kept dB), and each report equals
    # the report on a fresh scenario.  Chunks of 37 samples keep M, M~ and dB (256 x (2 |G|^2
    # + 16 d) entries) within one chunk's budget
    fresh = _fresh_route_scenario(spec)
    sc = fresh()
    coc = sc.cocycle
    assert all(dilation._gram_route(sc.d, coc.group.order, 16, 256, p) == gram
               for p in BRACKET_PS)
    x = element(coc.group, rand_coeffs(coc.group.order, 3))
    cert = best_alpha_pencil(gromov_form(sc.semigroup.psi))
    for size in (sc.samples, 37):
        sc = fresh()
        drawn = {"increments": [], "increments_copy": []}
        with monkeypatch.context() as m:
            m.setattr(linalg, "BLOCK_ENTRIES", size * _sample_entries(sc))
            _log_draws(m, drawn)
            reports = [inequality_report(x, sc, 2.0, p, cert) for p in (2.0, 4.0, 8.0)]
        assert sorted(drawn["increments_copy"]) == list(range(sc.samples)), (spec, size)
        assert sorted(drawn["increments"]) == list(range(sc.samples)), (spec, size)
        for p, rep in zip((2.0, 4.0, 8.0), reports):
            assert rep == inequality_report(x, fresh(), 2.0, p, cert), (spec, size, p)


def test_a_served_p_or_another_call_runs_a_fresh_pass(monkeypatch):
    # the scenario serves its pass once to each p for one x, L and block plan, and a served p
    # draws nothing; a repeated p, another x, another L (within the horizon's tolerance) or
    # another plan draws both the increments and the copy again, and so runs the kernel, and so
    # does every p where M, M~ and dB (64 x (2 x 16 + 8 x 2) entries) outgrow one chunk's
    # budget, which keeps no pass; the served M and M~ are read-only
    sc = sample_scenario(walsh_cocycle(2, 2), 8, 0.125, 64, seed=5)
    x = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.3j])
    y = element(sc.cocycle.group, [0.0, 1.0, 0.7, 0.4j])
    base = martingale_transform(x, sc, 1.0, 2.0)
    assert not base.M.flags.writeable and not base.Mt.flags.writeable
    calls = [("another p", lambda: martingale_transform(x, sc, 1.0, 4.0), False),
             ("a repeated p", lambda: martingale_transform(x, sc, 1.0, 4.0), True),
             ("another x", lambda: martingale_transform(y, sc, 1.0, 6.0), True),
             ("another L", lambda: martingale_transform(y, sc, 1.0 + 1e-14, 8.0), True),
             ("another plan", lambda: martingale_transform(y, sc, 1.0 + 1e-14, 2.0), True),
             ("too large", lambda: martingale_transform(y, sc, 1.0 + 1e-14, 4.0), True),
             ("too large, another p", lambda: martingale_transform(y, sc, 1.0 + 1e-14, 8.0), True)]
    budget = {"another plan": 7 * _sample_entries(sc), "too large": 64 * (2 * 16 + 8 * 2) - 1,
              "too large, another p": 64 * (2 * 16 + 8 * 2) - 1}
    for name, call, fresh in calls:
        drawn = {"increments": [], "increments_copy": []}
        with monkeypatch.context() as m:
            if name in budget:
                m.setattr(linalg, "BLOCK_ENTRIES", budget[name])
            _log_draws(m, drawn)
            call()
        for log in drawn.values():
            assert sorted(log) == (list(range(sc.samples)) if fresh else []), name
    again = martingale_transform(x, sc, 1.0, 2.0)
    for a, b in zip(again, base):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec, gram", [("walsh:2:2", True), ("wordlength:8", False)])
def test_a_served_p_equals_a_fresh_scenario_sample_by_sample(spec, gram, monkeypatch):
    # every TransformPass field of each p served from one kept pass, byte for byte, against the
    # same p on a fresh scenario: at the default plan and at chunks of 37 samples, on the
    # moment-table route (walsh:2:2) and the commutator route (wordlength:8).  A report's
    # means and SEs can absorb a last-bit change in one sample; these bytes cannot
    fresh = _fresh_route_scenario(spec)
    sc = fresh()
    assert all(dilation._gram_route(sc.d, sc.cocycle.group.order, 16, 256, p) == gram
               for p in BRACKET_PS)
    x = element(sc.cocycle.group, rand_coeffs(sc.cocycle.group.order, 6))
    for size in (None, 37):
        sc = fresh()
        with monkeypatch.context() as m:
            if size is not None:
                m.setattr(linalg, "BLOCK_ENTRIES", size * _sample_entries(sc))
            for p in BRACKET_PS:
                served, want = martingale_transform(x, sc, 2.0, p), martingale_transform(
                    x, fresh(), 2.0, p)
                for field in TransformPass._fields:
                    a, b = np.asarray(getattr(served, field)), np.asarray(getattr(want, field))
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (spec, size, p, field)
        assert sc._pass["ps"] == set(BRACKET_PS), (spec, size)


def test_a_pass_whose_increments_outgrow_the_budget_is_not_kept(monkeypatch):
    # walsh:2:2 at 256 x 16: M and M~ (2 x 256 x 16 entries) fit a budget one entry short of
    # them with dB (256 x (2 x 16 + 16 x 2)), which is then kept for no p: each p draws the
    # increments and the copy again, and its report equals a fresh scenario's.  One entry more
    # keeps the pass, with every sample's dB as a fresh draw gives it
    fresh = _fresh_route_scenario("walsh:2:2")
    sc = fresh()
    x = element(sc.cocycle.group, rand_coeffs(4, 3))
    budget = 256 * (2 * 16 + 16 * 2) - 1
    assert 2 * 256 * 16 <= budget
    with monkeypatch.context() as m:
        m.setattr(linalg, "BLOCK_ENTRIES", budget)
        want = {p: inequality_report(x, fresh(), 2.0, p) for p in (2.0, 4.0, 8.0)}
        for p in (2.0, 4.0, 8.0):
            drawn = {"increments": [], "increments_copy": []}
            with monkeypatch.context() as inner:
                _log_draws(inner, drawn)
                assert inequality_report(x, sc, 2.0, p) == want[p], p
            for name, log in drawn.items():
                assert sorted(log) == list(range(sc.samples)), (p, name)
            assert sc._pass == {}, p
    with monkeypatch.context() as m:
        m.setattr(linalg, "BLOCK_ENTRIES", budget + 1)
        inequality_report(x, sc, 2.0, 2.0)
        assert sc._pass["dB"].tobytes() == sc.increments(0, sc.samples).tobytes()


def test_an_x_over_another_group_is_refused():
    # x on walsh:2:2's Z_2 x Z_2 has the order of the scenario's Z_4 and once ran to a
    # transform norm without an error; x on walsh:2:3's group died in numpy's broadcasting
    sc = sample_scenario(word_length_cocycle(4), 4, 0.25, 8, 0)
    for spec in ("walsh:2:2", "walsh:2:3"):
        group = builtin_length(spec).group
        x = element(group, rand_coeffs(group.order, 1))
        for call in (lambda: martingale_transform(x, sc, 1.0, 4.0),
                     lambda: inequality_report(x, sc, 1.0, 4.0),
                     lambda: dilation_matrix(x, 0.5, sc, 0), lambda: dilation_mean(x, 0.5, sc),
                     lambda: transform_l2_analytic(x, sc, 1.0)):
            with pytest.raises(ValueError, match="^x lives over another group than the "
                                                 "scenario's: their multiplication tables differ$"):
                call()


def test_inequality_report_independent_of_chunking(monkeypatch):
    # ... and of the chunking: chunks of 1, 7 and all samples, and the default;
    # dilation_mean too
    for spec, steps, samples in (("walsh:2:2", 64, 1536), ("heisenberg-wordlength:3", 16, 64)):
        coc = realize_cocycle(gromov_form(builtin_length(spec)))
        sc = sample_scenario(coc, steps, 2.0 / steps, samples, seed=11)
        # the default takes several chunks
        assert len(blocks(samples, _sample_entries(sc))) >= 2
        x = element(coc.group, [0.0, 1.0, 0.7, 0.3j] if spec == "walsh:2:2"
                    else rand_coeffs(coc.group.order, 5))
        cert = best_alpha_pencil(gromov_form(sc.semigroup.psi))
        reps, means = {}, {}
        for size in (None, 1, 7, samples):
            name = f"chunk={size}"
            with monkeypatch.context() as m:
                if size is not None:
                    m.setattr(linalg, "BLOCK_ENTRIES", size * _sample_entries(sc))
                reps[name] = inequality_report(x, sc, 2.0, 4.0, alpha_cert=cert)
                means[name] = dilation_mean(x, 0.5, sc)
        want, (mean, se) = reps["chunk=None"], means["chunk=None"]
        for name, rep in reps.items():
            assert rep == want, (spec, name)
            assert np.array_equal(means[name][0], mean) and np.array_equal(means[name][1], se), \
                (spec, name)


BLAS_THREADS_SCRIPT = """
import dataclasses, json
from cocycle_lab.algebra import element
from cocycle_lab.cocycles import gromov_form, realize_cocycle
from cocycle_lab.criterion import best_alpha_pencil
from cocycle_lab.dilation import inequality_report, sample_scenario
from cocycle_lab.families import builtin_length
for spec, steps, samples in (("walsh:2:2", 64, 1024), ("heisenberg-wordlength:3", 16, 256)):
    K = gromov_form(builtin_length(spec))
    sc = sample_scenario(realize_cocycle(K), steps, 2.0 / steps, samples, 11)
    group, cert = sc.cocycle.group, best_alpha_pencil(K)
    x = element(group, [complex(k % 3, 1.0 / (k + 1)) for k in range(group.order)])
    for p in (2.0, 4.0, 8.0):
        print(json.dumps(dataclasses.asdict(inequality_report(x, sc, 2.0, p, cert))))
"""


def test_inequality_report_independent_of_blas_threads():
    # the product of E with the stacked increments is a BLAS call: reports under one and
    # two OpenBLAS threads are byte-identical
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], capture_output=True,
                             text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0].count("\n") == 6
    assert outs[0] == outs[1]
