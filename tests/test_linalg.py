import inspect
import re

import numpy as np
import pytest

from cocycle_lab.algebra import Semigroup, element, gamma_norm
from cocycle_lab.cocycles import (gromov_form, is_conditionally_negative, realize_cocycle,
                                  verify_schur_identity, word_length_cocycle, word_length_psi)
from cocycle_lab.criterion import check_element
from cocycle_lab.dilation import inequality_report, sample_scenario
from cocycle_lab.families import builtin_length, heisenberg_delta, walsh_length
from cocycle_lab.groups import build_cyclic, build_heisenberg, build_power
from cocycle_lab.linalg import (SMALL_N, _pow2_scale, _psd_moments, psd_verdict, require, root,
                               schatten_norm, schatten_pow_batch)
from cocycle_lab.matrixalg import (alpha_battery, clock_shift_basis, heisenberg_multiplier,
                                   lindblad_gamma_residual, lindblad_generator,
                                   matrix_worst_constant)
from cocycle_lab.poincare import worst_constant

from conftest import rand_matrix, svd_schatten


def test_require_shows_the_value_as_json():
    assert require(3, "n", lambda v: v > 0, "positive") == 3
    for value, shown in ((True, "true"), ("3", '"3"'), (None, "null"), (float("nan"), "NaN"),
                         (np.int64(-2), "-2"), (np.float64(0.5), "0.5"), ({1}, '"{1}"'),
                         (10 ** 100, "1" + "0" * 76 + "...")):
        with pytest.raises(ValueError) as info:
            require(value, "x", lambda v: False, "good")
        assert str(info.value) == f"x = {shown} is not good"


def _sg():
    return Semigroup(word_length_psi(4))


def _scenario():
    return sample_scenario(realize_cocycle(gromov_form(builtin_length("walsh:2:2"))), 4, 0.25, 8, 0)


_WL4 = word_length_psi(4)
_M2 = lambda: heisenberg_multiplier(2, "delta")
_A = [np.diag([0.0, 1.0])]

# calls that once died with numpy's or Python's TypeError, an IndexError (a Schatten norm of a
# vector or a scalar, or numpy's AxisError at odd p), or ran on a coerced value (True as 1, 10.5
# as 10), or returned a residual of an empty battery
TYPE_GAPS = [
    ("build_cyclic(3.0)", lambda: build_cyclic(3.0), "cyclic n = 3.0 is not an integer >= 1"),
    ("build_power(2.0, 2)", lambda: build_power(2.0, 2), "product n = 2.0 is not an integer >= 1"),
    ("word_length_psi(4.0)", lambda: word_length_psi(4.0),
     "cyclic n = 4.0 is not an integer >= 1"),
    ("walsh_length(2.5, 2)", lambda: walsh_length(2.5, 2), "walsh n = 2.5 is not an integer >= 2"),
    ("clock_shift_basis(2.0)", lambda: clock_shift_basis(2.0),
     "clock/shift n = 2.0 is not an integer >= 2"),
    ("heisenberg_multiplier(2.0)", lambda: heisenberg_multiplier(2.0),
     "clock/shift n = 2.0 is not an integer >= 2"),
    ("verify_schur_identity(4.0)", lambda: verify_schur_identity(4.0),
     "Schur n = 4.0 is not an even integer >= 4"),
    ("word_length_cocycle(4.0)", lambda: word_length_cocycle(4.0),
     "word-length realization n = 4.0 is not an even integer >= 2"),
    ("heisenberg_delta(2.0)", lambda: heisenberg_delta(2.0),
     "Heisenberg n = 2.0 is not an integer >= 2"),
    ("build_heisenberg(True)", lambda: build_heisenberg(True),
     "Heisenberg n = true is not an integer >= 2"),
    *[(f"worst_constant(budget={b!r})", lambda b=b: worst_constant(_sg(), 4, budget=b),
       f"budget = {shown} is not an integer >= 1")
      for b, shown in ((10.5, "10.5"), (True, "true"), ("10", '"10"'))],
    *[(f"matrix_worst_constant(budget={b!r})", lambda b=b: matrix_worst_constant(_M2(), 4, budget=b),
       f"budget = {shown} is not an integer >= 1")
      for b, shown in ((10.5, "10.5"), (True, "true"), ("10", '"10"'))],
    ("schatten_norm(x, True)", lambda: schatten_norm(np.eye(2), True),
     "Schatten p = true is not a number >= 1"),
    ("schatten_norm(x, '4')", lambda: schatten_norm(np.eye(2), "4"),
     'Schatten p = "4" is not a number >= 1'),
    *[(f"{f.__name__}({x!r}, {p})", lambda f=f, x=x, p=p: f(x, p),
       f"Schatten norm input has shape {np.shape(x)}: not a matrix")
      for f in (schatten_norm, schatten_pow_batch) for x in (np.ones(3), np.float64(2.0))
      for p in (2, 3)],
    ("psd_verdict(w, tol='x')", lambda: psd_verdict(np.zeros(2), tol="x"),
     'tol = "x" is not a finite number >= 0'),
    ("is_conditionally_negative(psi, tol='x')", lambda: is_conditionally_negative(_WL4, tol="x"),
     'tol = "x" is not a finite number >= 0'),
    ("check_element(sg, f, '1')",
     lambda: check_element(_sg(), element(_WL4.group, [0, 1, 0, 0]), "1"),
     'alpha = "1" is not a finite number >= 0'),
    ("alpha_battery(A, '1', 0, 5)", lambda: alpha_battery(_M2(), "1", 0, 5),
     'alpha = "1" is not a finite number >= 0'),
    ("inequality_report(x, sc, '1', 4.0)",
     lambda: inequality_report(element(build_power(2, 2), [0, 1, 0.7, 0]), _scenario(), "1", 4.0),
     'L = "1" is not a number'),
    ("lindblad_gamma_residual(A, a, 0, 0)",
     lambda: lindblad_gamma_residual(lindblad_generator(_A), _A, 0, 0),
     "samples = 0 is not an integer >= 1"),
]


@pytest.mark.parametrize("call, want", [case[1:] for case in TYPE_GAPS],
                         ids=[case[0] for case in TYPE_GAPS])
def test_a_bad_scalar_is_named_with_its_value(call, want):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == want


def _psd(n: int, count: int, index: int) -> np.ndarray:
    """count PSD n x n matrices B* B, from unnormalized random B."""
    B = np.stack([rand_matrix(n, index + i, unit=False) for i in range(count)])
    return np.swapaxes(B.conj(), -1, -2) @ B


@pytest.mark.parametrize("n", [2, 3])
def test_small_stack_moments_are_per_matrix(n):
    """Each matrix's moment and norm alone equal its row in stacks of 1, 2, 17 and 670, bit for
    bit, and the SVD's to 1e-13: on n x n stacks, whose products are broadcast multiply-adds at
    n <= SMALL_N, on PSD stacks through _psd_moments at odd q, and on the (d n) x n derivations
    D(x) of the delta multiplier, whose products D* D are broadcast multiply-adds at n = 2
    (d = 2) and np.matmul's at n = 3 (d = 4)."""
    assert n <= SMALL_N
    x = np.stack([rand_matrix(n, 700 + i, unit=False) for i in range(670)])
    tall = heisenberg_multiplier(n, "delta").derive(x)
    assert (n * tall.shape[1] * n <= SMALL_N ** 3) is (n == 2)
    schatten = (schatten_pow_batch, schatten_norm)
    kernel = (lambda m, q: _psd_moments(m, (q,))[0],
              lambda m, q: _psd_moments(m, (q,), True)[0])
    cases = [(p, np.stack([rand_matrix(n, 300 + i, unit=False) for i in range(670)]), schatten)
             for p in (2, 4, 6, 8, 12, 16)]
    cases += [(q, _psd(n, 670, 1300), kernel) for q in (3, 5, 7)]
    cases += [(p, tall, schatten) for p in (2, 3, 4, 6, 8, 12, 16)]
    for p, X, (moment, norm) in cases:
        alone = [np.array([f(m, p) for m in X]) for f in (moment, norm)]
        for count in (1, 2, 17, 670):
            assert np.array_equal(moment(X[:count], p), alone[0][:count]), p
            assert np.array_equal(norm(X[:count], p), alone[1][:count]), p
        ref = svd_schatten(X, p)
        assert np.all(np.abs(alone[1] - ref) <= 1e-13 * ref), p
        assert np.all(np.abs(alone[0] - ref ** p) <= 1e-13 * ref ** p), p


def test_schatten_norms_take_no_positivity_on_trust():
    """No caller can declare a matrix PSD: odd p takes the singular values, where a PSD flag once
    read 2.3513 for [[1, 2], [2, 1]] at p = 3 (indefinite, diagonal >= 0, tau(X^3) > 0), 1.5183
    for diag(2, -1), and 1.8171 for the 3 x 2 ones matrix, whose broadcast product went
    unchecked."""
    for x, want in (([[1.0, 2.0], [2.0, 1.0]], 2.4101), (np.diag([2.0, -1.0]), 1.6510),
                    (np.ones((3, 2)), 1.9442)):
        got = schatten_norm(np.asarray(x), 3)
        assert got == pytest.approx(svd_schatten(np.asarray(x), 3), rel=1e-14)
        assert round(got, 4) == want
    for f in (schatten_norm, schatten_pow_batch, gamma_norm):
        assert "psd" not in inspect.signature(f).parameters


def test_a_moment_rejects_p_inf():
    """schatten_pow_batch(X, inf) once read inf for 2 I and 0.0 for 0.5 I, whatever the spectrum;
    the norm at p = inf stays the largest singular value."""
    for x in (2.0 * np.eye(2), 0.5 * np.eye(2)):
        with pytest.raises(ValueError, match=r"^Schatten moment p = Infinity is not finite$"):
            schatten_pow_batch(x, np.inf)
        with pytest.raises(ValueError, match=r"^trace power q = Infinity is not an integer >= 1$"):
            _psd_moments(x, (np.inf,))
        assert schatten_norm(x, np.inf) == x[0, 0]
    assert schatten_norm(np.diag([3.0, -5.0, 1.0]), np.inf) == 5.0


def test_wide_stacks_are_rejected():
    """A stack with fewer rows than columns once read a norm that mixed two normalizations
    (schatten_norm(np.ones((1, 2)), p) gave 1.0, 1.4142 and 1.1892 at p = 2, 3, 4)."""
    for p in (2, 3, 4):
        for f in (schatten_norm, schatten_pow_batch):
            with pytest.raises(ValueError, match=r"^Schatten norm input has 1 x 2 matrices: "
                                                 r"fewer rows than columns$"):
                f(np.ones((1, 2)), p)
    assert schatten_norm(np.ones((2, 1)), 3) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def _matmul_moment(x: np.ndarray, p: int) -> np.ndarray:
    """tau(|X|^p) per matrix by np.matmul and np.linalg.matrix_power, the products' BLAS route."""
    c, y = _pow2_scale(x)
    n = y.shape[-1]
    if p % 2:
        z = np.linalg.matrix_power(y, p // 2)
        acc = (z.conj() * (y @ z)).real.reshape(len(y), -1).sum(axis=-1) / n
    else:
        m, z = p // 2, y
        if m > 1:
            z = np.linalg.matrix_power(np.swapaxes(y.conj(), -1, -2) @ y, m // 2)
            if m % 2:
                z = y @ z
        acc = (z * z.conj()).real.reshape(len(z), -1).sum(axis=-1) / n
    return c ** p * acc


@pytest.mark.parametrize("n", [4, 5])
def test_larger_stacks_keep_matmul(n):
    """Past SMALL_N the moments are np.matmul's and matrix_power's, bit for bit."""
    X = np.stack([rand_matrix(n, 400 + i, unit=False) for i in range(33)])
    psd = _psd(n, 33, 500)
    for p in (2, 4, 6, 8, 10, 12, 14, 16):
        assert np.array_equal(schatten_pow_batch(X, p), _matmul_moment(X, p)), p
    for q in (3, 5, 7, 9):
        assert np.array_equal(_psd_moments(psd, (q,))[0], _matmul_moment(psd, q)), q


@pytest.mark.parametrize("n", [4, 8, 27])
def test_psd_moments_equal_the_moment_at_each_q(n):
    """_psd_moments reads tau(X^q) at every q of the dilation brackets, q = 1, 2, 3, 4, off one
    scaled stack, each q as it reads alone: schatten_pow_batch's and schatten_norm's at even q
    and _matmul_moment's at q = 3, bit for bit, and the SVD's root at odd q to 1e-12, on
    (2, c, n, n) stacks shaped like S_c and S_r."""
    r = np.random.default_rng(n)
    qs = (1.0, 2.0, 3.0, 4.0)
    for c in (1, 7, 512):
        b = r.standard_normal((2, c, n, n)) + 1j * r.standard_normal((2, c, n, n))
        s = np.swapaxes(b.conj(), -1, -2) @ b
        for take_root, even in ((False, schatten_pow_batch), (True, schatten_norm)):
            got = _psd_moments(s, qs, take_root)
            for q, g in zip(qs, got):
                assert np.array_equal(g, _psd_moments(s, (q,), take_root)[0]), (c, q, take_root)
                if q % 2 == 0:
                    assert np.array_equal(g, even(s, q)), (c, q, take_root)
                elif take_root:
                    ref = svd_schatten(s, q)
                    assert np.all(np.abs(g - ref) <= 1e-12 * ref), (c, q)
        moment = _matmul_moment(s.reshape(-1, n, n), 3).reshape(2, c)
        assert np.array_equal(_psd_moments(s, qs)[2], moment), c


def _refuses(mats, q, want):
    """_psd_moments(mats, ...) raises ValueError(want) at q alone and among even q, with and
    without the root."""
    for qs in ((q,), (2, q, 4)):
        for take_root in (False, True):
            with pytest.raises(ValueError, match=f"^{want}$"):
                _psd_moments(mats, qs, take_root)


def test_trace_power_rejects_a_negative_trace_power():
    """A stack whose odd trace power is negative, which a broken PSD certificate would pass,
    raises, naming the matrix, where a complex root's real part (or a negative moment) once
    came back."""
    neg = r"is not PSD: its trace power tau\(X\^"
    _refuses(-np.eye(2), 3, rf"trace power input {neg}3\) is -1\.0 < 0")
    _refuses(-np.eye(2)[None], 3, rf"trace power input\(0\) {neg}3\) is -1\.0 < 0")
    stack = np.stack([np.eye(2), np.diag([1.0, -2.0]), -np.eye(2)])
    _refuses(stack, 5, rf"trace power input\(1\) {neg}5\) is -15\.5 < 0")
    # the Schatten norm at odd p takes the singular values
    assert schatten_norm(-np.eye(2), 3) == 1.0


def test_trace_power_rejects_a_negative_diagonal():
    """A stack with a positive odd trace power but a negative diagonal entry, which no PSD matrix
    has, raises, naming the matrix: diag(2, -1) once read ||X||_3 = 1.5183 where the singular
    values give 1.6510.  A diagonal entry of -1e-9 times the scale is let through."""
    x = np.diag([2.0, -1.0])
    assert schatten_norm(x, 3) == pytest.approx(1.6509636244473134, rel=1e-15)
    diag = r"is not PSD: its least diagonal entry is -1\.0 < 0"
    _refuses(x, 3, rf"trace power input {diag}")
    _refuses(np.stack([np.eye(2), x])[:, None], 5, rf"trace power input\(1,0\) {diag}")
    # within DEFAULT_TOL of the matrix's power-of-two scale, 2 here
    y = np.diag([2.0, -1e-9])
    assert np.array_equal(_psd_moments(y, (2, 3)),
                          [schatten_pow_batch(y, 2), _matmul_moment(y[None], 3)[0]])
    assert _psd_moments(y, (3,), True)[0] == pytest.approx(schatten_norm(y, 3), rel=1e-12)


def test_trace_power_rejects_a_stack_that_is_not_square():
    """The broadcast product once multiplied a 3 x 2 by a 3 x 2 with no inner-dimension check,
    and a 3 x 2 ones matrix read 1.8171 where its norm is 1.9442."""
    for x in (np.ones((3, 2)), np.ones((5, 3, 2)), np.ones(3)):
        _refuses(x, 3, rf"trace power input has shape {re.escape(str(x.shape))}: not square")
    assert schatten_norm(np.ones((3, 2)), 3) == pytest.approx(1.9442, abs=5e-5)


def test_psd_moments_refuse_what_the_trace_power_refuses():
    """A q that is no integer >= 1 raises, naming q, at q alone and among even q, where
    diag(1, 4) once read 2.924 at q = 1.5 for a norm of 2.726; an integer q given as a float
    is taken."""
    for q, shown in ((0, "0"), (0.5, "0.5"), (1.5, "1.5"), (-1, "-1"), (np.nan, "NaN"),
                     (np.inf, "Infinity"), (True, "true")):
        _refuses(np.diag([1.0, 4.0]), q, rf"trace power q = {shown} is not an integer >= 1")
    assert schatten_norm(np.diag([1.0, 4.0]), 1.5) == pytest.approx(2.726, abs=5e-4)
    assert np.array_equal(_psd_moments(np.eye(2), (1, 2.0, 3.0)), [1.0, 1.0, 1.0])


@pytest.mark.parametrize("k", [2, 3, 4, 6, 16])
def test_root_rounds_as_scalar_power(k):
    """root(x, k) is [v ** (1/k) for v in x] bit for bit, in the shape of x; a negative
    entry raises, naming it."""
    tiny = np.finfo(float).smallest_subnormal
    values = np.concatenate([[0.0, tiny, 3 * tiny, 2.2e-308, np.finfo(float).max, 1.7e308],
                             np.random.default_rng(k).uniform(0.0, 10.0, 6)])
    for x in (values.reshape(3, 4), values[5], np.array(values[7]), np.empty(0)):
        got = root(x, k)
        want = np.array([v ** (1 / k) for v in np.ravel(x).tolist()]).reshape(np.shape(x))
        assert got.shape == np.shape(x) and got.dtype == float
        assert np.array_equal(got, want)
    bad = values.reshape(3, 4).copy()
    bad[2, 1] = -2.5
    with pytest.raises(ValueError, match=rf"^root of order {k}: x\(2,1\) = -2\.5 is negative$"):
        root(bad, k)
    with pytest.raises(ValueError, match=rf"^root of order {k}: x = -1e-300 is negative$"):
        root(-1e-300, k)
