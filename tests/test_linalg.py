import numpy as np
import pytest

from cocycle_lab.algebra import Semigroup, element
from cocycle_lab.cocycles import (gromov_form, is_conditionally_negative, realize_cocycle,
                                  verify_schur_identity, word_length_cocycle, word_length_psi)
from cocycle_lab.criterion import check_element
from cocycle_lab.dilation import inequality_report, sample_scenario
from cocycle_lab.families import builtin_length, heisenberg_delta, walsh_length
from cocycle_lab.groups import build_cyclic, build_heisenberg, build_power
from cocycle_lab.linalg import psd_verdict, require, schatten_norm
from cocycle_lab.matrixalg import (alpha_battery, clock_shift_basis, heisenberg_multiplier,
                                   lindblad_gamma_residual, lindblad_generator,
                                   matrix_worst_constant)
from cocycle_lab.poincare import worst_constant


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

# calls that once died with numpy's or Python's TypeError, an IndexError, or ran on a coerced
# value (True as 1, 10.5 as 10), or returned a residual of an empty battery
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
