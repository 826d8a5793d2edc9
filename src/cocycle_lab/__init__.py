"""Cocycle machinery on finite groups: conditionally negative length
functions, Gromov forms and 1-cocycle realizations, the group-algebra
heat semigroup with its Gamma/Gamma_2 forms, Bakry-Emery constants,
noncommutative L_p Poincare estimation, matrix-algebra semigroups, and
a Monte-Carlo Gaussian Markov dilation with martingale transforms."""

from .groups import (FiniteGroup, TableValidationError, SizeCapError,
                     build_cyclic, build_product, build_heisenberg,
                     build_from_spec, load_group, save_group, validate_group)
from .cocycles import (LengthFunction, GromovForm, CocycleRealization,
                       length_function, gromov_form, is_conditionally_negative,
                       realize_cocycle, word_length_cocycle, word_length_psi,
                       verify_schur_identity)
from .algebra import (AlgebraElement, Semigroup, element, delta, tau, conv,
                      regular_rep, lp_norm, semigroup_apply, generator_apply,
                      fix_project, gamma, gamma2, operator_positivity)
from .criterion import (AlphaCertificate, best_alpha_bisection,
                        best_alpha_pencil, check_element)
from .poincare import (poincare_ratio, l2_oracle, worst_constant,
                       maximize_on_sphere, sweep_and_fit, fit_exponent,
                       PoincareReport, ZeroNumeratorError)
from .matrixalg import (Superoperator, clock_shift_basis, heisenberg_multiplier,
                        lindblad_generator, superop_gamma, superop_gamma2, matrix_poincare,
                        matrix_poincare_ratio, matrix_worst_constant)
from .dilation import (BrownianScenario, sample_scenario, dilation_matrix,
                       dilation_mean, martingale_transform, TransformPass,
                       bracket_estimates, inequality_report, transform_l2_analytic)
from .families import (walsh_length, delta_psi,
                       heisenberg_delta, heisenberg_wordlength, builtin_length)

__version__ = "0.1.0"
