"""Groebner-basis computations in the mod-2 cohomology of real
Grassmann manifolds, with an independent Buchberger oracle and
Steenrod-square immersion-obstruction checks."""

from .buchberger_oracle import (
    buchberger,
    oracle_equals_family,
    reduce_basis,
    s_polynomial,
)
from .cohomology import CohomologyClass, cup, is_zero, normal_form, standard_basis
from .dual_classes import wbar_explicit, wbar_recurrence
from .f2poly import Poly, format_poly, parse
from .groebner_family import (
    GrassmannContext,
    GroebnerFamily,
    build_family,
    g_closed_form,
    g_direct,
    g_recurrence_step,
    leading_term_of,
)
from .steenrod import (
    ObstructionReport,
    immersion_obstruction_check,
    normal_bundle_sw,
    sq,
    sq_on_generator,
    tensor_square_sw,
)

__version__ = "0.5.0"

__all__ = [
    "Poly",
    "parse",
    "format_poly",
    "wbar_recurrence",
    "wbar_explicit",
    "GrassmannContext",
    "GroebnerFamily",
    "g_direct",
    "g_closed_form",
    "g_recurrence_step",
    "build_family",
    "leading_term_of",
    "CohomologyClass",
    "normal_form",
    "is_zero",
    "cup",
    "standard_basis",
    "s_polynomial",
    "buchberger",
    "reduce_basis",
    "oracle_equals_family",
    "sq",
    "sq_on_generator",
    "tensor_square_sw",
    "normal_bundle_sw",
    "immersion_obstruction_check",
    "ObstructionReport",
]
