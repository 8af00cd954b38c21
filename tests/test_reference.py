"""The slow references of ``reference.py`` reach none of the kernels they
check, so a fault in a kernel cannot hide in its own reference."""

import inspect
from functools import cache

import pytest
import reference

from grassgb import buchberger_oracle, groebner_family, steenrod
from grassgb.dual_classes import wbar_sequence
from grassgb.f2poly import Poly, parse
from grassgb.groebner_family import GrassmannContext, GroebnerFamily

# the package's kernels that the references stand beside: the g_M walk, the
# packed normal form, the packed Cartan kernel and the F5 oracle's degree
# loop, which both ``buchberger`` and ``oracle_equals_family`` run.  No
# reference is exempt; one that must reach a kernel would be listed here
# with its reason and skipped below.
KERNELS = (
    (groebner_family, "_walk"),
    (GroebnerFamily, "reduce_packed"),
    (steenrod, "_cartan"),
    (buchberger_oracle, "_reduced_basis"),
)


def public_functions() -> set[str]:
    return {
        name
        for name, value in vars(reference).items()
        if not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(value))
        and value.__module__ == reference.__name__
    }


def small_calls() -> dict:
    """Each public function of reference.py, run on a small input."""
    ctx = GrassmannContext(3, 4)
    f = parse("w1^7 + w1^2*w2^3 + w3^2", 3)
    generators = wbar_sequence(7, 3)[5:]

    def basis():
        return reference.buchberger_reference(generators)

    return {
        "binom_int": lambda: reference.binom_int(7, 3),
        "binom_parity": lambda: reference.binom_parity(-3, 2),
        "grlex_compare": lambda: reference.grlex_compare((1, 0), (0, 1)),
        "alpha": lambda: reference.alpha(5),
        "p_factor": lambda: reference.p_factor(2, (3, 1, 0), (1, 0)),
        "p_product": lambda: reference.p_product((3, 1, 0), (1, 0)),
        "multinomial_parity": lambda: reference.multinomial_parity((1, 2)),
        "g_direct_reference": lambda: reference.g_direct_reference(3, 4, (1, 1)),
        "g_recurrence_step_reference": lambda: reference.g_recurrence_step_reference(
            ctx, (0, 0), 1, 1, lambda m: reference.g_direct_reference(3, 4, m)
        ),
        "indices_up_to_reference": lambda: reference.indices_up_to_reference(3, 5),
        "standard_basis_reference": lambda: reference.standard_basis_reference(3, 4),
        "generate_json_reference": lambda: reference.generate_json_reference(
            ctx, reference.indices_up_to_reference(3, 5)
        ),
        "structured_divisor": lambda: reference.structured_divisor(
            ctx, GroebnerFamily(ctx), (6, 0, 1)
        ),
        "normal_form_reference": lambda: reference.normal_form_reference(ctx, f),
        "tensor_square_sw_reference": lambda: reference.tensor_square_sw_reference(3, 6),
        "poly_mul_reference": lambda: reference.poly_mul_reference(f, f),
        "tensor_square_sw_permanent_reference": lambda: (
            reference.tensor_square_sw_permanent_reference(3)
        ),
        "weighted_degree_reference": lambda: reference.weighted_degree_reference((1, 2, 3)),
        "weighted_components": lambda: reference.weighted_components(f),
        "normal_bundle_sw_reference": lambda: reference.normal_bundle_sw_reference(8),
        "wu_reference": lambda: reference.wu_reference(2, 3, 4),
        "sq_reference": lambda: reference.sq_reference(2, f),
        "buchberger_reference": lambda: reference.buchberger_reference(generators),
        "reduce_basis_reference": lambda: reference.reduce_basis_reference(basis()),
        "oracle_reduce_reference": lambda: reference.oracle_reduce_reference(f, basis()),
        "parse_reference": lambda: reference.parse_reference("w1^2*w2 + w3", 3),
    }


def test_references_reach_no_kernel(monkeypatch):
    calls = small_calls()
    assert calls.keys() == public_functions(), "every reference runs here"
    reached = []

    def guard(name):
        def kernel(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{name} reached")

        return kernel

    for owner, name in KERNELS:
        monkeypatch.setattr(owner, name, guard(name))
    # a fresh cache, so no g_M that an earlier test computed is skipped
    fresh = cache(reference.g_direct_reference.__wrapped__)
    monkeypatch.setattr(reference, "g_direct_reference", fresh)
    for name, call in calls.items():
        assert call() is not None, name
        assert reached == [], name
    # and the guard bites: the package's own paths reach each kernel
    ctx = GrassmannContext(3, 4)
    for path in (
        lambda: GroebnerFamily(ctx).element((1, 1)),
        lambda: GroebnerFamily(ctx).reduce(Poly.monomial((6, 0, 0))),
        lambda: steenrod.sq(1, Poly.variable(3, 1)),
        lambda: buchberger_oracle.oracle_equals_family(ctx),
    ):
        with pytest.raises(AssertionError, match=" reached$"):
            path()
    assert reached == [name for _, name in KERNELS]
