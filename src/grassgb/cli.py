"""Command-line front end: basis generation, reduction, verification,
immersion checks.  All output is deterministic for fixed arguments."""

from __future__ import annotations

import argparse
import signal
import sys

from .buchberger_oracle import DEFAULT_CAP, oracle_equals_family
from .cohomology import normal_form, standard_basis
from .dual_classes import wbar_recurrence
from .f2poly import Poly, format_poly, parse
from .groebner_family import GrassmannContext, GroebnerFamily
from .steenrod import immersion_obstruction_check

__all__ = ["run", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassgb",
        description="Groebner-basis computations in the mod-2 cohomology "
        "of real Grassmann manifolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="print the reduced Groebner basis")
    gen.add_argument("-k", type=int, required=True)
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.add_argument(
        "--only-m",
        metavar="M2,...,MK",
        help="restrict output to the element with this multi-index",
    )

    red = sub.add_parser("reduce", help="normal form of a polynomial")
    red.add_argument("-k", type=int, required=True)
    red.add_argument("-n", type=int, required=True)
    red.add_argument("poly", help="polynomial text, e.g. 'w1^2*w2 + w2^2'")

    dual = sub.add_parser("dual", help="print a dual Stiefel-Whitney class")
    dual.add_argument("-k", type=int, required=True)
    dual.add_argument("-r", type=int, required=True)

    ver = sub.add_parser("verify", help="compare the family with the oracle")
    ver.add_argument("-k", type=int, required=True)
    ver.add_argument("-n", type=int, required=True)
    ver.add_argument("--cap", type=int, default=DEFAULT_CAP)

    imm = sub.add_parser("immersion-check", help="run the obstruction checks")
    imm.add_argument("-n", type=int, required=True)

    bas = sub.add_parser("basis", help="list the standard monomials")
    bas.add_argument("-k", type=int, required=True)
    bas.add_argument("-n", type=int, required=True)

    return parser


def _context(args) -> GrassmannContext:
    return GrassmannContext(args.k, args.n)


def _json_rows(count: int, indent: int) -> str:
    return ",\n".join([" " * indent + "%d"] * count)


def _print_json(family: GroebnerFamily, elements) -> None:
    """Print the records {"M", "lt", "poly"} exactly as
    json.dumps(records, indent=2) would, with one format string per
    nesting depth; terms go in the family's order, decreasing grlex,
    and "lt" is (n+1-S_M, M)."""
    k, lead_sum = family.context.k, family.context.n + 1
    head = (
        '  {\n    "M": [\n%s\n    ],\n    "lt": [\n%s\n    ],\n    "poly": [\n'
        % (_json_rows(k - 1, 6), _json_rows(k, 6))
    )
    term = "      [\n%s\n      ]" % _json_rows(k, 8)
    elements = list(elements)
    distinct = set().union(*[terms for _, terms in elements])
    rows = dict(zip(distinct, map(term.__mod__, family.unpack(distinct))))
    records = []
    for m, terms in elements:
        body = ",\n".join(map(rows.__getitem__, terms))
        records.append(head % (m + (lead_sum - sum(m),) + m) + body + "\n    ]\n  }")
    # separate arguments, so the whole text is not copied by concatenation
    print("[", ",\n".join(records), "]", sep="\n")


def _cmd_generate(args) -> int:
    family = GroebnerFamily(_context(args))
    if args.only_m is None:
        elements = family.packed_items()
    else:
        only_m = tuple(int(x) for x in args.only_m.split(","))
        elements = [(only_m, family.packed_terms(only_m))]
    if args.format == "json":
        _print_json(family, elements)
    else:
        for m, terms in elements:
            label = ",".join(str(x) for x in m)
            print(f"g[{label}] = {format_poly(family.to_poly(terms))}")
    return 0


def _cmd_reduce(args) -> int:
    ctx = _context(args)
    f = parse(args.poly, ctx.k)
    print(format_poly(normal_form(ctx, f).value))
    return 0


def _cmd_dual(args) -> int:
    if args.r < 1:
        raise ValueError("-r must be >= 1")
    print(format_poly(wbar_recurrence(args.r, args.k)))
    return 0


def _cmd_verify(args) -> int:
    ctx = _context(args)
    if oracle_equals_family(ctx, cap=args.cap):
        count = len(GroebnerFamily(ctx))
        print(f"OK: reduced Groebner basis matches oracle ({count} elements)")
        return 0
    print(f"MISMATCH: family and oracle disagree for k={args.k}, n={args.n}")
    return 1


def _cmd_immersion_check(args) -> int:
    report = immersion_obstruction_check(args.n)
    n = args.n
    print(f"n: {n}")
    print(f"Sq1(w4*w5^{n - 1}) = {report.sq1_value}")
    print(f"(Sq2 + w1^2 + w2)(w2*w5^{n - 1}) = {report.k1_obstruction_value}")
    print(f"lift_possible: {'yes' if report.lift_possible else 'no'}")
    return 0


def _cmd_basis(args) -> int:
    ctx = _context(args)
    monos = standard_basis(ctx)
    for m in monos:
        print(format_poly(Poly.monomial(m)))
    print(f"count: {len(monos)}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "reduce": _cmd_reduce,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "immersion-check": _cmd_immersion_check,
    "basis": _cmd_basis,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OverflowError) as exc:
        # ParseError and OracleCapExceeded are ValueErrors; OverflowError is
        # an exponent too large for a term
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a closed pipe ends the process quietly, as it does any Unix filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
