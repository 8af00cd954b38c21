"""Command-line front end: basis generation, reduction, verification,
immersion checks.  All output is deterministic for fixed arguments.

The two commands whose output grows with the family write it as they go,
so the text is never held whole: ``generate`` writes one element per
call, text or JSON, and ``basis`` one standard monomial per line as
``standard_monomials`` makes it, its count a closed form."""

from __future__ import annotations

import argparse
import math
import signal
import sys

from .buchberger_oracle import DEFAULT_CAP, oracle_equals_family
from .cohomology import normal_form, standard_monomials
from .dual_classes import wbar_explicit
from .f2poly import format_monomial, format_poly, parse
from .groebner_family import GrassmannContext, GroebnerFamily
from .steenrod import immersion_obstruction_check

__all__ = ["run", "main"]

# The most monomials ``basis`` prints, and the most elements a whole-family
# ``generate`` builds.  Both counts are closed forms, binom(n+k, k) and
# binom(n+k, k-1), so a larger request exits 2 before any work.  A count
# of elements is no bound on their terms: that needs exact term counts.
SIZE_BUDGET = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassgb",
        description="Groebner-basis computations in the mod-2 cohomology "
        "of real Grassmann manifolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # -k and -n, shared by the subcommands that work on one G_{k,n}
    kn = argparse.ArgumentParser(add_help=False)
    kn.add_argument("-k", type=int, required=True)
    kn.add_argument("-n", type=int, required=True)

    gen = sub.add_parser("generate", parents=[kn], help="print the reduced Groebner basis")
    gen.set_defaults(command=_cmd_generate)
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.add_argument(
        "--only-m",
        metavar="M2,...,MK",
        help="restrict output to the element with this multi-index",
    )

    red = sub.add_parser("reduce", parents=[kn], help="normal form of a polynomial")
    red.add_argument("poly", help="polynomial text, e.g. 'w1^2*w2 + w2^2'")
    red.set_defaults(command=_cmd_reduce)

    dual = sub.add_parser("dual", help="print a dual Stiefel-Whitney class")
    dual.add_argument("-k", type=int, required=True)
    dual.add_argument("-r", type=int, required=True)
    dual.set_defaults(command=_cmd_dual)

    ver = sub.add_parser("verify", parents=[kn], help="compare the family with the oracle")
    ver.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ver.set_defaults(command=_cmd_verify)

    imm = sub.add_parser("immersion-check", help="run the obstruction checks")
    imm.add_argument("-n", type=int, required=True)
    imm.set_defaults(command=_cmd_immersion_check)

    basis = sub.add_parser("basis", parents=[kn], help="list the standard monomials")
    basis.set_defaults(command=_cmd_basis)
    return parser


def _within_budget(count: int, what: str) -> None:
    if count > SIZE_BUDGET:
        raise ValueError(f"{count} {what}, above the size budget of {SIZE_BUDGET}")


def _only_m_entry(text: str) -> int:
    """One comma-separated entry of ``--only-m``, as an int."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--only-m entry {text!r} is not an integer") from None


def _json_rows(count: int, indent: int) -> str:
    return ",\n".join([" " * indent + "%d"] * count)


def _term_table(family: GroebnerFamily, elements: list, template) -> dict[int, str]:
    """Each distinct packed term of the elements, unpacked and formatted
    by ``template`` once, whichever elements share it."""
    distinct = set().union(*[terms for _, terms in elements])
    return dict(zip(distinct, map(template, family.unpack(distinct))))


def _print_json(family: GroebnerFamily, elements: list) -> None:
    """Print the records {"M", "lt", "poly"} exactly as
    json.dumps(records, indent=2) would, with one format string per
    nesting depth; terms go in the family's order, decreasing grlex,
    and "lt" is (n+1-S_M, M).  Each record is one ``write``, so no more
    than one record's text is held at a time."""
    k, lead_sum = family.context.k, family.context.n + 1
    head = (
        '  {\n    "M": [\n%s\n    ],\n    "lt": [\n%s\n    ],\n    "poly": [\n'
        % (_json_rows(k - 1, 6), _json_rows(k, 6))
    )
    term = "      [\n%s\n      ]" % _json_rows(k, 8)
    rows = _term_table(family, elements, term.__mod__)
    write, sep = sys.stdout.write, "[\n"
    for m, terms in elements:
        body = ",\n".join(map(rows.__getitem__, terms))
        write(f"{sep}{head % (m + (lead_sum - sum(m),) + m)}{body}\n    ]\n  }}")
        sep = ",\n"
    write("\n]\n")


def _cmd_generate(args) -> int:
    family = GroebnerFamily(GrassmannContext(args.k, args.n))
    if args.only_m is None:
        _within_budget(family.size, "basis elements to build (--only-m builds one)")
        elements = list(family.packed_items())
    else:
        only_m = tuple(map(_only_m_entry, args.only_m.split(",")))
        elements = [(only_m, family.packed_terms(only_m))]
    if args.format == "json":
        _print_json(family, elements)
    else:
        # the stored terms are already in print order, decreasing grlex
        rows = _term_table(family, elements, format_monomial)
        for m, terms in elements:
            label = ",".join(str(x) for x in m)
            print(f"g[{label}] = {' + '.join(map(rows.__getitem__, terms))}")
    return 0


def _cmd_reduce(args) -> int:
    ctx = GrassmannContext(args.k, args.n)
    f = parse(args.poly, ctx.k)
    print(format_poly(normal_form(ctx, f).value))
    return 0


def _cmd_dual(args) -> int:
    print(format_poly(wbar_explicit(args.r, args.k)))
    return 0


def _cmd_verify(args) -> int:
    ctx = GrassmannContext(args.k, args.n)
    if oracle_equals_family(ctx, cap=args.cap):
        count = GroebnerFamily(ctx).size
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
    ctx = GrassmannContext(args.k, args.n)
    count = math.comb(ctx.n + ctx.k, ctx.k)
    _within_budget(count, "standard monomials to print")
    sys.stdout.writelines(f"{format_monomial(m)}\n" for m in standard_monomials(ctx))
    print(f"count: {count}")
    return 0


# built by the first ``run``, not at import: making a parser imports shutil
# (with bz2 and lzma) and locale, which ``import grassgb.cli`` should not pay
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    """Run one command line; the parser is built once per process and
    reused, since parsing keeps no state between calls."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.command(args)
    except (ValueError, OverflowError) as exc:
        # ParseError and OracleCapExceeded are ValueErrors; OverflowError is
        # an exponent too large for a term
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # on a CLI path only the g_M walk recurses with k: once per variable
        print(
            "error: k is too large for the g_M walk, which recurses once per variable",
            file=sys.stderr,
        )
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a closed pipe ends the process quietly, as it does any Unix filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
