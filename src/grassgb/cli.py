"""Command-line front end: basis generation, reduction, verification,
immersion checks.  All output is deterministic for fixed arguments.

The command line is parsed from one table, ``_COMMANDS``: each
subcommand's handler, one-line help and arguments.  ``run`` reads it with
one loop and builds each usage line and help text from it, so a fresh
process pays for no argparse, gettext, locale or re.  Every value goes
through its argument's converter, a function that raises ValueError with
the message to print, so a bad ``--format`` or ``--only-m`` entry is the
same parse error as a bad ``-n``.  It takes ``-k K``, ``-kK`` or ``-k=K``,
``--flag VALUE`` or ``--flag=VALUE``, options and the positional in any
order, a value that starts with '-', and a repeated option, the last one
winning.  Help goes to stdout and exits 0.  Any other command line the
table does not accept prints the subcommand's usage line and one
``grassgb <sub>: error: ...`` line to stderr and exits 2, in argparse's
wording; there are no abbreviations and no ``--``.

The two commands whose output grows with the family write it as they go,
so the text is never held whole: ``generate`` writes one element per
call, text or JSON, and ``basis`` one standard monomial per line as
``standard_monomials`` makes it, its count a closed form.  ``generate``
makes each distinct term's text once for all the elements that share it:
in text by ``format_monomial``, the package's one monomial formatter, and
in JSON by joining k strings, one per field, each from a table of that
field's values formatted on first use (``_Texts``), so a value is
formatted once per field, not once per term.  It prints each element
from its packed lead, with no M tuple: the fields of all the leads are
cut at once, and a record's head in JSON, or its ``g[...]`` label in
text, is joined from per-field tables the same way."""

from __future__ import annotations

import math
import signal
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from .buchberger_oracle import oracle_equals_family
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


def _within_budget(count: int, what: str) -> None:
    if count > SIZE_BUDGET:
        raise ValueError(f"{count} {what}, above the size budget of {SIZE_BUDGET}")


class _Texts(dict):
    """Field value -> ``template % value``, formatted on first use: a
    table holds only the values a field takes, however wide the field."""

    def __init__(self, template: str):
        super().__init__()
        self.template = template

    def __missing__(self, value: int) -> str:
        text = self[value] = self.template % value
        return text


def _joined(columns: list, templates) -> Iterator[str]:
    """One text per position of the ``columns``, k iterators over the same
    ints, each field's text taken from a ``_Texts`` of its template and
    the k texts joined in order."""
    cells = [map(_Texts(t).__getitem__, c) for t, c in zip(templates, columns)]
    return map("".join, zip(*cells))


def _term_table(elements: list, texts) -> dict[int, str]:
    """Each distinct packed term of the elements -> its text, made once,
    whichever elements share it: ``texts`` maps the list of them to their
    texts, in its order."""
    distinct = list(set().union(*[terms for _, terms in elements]))
    return dict(zip(distinct, texts(distinct)))


def _print_json(family: GroebnerFamily, elements: list) -> None:
    """Print the records {"M", "lt", "poly"} of the (packed lead, packed
    terms) ``elements`` exactly as json.dumps(records, indent=2) would;
    terms go in the family's order, decreasing grlex, and "lt" is the
    lead, (n+1-S_M, M).  Every text is joined from per-field ``_Texts``
    tables, so a value is formatted once per field, not once per term or
    record.  A term's row is its k fields' texts, the first one opening
    the row and the last one closing it.  A record's head is cut from its
    lead: the M block is the texts of m_2, ..., m_k, and it appears twice,
    in "M" and after a_1's text in "lt".  Each record is one ``write``,
    so no more than one record's text is held at a time."""
    k, fields = family.context.k, family.build_packing.fields
    field = ",\n        %d"
    rows = _term_table(elements, lambda distinct: _joined(
        fields(distinct), ("      [\n        %d", *[field] * (k - 2), field + "\n      ]")))
    a_1, *m = fields([lead for lead, _ in elements])
    a_1 = map(_Texts("      %d,\n").__getitem__, a_1)
    m = _joined(m, ("      %d", *[",\n      %d"] * (k - 2)))
    write, sep = sys.stdout.write, "[\n"
    for m_text, a_text, (_, terms) in zip(m, a_1, elements):
        body = ",\n".join(map(rows.__getitem__, terms))
        write(f'{sep}  {{\n    "M": [\n{m_text}\n    ],\n    "lt": [\n{a_text}{m_text}'
              f'\n    ],\n    "poly": [\n{body}\n    ]\n  }}')
        sep = ",\n"
    write("\n]\n")


def _cmd_generate(args) -> int:
    family = GroebnerFamily(GrassmannContext(args.k, args.n))
    if args.only_m is None:
        _within_budget(family.size, "basis elements to build (--only-m builds one)")
        elements = list(family.packed_items())
    else:
        terms = family.packed_terms(args.only_m)
        elements = [(terms[0], terms)]
    if args.format == "json":
        _print_json(family, elements)
    else:
        # the stored terms are already in print order, decreasing grlex
        build = family.build_packing
        rows = _term_table(elements, lambda distinct: map(format_monomial, build.unpack(distinct)))
        _, *m = build.fields([lead for lead, _ in elements])
        labels = _joined(m, ("g[%d", *[",%d"] * (family.k - 2)))
        for label, (_, terms) in zip(labels, elements):
            print(f"{label}] = {' + '.join(map(rows.__getitem__, terms))}")
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
    if oracle_equals_family(ctx):
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


class _UsageError(Exception):
    """A command line that the option table does not accept: exit 2."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _ints(text: str) -> tuple[int, ...]:
    """``--only-m``: comma-separated ints, each read as ``-k`` reads its value."""
    return tuple(map(_int, text.split(",")))


def _choice(*choices: str):
    """The converter that accepts only the given strings."""

    def convert(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return convert


# Each subcommand's name, handler, one-line help and arguments, as a tuple:
# the table is a constant, and no module holds a dict.  An argument is
# (flag, metavar, convert, required, default, help); a flag with no leading
# '-' is a positional.  Its attribute on the handler's namespace is the flag
# without dashes, '-' read as '_'.  convert is a function from the token to
# the value, which raises ValueError with the message to print.
_K = ("-k", "K", _int, True, None, "the dimension k of the subspaces")
_N = ("-n", "N", _int, True, None, "n, for the Grassmannian of k-planes in R^(n+k)")
_COMMANDS = (
    ("generate", _cmd_generate, "print the reduced Groebner basis", (
        _K,
        _N,
        ("--format", "{text,json}", _choice("text", "json"), False, "text",
         "output format (default: text)"),
        ("--only-m", "M2,...,MK", _ints, False, None,
         "restrict output to the element with this multi-index"),
    )),
    ("reduce", _cmd_reduce, "normal form of a polynomial", (
        _K,
        _N,
        ("poly", "POLY", str, True, None, "polynomial text, e.g. 'w1^2*w2 + w2^2'"),
    )),
    ("dual", _cmd_dual, "print a dual Stiefel-Whitney class", (
        _K,
        ("-r", "R", _int, True, None, "the degree r of the class"),
    )),
    ("verify", _cmd_verify, "compare the family with the oracle", (_K, _N)),
    ("immersion-check", _cmd_immersion_check, "run the obstruction checks", (
        ("-n", "N", _int, True, None, "n of G_{5,n}, a positive multiple of 8"),
    )),
    ("basis", _cmd_basis, "list the standard monomials", (_K, _N)),
)
_DESCRIPTION = "Groebner-basis computations in the mod-2 cohomology of real Grassmann manifolds."
_NAMES = tuple(name for name, *_ in _COMMANDS)
_SUBCOMMAND = _choice(*_NAMES)
_TOP_USAGE = "grassgb [-h] {%s} ..." % ",".join(_NAMES)
_HELP_ROW = ("-h, --help", "show this help message and exit")


def _convert(name: str, convert, text: str):
    """``convert(text)``, its ValueError a usage error of the argument."""
    try:
        return convert(text)
    except ValueError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None


def _help(usage: str, summary: str, *sections: tuple[str, list]) -> str:
    """A help text: the usage line, the summary, then each titled section's
    (left, right) rows in two columns."""
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [f"usage: {usage}", "", summary]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        lines += [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join(lines)


def _parse(arguments: tuple, argv: list[str]):
    """The namespace of one subcommand's ``argv`` by its ``arguments``, or
    None when it asks for help.  Options and positionals come in any
    order; an option's value is the rest of its token (``-k3``, ``-k=3``,
    ``--format=json``) or else the next token, whatever it starts with;
    the last of a repeated option wins."""
    # each argument once as (attribute, name in errors, convert, required,
    # default); an error names an option by its flag, a positional by its metavar
    specs = [
        (flag.lstrip("-").replace("-", "_"), flag if flag[0] == "-" else metavar, *rest)
        for flag, metavar, *rest, _ in arguments
    ]
    options = {spec[1]: spec for spec in specs if spec[1][0] == "-"}
    positionals = iter([spec for spec in specs if spec[1][0] != "-"])
    values, extras = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if token[:1] != "-":
            spec, value = next(positionals, None), token
        else:
            # a short option's value is attached as -k3, or as -k=3, which
            # argparse read with its one '=' dropped
            short = token[:2], token[2:], token[2:].removeprefix("=")
            flag, attached, value = token.partition("=") if token[:2] == "--" else short
            spec = options.get(flag)
            if spec is not None and not attached:
                value = next(tokens, None)
                if value is None:
                    raise _UsageError(f"argument {flag}: expected one argument")
        # an unknown option and a positional past the last one alike
        if spec is None:
            extras.append(token)
            continue
        dest, name, convert, *_ = spec
        values[dest] = _convert(name, convert, value)
    missing = [name for dest, name, _, required, _ in specs if required and dest not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**{dest: default for dest, *_, default in specs} | values)


def run(argv: list[str]) -> int:
    """Run one command line, parsed by ``_COMMANDS``; nothing is kept
    between calls.  Help goes to stdout and exits 0; a command line the
    table does not accept prints its usage line and one ``error:`` line
    to stderr and exits 2."""
    prog, usage = "grassgb", _TOP_USAGE
    try:
        if not argv:
            raise _UsageError("the following arguments are required: subcommand")
        name = argv[0]
        if name in ("-h", "--help"):
            commands = [(sub, summary) for sub, _, summary, _ in _COMMANDS]
            print(_help(usage, _DESCRIPTION, ("subcommands", commands), ("options", [_HELP_ROW])))
            return 0
        _convert("subcommand", _SUBCOMMAND, name)
        _, handler, summary, arguments = _COMMANDS[_NAMES.index(name)]
        # each argument as usage and help show it, ``-k K`` or ``POLY``, with its help
        rows = [(f"{f} {m}" if f[0] == "-" else m, text) for f, m, *_, text in arguments]
        shown = [s if arg[3] else f"[{s}]" for (s, _), arg in zip(rows, arguments)]
        prog = f"grassgb {name}"
        usage = " ".join([f"{prog} [-h]", *shown])
        args = _parse(arguments, argv[1:])
    except _UsageError as exc:
        print(f"usage: {usage}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(_help(usage, summary, ("arguments", [_HELP_ROW, *rows])))
        return 0
    try:
        return handler(args)
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
