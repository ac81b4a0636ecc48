"""Command-line front end.

Subcommands expose the coefficient tables (``coeffs``), co-operation
expansions (``coop``), recursive-operator expansions (``operators``), the
symbolic verification sweep (``verify``), series division and inversion
over a handful of exact coefficient algebras (``divide``, ``invert``),
counterexample reproduction (``witness``) and the M-sequence/tree
bijection (``trees``).

This module holds the parser, built from plain constants, the series
codecs and the one handler of ``divide`` and ``invert``; the other handlers
are in :mod:`loopseries.commands`, imported only for their commands. Each
handler imports the library layers it runs, so a command compiles and
loads only the modules it needs (``trees`` and ``coeffs`` load just the
combinatorics, a recursive ``divide`` just the algebras and the series
loops).

Output is byte-deterministic for fixed arguments: no command reads a
seed. The library version is reported on stderr so that stdout carries
only the text/json/csv payload. Exit status: 0 on success or fully
expected verification results, 1 on any unexpected failure, 2 on usage
errors, malformed input and input too large to compute (a
``RecursionError`` or ``MemoryError``), each reported as one ``error:``
line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING

from . import (
    COLOOP_FLAVORS,
    INVERSE_SIDES,
    MODES,
    SERIES_FLAVORS,
    SIDES,
    DomainError,
    StructuralError,
    __version__,
    _emit_json,
    _option,
)

if TYPE_CHECKING:
    from .seriesloops import TruncatedSeries

# The parser is built from these constants and the package's vocabularies,
# so a command imports only the layers its handler runs; the tests check
# these against the library.
COOP_KINDS = ("delta", "counit", "delta_r", "delta_l", "s_r", "s_l")
# The series algebras, each as (matrix dimension, Cayley-Dickson level of
# the entries): a dimension of None is no matrix, a level of None the
# rationals.
ALGEBRAS = {
    "q": (None, None), "c": (None, 1), "h": (None, 2), "o": (None, 3),
    "sed": (None, 4), "m2q": (2, None), "m3q": (3, None), "m2sed": (2, 4),
}
ALGEBRA_NAMES = tuple(sorted(ALGEBRAS))
WITNESS_NAMES = ("diff-power-assoc", "diff-right-alt",
                 "inv-left-right-inverse", "inv-power-assoc",
                 "inv-right-alt", "ucd-not-loop")
# commands whose output has no table form, so no csv encoding
NO_CSV = ("operators", "divide", "invert", "witness")


# -- coefficient algebra codecs for series JSON --------------------------------

def _decode_entry(value, level: int | None):
    """A rational (``level`` None) or a Cayley-Dickson literal."""
    from .algebras import _as_fraction, cd_parse

    if level is None:
        return _as_fraction(value)
    if not isinstance(value, str):
        raise StructuralError(f"a Cayley-Dickson coefficient must be "
                              f"a JSON string, got {value!r}")
    return cd_parse(value, level)


def _decode(value, algebra: str):
    """One coefficient of ``algebra``; a matrix is a flat row-major list."""
    from .algebras import MatrixElement

    dim, level = ALGEBRAS[algebra]
    if dim is None:
        return _decode_entry(value, level)
    if not isinstance(value, list):
        raise StructuralError(
            f"a matrix coefficient must be a JSON array, got {value!r}")
    if len(value) != dim * dim:
        raise StructuralError(f"expected {dim * dim} entries, got {len(value)}")
    return MatrixElement([[_decode_entry(value[i * dim + j], level)
                           for j in range(dim)] for i in range(dim)])


def _encode(c, algebra: str):
    if ALGEBRAS[algebra][0] is None:
        return str(c)
    return [str(e) for row in c.entries for e in row]


def series_to_json(series: TruncatedSeries, algebra: str) -> dict:
    return {
        "flavor": series.flavor,
        "order": series.order,
        "algebra": algebra,
        "coeffs": [_encode(c, algebra) for c in series.coeffs],
    }


def _unrepeated(pairs: list) -> dict:
    """A JSON object whose keys are distinct; ``json`` alone keeps the
    last of a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise StructuralError(f"series JSON repeats key {key!r}")
        out[key] = value
    return out


def series_from_json(data, flavor: str, order: int, algebra: str
                     ) -> TruncatedSeries:
    """Decode a series given as a coefficient list or as the object that
    ``series_to_json`` writes. The arguments fix flavor, order and algebra;
    a ``flavor``, ``order`` or ``algebra`` key in the object may repeat
    them, with the same JSON type, but not contradict them, and no other
    key than these and ``coeffs`` is allowed, nor a repeated key. A bad
    coefficient's error names its degree."""
    from .seriesloops import TruncatedSeries

    if isinstance(data, str):
        import json
        try:
            data = json.loads(data, object_pairs_hook=_unrepeated)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"cannot decode series: {exc}") from None
    if isinstance(data, dict):
        expected = {"flavor": flavor, "order": order, "algebra": algebra}
        for key in data:
            if key not in expected and key != "coeffs":
                raise StructuralError(f"series JSON has unknown key {key!r}")
        for key, value in expected.items():
            # of the same type too: true and 1.0 compare equal to 1
            if key in data and (type(data[key]) is not type(value)
                                or data[key] != value):
                raise StructuralError(
                    f"series JSON has {key} {data[key]!r}, but {value!r} "
                    f"was requested")
        if "coeffs" not in data:
            raise StructuralError("series JSON has no coeffs key")
        coeffs = data["coeffs"]
    else:
        coeffs = data
    if not isinstance(coeffs, list):
        raise StructuralError(
            f"series coefficients must be a JSON array, got {coeffs!r}")
    if len(coeffs) > order:
        raise StructuralError(f"{len(coeffs)} coefficients exceed order {order}")
    decoded = []
    for n, c in enumerate(coeffs, 1):
        try:
            decoded.append(_decode(c, algebra))
        except StructuralError as exc:
            raise StructuralError(f"coefficient {n}: {exc}") from None
    # padded with the algebra's zero, from which the series reads its unit
    dim = ALGEBRAS[algebra][0]
    zero = _decode("0" if dim is None else ["0"] * (dim * dim), algebra)
    return TruncatedSeries(flavor, order,
                           decoded + [zero] * (order - len(decoded)))


# -- the series commands -------------------------------------------------------

def _series_arg(text: str, option: str, args) -> TruncatedSeries:
    """Decode a series option; its errors are named by the option."""
    with _option(option):
        return series_from_json(text, args.flavor, args.order, args.algebra)


def _cmd_series(args) -> tuple[str, int]:
    """The handler of ``divide`` and ``invert``: decode, compute, emit."""
    from .seriesloops import divide, series_inverse

    a = _series_arg(args.a, "--a", args)
    if args.command == "divide":
        result = divide(args.side, a, _series_arg(args.b, "--b", args),
                        args.mode)
    else:
        with _option("--side"):
            result = series_inverse(a, args.side)
    if args.format == "json":
        return _emit_json(args.command,
                          series_to_json(result, args.algebra)), 0
    return str(result) + "\n", 0


# -- parser ----------------------------------------------------------------------

# Integer options are plain ASCII digit strings; ``int`` alone would also
# read signs, spaces, digit-group underscores (``1_0`` as 10) and the digits
# of other scripts.

def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # abbreviations off: each option has one spelling
    parser = argparse.ArgumentParser(
        prog="loopseries", allow_abbrev=False,
        description="Exact loops of formal series and their coloop bialgebras")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("coeffs", help="Lagrange coefficient tables")
    p.add_argument("--kind", choices=("d", "de"), default="d")
    p.add_argument("--n", type=_positive_int, required=True)

    p = command("coop", help="co-operation table entries")
    p.add_argument("--flavor", choices=COLOOP_FLAVORS, required=True)
    p.add_argument("--kind", choices=COOP_KINDS, required=True)
    p.add_argument("--n", type=_positive_int, required=True)

    p = command("operators", help="recursive operator expansions")
    p.add_argument("--op", choices=("L", "R", "Re", "Rm"), required=True)
    p.add_argument("--degrees", required=True,
                   help="comma-separated letter degrees, e.g. 1,2,1")
    p.add_argument("--bits", help="bit sequence for Re, e.g. 1,2,1")
    p.add_argument("--m", help="M-sequence for Rm, e.g. 2,0,1")
    p.add_argument("--mode", choices=MODES,
                   help=f"for L, R and Re; {MODES[0]} when not given")

    p = command("verify", help="run the symbolic axiom battery")
    p.add_argument("--flavor", choices=COLOOP_FLAVORS + ("both",),
                   default="both")
    p.add_argument("--max-degree", type=_positive_int, default=5)

    for name in ("divide", "invert"):
        p = command(name, help=f"{name} truncated series")
        p.add_argument("--flavor", choices=SERIES_FLAVORS, required=True)
        p.add_argument("--order", type=_positive_int, required=True)
        p.add_argument("--algebra", choices=ALGEBRA_NAMES, required=True)
        p.add_argument("--a", required=True, help="series JSON")
        if name == "divide":
            p.add_argument("--b", required=True, help="series JSON")
            p.add_argument("--side", choices=SIDES, required=True)
            p.add_argument("--mode", choices=MODES, default=MODES[0])
        else:
            p.add_argument("--side", choices=INVERSE_SIDES, default="both")

    p = command("witness", help="reproduce a named counterexample")
    p.add_argument("name", choices=WITNESS_NAMES)

    p = command("trees", help="M-sequences and their planar binary trees")
    p.add_argument("--length", type=_positive_int, required=True)

    return parser


def _handler(command: str):
    """The handler of ``command``; the other commands' handlers are in
    :mod:`loopseries.commands`, which the series commands never import."""
    if command in ("divide", "invert"):
        return _cmd_series
    from . import commands
    return getattr(commands, f"cmd_{command}")


def main(argv=None) -> int:
    # exact results print every digit, whatever PYTHONINTMAXSTRDIGITS says
    # (Python 3.10 before 3.10.7 has no limit and no setter)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read the value of an unknown option before the
    # command as the command; name the option instead
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-") or token == "--":
            break
        action = parser._option_string_actions.get(token.partition("=")[0])
        if action is None:
            parser.error(f"unrecognized arguments: {token}")
        if action.nargs is None and "=" not in token:
            next(tokens, None)
    args = parser.parse_args(argv)
    print(f"loopseries {__version__}", file=sys.stderr)
    try:
        if args.format == "csv" and args.command in NO_CSV:
            raise StructuralError(f"{args.command} has no csv output")
        output, code = _handler(args.command)(args)
    except (StructuralError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: {args.command}: input too large "
              f"({type(exc).__name__})", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
