"""Generated command lines at the CLI boundary.

A command line is a list of fields, one per option (and one each for the
command and a stray option), each with its valid tokens and the tokens
the README's input grammar refuses in their place: signs, spaces,
``1_0``, ``2e1``, non-ASCII digits, floats, booleans, a sign after
``*``, wrong matrix widths, unknown keys, a required option left out, an
option the command does not take. The commands, formats, kinds,
operators, algebras and witnesses are the parser's own choices, and the
sides, modes and flavors the package's vocabularies. A line is valid, or
has exactly one field refused. A second test draws lines with one value
slot, an integer option or a series coefficient, so that each refused
value is met often. ``cli.main`` must exit 2 with one ``error:`` line
and no traceback exactly on the refused lines, and otherwise exit 0 with
the same stdout on a second run. ``tests/test_cli.py::BAD_INPUTS`` stays the
fixed regression list.

The builders below are plain functions of hypothesis's ``draw``; only
``command_lines`` and ``value_lines`` are strategies, which keeps
generation cheap.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopseries import (
    COLOOP_FLAVORS,
    INVERSE_SIDES,
    MODES,
    SERIES_FLAVORS,
    SIDES,
    cli,
)
from loopseries.combinatorics import m_sequences

FUZZ_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])

PARSER = cli.build_parser()


def parser_choices(command: str | None, dest: str):
    """The choices the parser offers for ``dest``: an option of
    ``command``, or of the top level when ``command`` is None."""
    parser = PARSER
    if command is not None:
        parser = parser_choices(None, "command")[command]
    return next(a.choices for a in parser._actions if a.dest == dest)


FORMATS = parser_choices(None, "format")

# A field is ``(tokens, refuse)``: its valid argv tokens, drawn already,
# and a function of ``draw`` that gives tokens the grammar refuses in their
# place (None when there are none).


def option(draw, name: str, valid, refused: tuple, required: bool = True):
    """The field of an option with a ``valid`` value strategy and a tuple
    of ``refused`` values: a required option is refused when left out too,
    an optional one is left out half the time."""
    tokens = [name, draw(valid)]
    if not required and draw(st.booleans()):
        tokens = []
    refusals = tuple([name, v] for v in refused) + (([],) if required else ())
    return tokens, lambda draw: draw(st.sampled_from(refusals))


def foreign(tokens: list[str]) -> tuple:
    """The field of an option the command does not take: only its
    absence is valid."""
    return [], lambda draw: tokens


def choices(values: tuple) -> tuple:
    return st.sampled_from(values), ("bogus", "")


# -- integer options: plain ASCII digits --------------------------------------

NOT_DIGITS = ("-1", "+1", " 1", "1 ", "1_0", "2e1", "1.0", "\uff11",
              "\u0663", "", "x", "True")


@functools.lru_cache(maxsize=None)
def digits(lo: int, hi: int):
    """A value in ``[lo, hi]`` in ASCII digits, leading zeros allowed."""
    return st.tuples(st.integers(lo, hi), st.booleans()).map(
        lambda nz: f"0{nz[0]}" if nz[1] else str(nz[0]))


def integer(lo: int, hi: int) -> tuple:
    return digits(lo, hi), NOT_DIGITS + ("0",)


# -- series payloads ----------------------------------------------------------

RATIONALS = st.sampled_from(("0", "3", "-1/2", "2/3", 2, 0, -1))
NOT_RATIONALS = st.sampled_from(
    ("1_0", "2e1", "\uff11", "\u0663", "1/0", "x", "", " 1", "\t1", 0.5,
     True, None, ()))
NOT_CD = ("e1*e1", "e1*-2", "2*-e1", "--1", "e1 - -e2", "2e1", "1_0*e1",
          "\uff11*e1", "e", "", "e1_0", "e1 0", "1 2", "e 1", 1, 0.5, True,
          None, ("e1",))


def cd_literals(level: int) -> tuple:
    """Valid literals: signed terms, each a product of unsigned rational
    factors and at most one basis letter, spaced or not."""
    top = (1 << level) - 1
    return ("0", "1", "-2/3", "e1", f"-e{top}", f"1/2*e{top}", "2 - e1",
            f"e1 + 2*e{top}", f"-1/2*e{top // 2 + 1}+e0", f"1-e1+e{top}",
            f"3*e{top}*2", "2 * e1", "- e1")


def entry(level: int | None, bad: bool = False):
    """A rational (``level`` None) or Cayley-Dickson entry, one the
    grammar refuses when ``bad``."""
    if level is None:
        return NOT_RATIONALS if bad else RATIONALS
    return st.sampled_from(
        NOT_CD + (f"e{1 << level}",) if bad else cd_literals(level))


def coefficient(draw, algebra: str, bad: bool = False):
    """A coefficient of ``algebra``; with ``bad``, one with one fault."""
    dim, level = cli.ALGEBRAS[algebra]
    if dim is None:
        return draw(entry(level, bad))
    size = dim * dim
    fault = draw(st.sampled_from(("entry", "entry", "width", "not an array"))
                 ) if bad else None
    if fault == "not an array":
        return "1"
    width = size + draw(st.sampled_from((-1, 1))) if fault == "width" \
        else size
    cells = [draw(entry(level)) for _ in range(width)]
    if fault == "entry":
        cells[draw(st.integers(0, size - 1))] = draw(entry(level, bad=True))
    return cells


# a bad coefficient is the richest fault, so it is drawn most
SERIES_FAULTS = ("coefficient",) * 4 + (
    "too long", "wrong key", "unknown key", "no coeffs", "not an array",
    "not json")


def series(draw, flavor: str, order: int, algebra: str, fault=None) -> str:
    """A series JSON text: at most ``order`` coefficients, bare or under
    ``coeffs`` in an object that may repeat the flavor, order and
    algebra; or, given a ``fault`` from ``SERIES_FAULTS``, one with it."""
    if fault == "not json":
        return "{not json"
    if fault == "not an array":
        return json.dumps(draw(st.sampled_from((7, "12", None))))
    count = order + 1 if fault == "too long" else draw(
        st.integers(1 if fault == "coefficient" else 0, order))
    coeffs = [coefficient(draw, algebra) for _ in range(count)]
    if fault == "coefficient":
        coeffs[draw(st.integers(0, count - 1))] = coefficient(
            draw, algebra, bad=True)
    if fault in (None, "too long", "coefficient") and draw(st.booleans()):
        return json.dumps(coeffs)
    same = {"flavor": flavor, "order": order, "algebra": algebra}
    data = {"coeffs": coeffs}
    for key in draw(st.lists(st.sampled_from(sorted(same)), unique=True)):
        data[key] = same[key]
    if fault == "wrong key":
        key = draw(st.sampled_from(sorted(same)))
        data[key] = {"flavor": "ring", "algebra": "zz"}.get(key) \
            or draw(st.sampled_from((order + 1, True, float(order))))
    elif fault == "unknown key":
        data["bogus"] = 1
    elif fault == "no coeffs":
        del data["coeffs"]
    return json.dumps(data)


def series_option(draw, name: str, flavor: str, order: int, algebra: str):
    """The field of a required series option."""
    def refuse(draw):
        fault = draw(st.sampled_from(SERIES_FAULTS + ("left out",)))
        if fault == "left out":
            return []
        return [name, series(draw, flavor, order, algebra, fault)]

    return [name, series(draw, flavor, order, algebra)], refuse


# -- the commands -------------------------------------------------------------

def series_fields(draw, command: str) -> list:
    algebra = draw(st.sampled_from(cli.ALGEBRA_NAMES))
    level = cli.ALGEBRAS[algebra][1]
    # diff series need an associative carrier: level 3 and up is not
    nonassociative = level is not None and level >= 3
    flavors = tuple(f for f in SERIES_FLAVORS if f != "diff") \
        if nonassociative else SERIES_FLAVORS
    flavor = draw(st.sampled_from(flavors))
    order = draw(st.integers(1, 3))
    fields = [
        option(draw, "--flavor", st.just(flavor),
               ("bogus", "") + (("diff",) if nonassociative else ())),
        # the payloads are drawn for this order, so --order spells it
        option(draw, "--order", digits(order, order), NOT_DIGITS + ("0",)),
        option(draw, "--algebra", st.just(algebra), ("zz", "")),
        series_option(draw, "--a", flavor, order, algebra),
    ]
    if command == "divide":
        fields += [
            series_option(draw, "--b", flavor, order, algebra),
            option(draw, "--side", *choices(SIDES)),
            option(draw, "--mode", *choices(MODES), required=False),
        ]
    elif flavor == "inv":
        # the two inv inverses differ: inv needs --side left or right
        fields.append(option(draw, "--side", st.sampled_from(SIDES),
                             ("both", "bogus")))
    else:
        fields.append(option(draw, "--side", *choices(INVERSE_SIDES),
                             required=False))
    return fields


def operators_fields(draw) -> list:
    op = draw(st.sampled_from(parser_choices("operators", "op")))
    ell = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(1, 3), min_size=ell, max_size=ell))
    fields = [
        option(draw, "--op", st.just(op), ("bogus", "")),
        option(draw, "--degrees", st.just(",".join(map(str, degrees))),
               ("", "1,,2", "0", "1_0", "1, 2", "-1", "\uff11", "1.5")),
    ]
    # --bits belongs to Re and --m to Rm; Rm has one form, so no --mode
    if op == "Re":
        bits = st.lists(st.sampled_from("12"), min_size=ell, max_size=ell)
        fields.append(option(draw, "--bits", bits.map(",".join),
                             (",".join("1" * (ell + 1)), "3", "0", "", "1,b")))
    else:
        fields.append(foreign(["--bits", "1"]))
    if op == "Rm":
        m = st.sampled_from([",".join(map(str, s)) for s in m_sequences(ell)])
        wrong_length = tuple(",".join(map(str, s))
                             for s in m_sequences(ell + 1))
        fields += [option(draw, "--m", m, wrong_length + ("2,", "9")),
                   foreign(["--mode", "closed"])]
    else:
        fields += [foreign(["--m", "1"]),
                   option(draw, "--mode", *choices(MODES), required=False)]
    return fields


def command_fields(draw, command: str) -> list:
    if command == "coeffs":
        return [option(draw, "--kind",
                       *choices(parser_choices("coeffs", "kind")),
                       required=False),
                option(draw, "--n", *integer(1, 4))]
    if command == "coop":
        return [option(draw, "--flavor", *choices(COLOOP_FLAVORS)),
                option(draw, "--kind", *choices(cli.COOP_KINDS)),
                option(draw, "--n", *integer(1, 3))]
    if command == "verify":
        return [option(draw, "--flavor",
                       *choices(COLOOP_FLAVORS + ("both",)), required=False),
                option(draw, "--max-degree", *integer(1, 3), required=False)]
    if command == "trees":
        return [option(draw, "--length", *integer(1, 4))]
    if command == "witness":
        return [([draw(st.sampled_from(cli.WITNESS_NAMES))],
                 lambda draw: draw(st.sampled_from((["bogus"], []))))]
    if command == "operators":
        return operators_fields(draw)
    return series_fields(draw, command)


# the series commands have the richest grammar, so they are drawn most
COMMANDS = ("coeffs", "coop", "verify", "trees", "witness", "operators",
            "divide", "divide", "invert", "invert")


@st.composite
def command_lines(draw) -> tuple[list[str], bool]:
    """An argv and whether the grammar accepts it."""
    command = draw(st.sampled_from(COMMANDS))
    no_csv = command in cli.NO_CSV
    fields = [
        option(draw, "--format", st.sampled_from(
            tuple(f for f in FORMATS if f != "csv") if no_csv else FORMATS),
            ("bogus",) + (("csv",) if no_csv else ()), required=False),
        ([command], None),
        *draw(st.permutations(command_fields(draw, command))),
        # each option has one spelling: no aliases, no abbreviations
        foreign(["--bogus", "1"]),
        foreign(["--form", "json"]),
        # no command reads a seed
        foreign(["--seed", "5"]),
    ]
    faulty = None
    # two lines in three are refused: they are the cheaper ones to run
    if draw(st.sampled_from((True, True, False))):
        refusable = [i for i, (_, refuse) in enumerate(fields) if refuse]
        # the series payloads hold most of the grammar: weigh them four to one
        payloads = [i for i, (tokens, _) in enumerate(fields)
                    if tokens[:1] in (["--a"], ["--b"])]
        faulty = draw(st.sampled_from(refusable + payloads * 3))
        fields[faulty] = (fields[faulty][1](draw), None)
    return [t for tokens, _ in fields for t in tokens], faulty is None


# One value slot per line, ``None`` in the template: every integer option,
# with its bounds, and the one coefficient of an ``invert`` line.
INTEGER_SLOTS = (
    (("coeffs", "--n", None), 1, 4),
    (("coop", "--flavor", "fdb", "--kind", "delta", "--n", None), 1, 3),
    (("verify", "--flavor", "inv", "--max-degree", None), 1, 3),
    (("trees", "--length", None), 1, 4),
    (("invert", "--flavor", "diff", "--algebra", "q", "--a", "[]",
      "--order", None), 1, 3),
)


@st.composite
def value_lines(draw) -> tuple[list[str], bool]:
    """A line whose one value slot holds a valid or a refused value: the
    value grammars are the richest part of the input, and whole lines
    reach each refused value rarely."""
    bad = draw(st.booleans())
    if draw(st.booleans()):
        template, lo, hi = draw(st.sampled_from(INTEGER_SLOTS))
        valid, refused = integer(lo, hi)
        value = draw(st.sampled_from(refused) if bad else valid)
    else:
        algebra = draw(st.sampled_from(cli.ALGEBRA_NAMES))
        template = ("invert", "--flavor", "inv", "--side", "right",
                    "--order", "1", "--algebra", algebra, "--a", None)
        value = json.dumps([coefficient(draw, algebra, bad)])
    return [value if t is None else t for t in template], not bad


def run(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv: list[str], valid: bool) -> str:
    """Assert the exit code and output of a valid or refused line and
    return its stderr."""
    code, out, err = run(argv)
    if valid:
        assert code == 0, (argv, err)
        assert run(argv)[1] == out, argv
    else:
        assert code == 2, (argv, out)
        assert out == ""
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1, \
            (argv, err)
    return err


@FUZZ_SETTINGS
@given(command_lines())
def test_exit_2_exactly_on_a_refused_token(line):
    check(*line)


@settings(FUZZ_SETTINGS, max_examples=120)
@given(value_lines())
def test_exit_2_exactly_on_a_refused_value(line):
    check(*line)
