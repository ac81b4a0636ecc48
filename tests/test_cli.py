import csv
import hashlib
import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from loopseries import (
    COLOOP_FLAVORS,
    INVERSE_SIDES,
    MODES,
    SERIES_FLAVORS,
    SIDES,
    StructuralError,
    __version__,
    algebras,
    cli,
    coloops,
    operators,
    seriesloops,
    witnesses,
)
from loopseries.cli import main, series_from_json, series_to_json
from loopseries.freealg import NCPolynomial
from loopseries.seriesloops import TruncatedSeries
from test_cli_grammar import FORMATS, check, parser_choices


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                           "loopseries", "schemas", "cli_output.schema.json")


def validate_envelope(payload: str):
    data = json.loads(payload)
    if jsonschema is not None:
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        jsonschema.validate(data, schema)
    return data


class TestCoeffs:
    def test_csv_contains_catalan_row(self, capsys):
        code, out, err = run(capsys, "--format", "csv",
                             "coeffs", "--kind", "d", "--n", "5")
        assert code == 0
        assert '5,"(1,1,1,1)",42' in out.splitlines()
        assert out.splitlines()[0] == "n,composition,d"
        assert f"loopseries {__version__}" in err

    def test_labeled_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv",
                           "coeffs", "--kind", "de", "--n", "3")
        assert code == 0
        assert '3,"(1,2)","(1,1)",1' in out.splitlines()

    def test_json_validates(self, capsys):
        code, out, _ = run(capsys, "--format", "json",
                           "coeffs", "--kind", "d", "--n", "4")
        assert code == 0
        data = validate_envelope(out)
        assert {"n": 4, "composition": [1, 1, 1], "d": 14} in data["data"]

    @pytest.mark.parametrize("kind", ["d", "de"])
    def test_formats_list_one_table(self, capsys, kind):
        # (composition, e, value) in output order; e is None for d
        def parse(text: str) -> tuple:
            return tuple(int(x) for x in text.strip("()").split(",") if x)

        for n in range(1, 7):
            argv = ["coeffs", "--kind", kind, "--n", str(n)]
            tables = {}
            _, out, _ = run(capsys, "--format", "csv", *argv)
            tables["csv"] = [
                (parse(r["composition"]),
                 parse(r["e"]) if "e" in r else None,
                 int(r.get("d_e", r.get("d"))))
                for r in csv.DictReader(out.splitlines())]
            _, out, _ = run(capsys, "--format", "json", *argv)
            tables["json"] = [
                (tuple(r["composition"]),
                 tuple(r["e"]) if "e" in r else None,
                 r.get("d_e", r.get("d")))
                for r in json.loads(out)["data"]]
            _, out, _ = run(capsys, *argv)
            lines = [re.fullmatch(r"(\(.*?\)) +-> (-?\d+)(?:  e=(\(.*\)))?",
                                  line) for line in out.splitlines()]
            tables["text"] = [
                (parse(m[1]), parse(m[3]) if m[3] else None, int(m[2]))
                for m in lines]
            assert tables["csv"] == tables["json"] == tables["text"], n
            # 2^(n-1) compositions; with their labels, 3^(n-1) rows
            assert len(tables["csv"]) == (2 if kind == "d" else 3) ** (n - 1)


class TestCoop:
    @pytest.mark.parametrize("kind, entry", [
        ("delta", lambda table: table.coproduct(4)),
        ("counit", lambda table: NCPolynomial.zero()),
        ("delta_r", lambda table: table.codivision("right", 4)),
        ("delta_l", lambda table: table.codivision("left", 4)),
        ("s_r", lambda table: table.antipode("right", 4)),
        ("s_l", lambda table: table.antipode("left", 4)),
    ])
    def test_text_matches_library(self, capsys, kind, entry):
        code, out, _ = run(capsys, "coop", "--flavor", "fdb",
                           "--kind", kind, "--n", "4")
        assert code == 0
        assert out.strip() == str(entry(coloops.get_coloop("fdb")))

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "coop",
                           "--flavor", "inv", "--kind", "delta_r", "--n", "3")
        assert code == 0
        data = validate_envelope(out)
        assert data["data"]["polynomial"] == \
            coloops.get_coloop("inv").codivision("right", 3).to_json()


class TestOperators:
    def test_r_expansion(self, capsys):
        code, out, _ = run(capsys, "operators", "--op", "R",
                           "--degrees", "1,2")
        assert code == 0
        assert out.strip() == "2*x1*x2 + x1 | x2"

    def test_rm_requires_m(self, capsys):
        code, out, err = run(capsys, "operators", "--op", "Rm",
                             "--degrees", "1,1")
        assert code == 2
        assert "error" in err

    def test_re(self, capsys):
        code, out, _ = run(capsys, "operators", "--op", "Re",
                           "--degrees", "1,1", "--bits", "1,2")
        assert code == 0
        assert out.strip() == "x1 | x1"


class TestVerify:
    def test_expected_failure_whitelisted(self, capsys):
        code, out, _ = run(capsys, "verify", "--flavor", "fdb",
                           "--max-degree", "4")
        assert code == 0
        assert "expected-failure" in out
        assert "verdict: all as expected" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify",
                           "--flavor", "both", "--max-degree", "3")
        assert code == 0
        data = validate_envelope(out)
        records = data["data"]["records"]
        assert data["pass"] is True
        failing = [r for r in records if not r["pass"]]
        assert all(r["expected_failure"] for r in failing)
        assert {r["flavor"] for r in records} == {"inv", "fdb"}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "verify",
                           "--flavor", "fdb", "--max-degree", "3")
        assert code == 0
        assert out.splitlines()[0] == \
            "flavor,axiom,n,pass,expected_failure,discrepancy"

    # stdout of ``verify --flavor both --max-degree 9``; the benchmark
    # goldens stop at degree 7, so these pin the fdb coinverse-left
    # discrepancies at n = 8 and 9
    DEGREE_9_SHA256 = {
        "text": "89e056b28c357496fa1bed12bf4af550d2ea9da208a94c9cf1c1982f42c03ebe",
        "json": "48e0c033b8875c52009b3eff94edc41a3ae089e00f86bedf7c98b961baa1fd5d",
        "csv": "eff43a6ee46aa270724bcc131194d1646e501b81f3873fa6ed52a713f3e338af",
    }

    @pytest.mark.parametrize("expected", ["paper", "none"])
    def test_formats_agree_on_records_and_exit(self, capsys, monkeypatch,
                                               expected):
        # with no failure expected, fdb's coinverse-left failures are
        # unexpected, and every format exits 1
        if expected == "none":
            monkeypatch.setattr(coloops, "EXPECTED_FAILURES", {})
        argv = ["verify", "--flavor", "both", "--max-degree", "4"]
        code, out, _ = run(capsys, "--format", "json", *argv)
        envelope = json.loads(out)
        records = [{key: str(int(value)) if isinstance(value, bool)
                    else str(value or "") for key, value in r.items()}
                   for r in envelope["data"]["records"]]
        csv_code, out, _ = run(capsys, "--format", "csv", *argv)
        assert list(csv.DictReader(out.splitlines())) == records
        text_code, out, _ = run(capsys, *argv)
        verdict = out.splitlines()[-1]
        assert len(out.splitlines()) == len(records) + 1
        assert verdict == ("verdict: all as expected" if expected == "paper"
                           else "verdict: UNEXPECTED RESULTS")
        assert code == csv_code == text_code == \
            (0 if verdict == "verdict: all as expected" else 1)
        assert envelope["pass"] is (code == 0)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_degree_9_output_is_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "--format", fmt, "verify",
                           "--flavor", "both", "--max-degree", "9")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.DEGREE_9_SHA256[fmt]


class TestSeriesCommands:
    def test_divide_round_trip(self, capsys):
        a = {"coeffs": [["1", "1", "0", "1"], ["1", "0", "1", "0"]]}
        b = {"coeffs": [["0", "1", "1", "0"]]}
        code, out, _ = run(capsys, "--format", "json", "divide",
                           "--flavor", "diff", "--side", "left",
                           "--order", "4", "--algebra", "m2q",
                           "--a", json.dumps(a), "--b", json.dumps(b))
        assert code == 0
        data = validate_envelope(out)
        got = series_from_json(data["data"], "diff", 4, "m2q")
        lib_a = series_from_json(a, "diff", 4, "m2q")
        lib_b = series_from_json(b, "diff", 4, "m2q")
        from loopseries.seriesloops import divide
        assert got == divide("left", lib_a, lib_b)

    def test_invert_sedenion(self, capsys):
        code, out, _ = run(capsys, "invert", "--flavor", "inv",
                           "--side", "right", "--order", "3",
                           "--algebra", "sed",
                           "--a", '{"coeffs": ["e1 + e10"]}')
        assert code == 0
        assert "2*e1 + 2*e10" in out

    @pytest.mark.parametrize("algebra, coeff", [
        ("o", "e1 + e2"),
        ("sed", "e1 + e10"),
        ("m2sed", ["e1", "0", "e5", "1"]),
    ])
    @pytest.mark.parametrize("command", ["divide", "invert"])
    def test_diff_refuses_nonassociative_carrier(self, capsys, algebra,
                                                 coeff, command):
        series = json.dumps({"coeffs": [coeff]})
        argv = [command, "--flavor", "diff", "--order", "3",
                "--algebra", algebra, "--a", series]
        if command == "divide":
            argv += ["--b", series, "--side", "left"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["error: --a: diff series need an associative "
                          "coefficient algebra"]

    def test_diff_accepts_quaternions(self, capsys):
        series = json.dumps({"coeffs": ["e1 + e2"]})
        code, out, _ = run(capsys, "divide", "--flavor", "diff",
                           "--order", "3", "--algebra", "h", "--side",
                           "right", "--a", series, "--b", series)
        assert code == 0
        assert out.startswith("t + O(t^5)")

    def test_series_json_round_trip(self):
        s = TruncatedSeries("diff", 3, [Fraction(1, 2), Fraction(-3)])
        blob = series_to_json(s, "q")
        assert series_from_json(blob, "diff", 3, "q") == s


def test_divide_computes_one_route_only(capsys, monkeypatch):
    # fresh fdb tables and both division modes, with every other route to
    # the same numbers made to fail: the runtime path computes once
    def forbidden(*args, **kwargs):
        raise AssertionError("a second route was evaluated")

    for name in ("triangle", "right_op", "left_op", "right_op_e"):
        monkeypatch.setattr(operators, name, forbidden)
    monkeypatch.setattr(coloops, "_COLOOPS", {})
    table = coloops.get_coloop("fdb")
    for n in range(1, 6):
        table.coproduct(n)
        table.codivision("right", n)
        table.codivision("left", n)
    a = json.dumps({"coeffs": [["1", "1", "0", "1"], ["1", "0", "1", "0"]]})
    b = json.dumps({"coeffs": [["0", "1", "1", "0"]]})
    outputs = {}
    for mode, others in (("recursive", ("_closed",)),
                         ("closed", ("_solve",))):
        with monkeypatch.context() as patch:
            for other in others:
                patch.setattr(seriesloops, other, forbidden)
            for side in ("left", "right"):
                code, out, _ = run(capsys, "divide", "--flavor", "diff",
                                   "--side", side, "--order", "5",
                                   "--algebra", "m2q", "--a", a, "--b", b,
                                   "--mode", mode)
                assert code == 0
                outputs[mode, side] = out
    for side in ("left", "right"):
        assert outputs["recursive", side] == outputs["closed", side]


def test_diff_inverse_builds_no_table(capsys, monkeypatch):
    # the diff inverse is the recursive solve: it runs with every coloop
    # table builder made to fail and no table built yet
    def forbidden(*args, **kwargs):
        raise AssertionError("a coloop table was built")

    for kind in ("delta", "delta_r", "delta_l", "s_r", "s_l"):
        monkeypatch.setattr(coloops.Coloop, f"_build_{kind}", forbidden)
    monkeypatch.setattr(coloops, "_COLOOPS", {})
    a = {"coeffs": [["1", "1", "0", "1"], ["1", "0", "1", "0"],
                    ["0", "2", "-1", "1/2"]]}
    for side in ("both", "left", "right"):
        code, out, _ = run(capsys, "--format", "json", "invert",
                           "--flavor", "diff", "--side", side,
                           "--order", "6", "--algebra", "m2q",
                           "--a", json.dumps(a))
        assert code == 0
        inv = series_from_json(json.loads(out)["data"], "diff", 6, "m2q")
        lib_a = series_from_json(a, "diff", 6, "m2q")
        assert seriesloops.diff_compose(lib_a, inv).is_unit()
        assert seriesloops.diff_compose(inv, lib_a).is_unit()


# the loopseries modules each command loads besides the package and
# ``cli``: exactly the layers its handler runs
IMPORT_GRAPH = [
    (["trees", "--length", "2"], {"commands", "combinatorics"}),
    (["coeffs", "--kind", "de", "--n", "3"], {"commands", "combinatorics"}),
    (["operators", "--op", "R", "--degrees", "1,2"],
     {"commands", "combinatorics", "freealg", "operators"}),
    (["coop", "--flavor", "fdb", "--kind", "s_l", "--n", "3"],
     {"commands", "combinatorics", "freealg", "coloops"}),
    (["verify", "--flavor", "both", "--max-degree", "2"],
     {"commands", "combinatorics", "freealg", "coloops"}),
    (["divide", "--flavor", "diff", "--side", "left", "--order", "3",
      "--algebra", "q", "--a", '["1"]', "--b", '["2"]'],
     {"algebras", "seriesloops"}),
    (["invert", "--flavor", "diff", "--order", "3", "--algebra", "m2q",
      "--a", '[["1", "1", "0", "1"]]'],
     {"algebras", "seriesloops"}),
    # only the closed division formulas read Lagrange coefficients
    (["divide", "--flavor", "inv", "--side", "right", "--order", "3",
      "--algebra", "q", "--mode", "closed", "--a", '["1"]', "--b", '["2"]'],
     {"combinatorics", "algebras", "seriesloops"}),
    (["witness", "ucd-not-loop"],
     {"commands", "algebras", "seriesloops", "witnesses"}),
]


def table_label(argv: list[str]) -> str:
    """A command line as the README's cold-start table names it: the
    command, and the mode where it is closed, which loads more."""
    return " ".join([argv[0]] + (["--mode", "closed"] if "closed" in argv
                                 else []))


LOADED_MODULES = """
import contextlib, io, json, sys
from loopseries.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv, layers", IMPORT_GRAPH,
                         ids=[table_label(argv) for argv, _ in IMPORT_GRAPH])
def test_command_loads_only_its_layers(argv, layers):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    loaded = {name for name in modules if name.startswith("loopseries")}
    assert loaded == {"loopseries", "loopseries.cli"} \
        | {f"loopseries.{name}" for name in layers}


# Runs the series commands in one interpreter, then lists every name
# defined by a loaded loopseries module that belongs to another command.
SERIES_PATH_NAMES = """
import contextlib, io, json, sys
from loopseries.cli import main
divide = ["divide", "--flavor", "diff", "--side", "left", "--order", "3",
          "--algebra", "m2q", "--a", '[["1", "1", "0", "1"]]',
          "--b", '[["0", "1", "1", "0"]]']
invert = ["invert", "--flavor", "inv", "--side", "right", "--order", "3",
          "--algebra", "sed", "--a", '["e1 + e10"]']
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(divide), main(invert)]
foreign = {"witness", "ucd_divide", "DoubledElement"} | {
    prefix + command for prefix in ("cmd_", "_cmd_")
    for command in ("coeffs", "coop", "operators", "verify", "witness",
                    "trees")}
found = sorted(f"{name}.{attr}" for name, mod in list(sys.modules.items())
               if name.startswith("loopseries") for attr in vars(mod)
               if attr in foreign)
print(json.dumps([codes, found]))
"""


def test_series_commands_load_no_other_commands_code():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", SERIES_PATH_NAMES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, found = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert found == []


def test_parser_constants_match_the_library():
    assert cli.ALGEBRA_NAMES == tuple(sorted(cli.ALGEBRAS))
    # each algebra's unit is the identity of its carrier
    for name, (dim, level) in cli.ALGEBRAS.items():
        one = cli.series_from_json([], "inv", 1, name).one
        assert algebras.one_of(one) == one
        assert getattr(one, "dim", None) == dim
        assert getattr(one, "level", None) == level
    assert cli.WITNESS_NAMES == witnesses.WITNESS_NAMES
    # coop prints images, and the axiom table writes its sides as image
    # specs: every name in a spec, at any depth, is an image name
    images = set(coloops.Coloop._IMAGES)
    assert set(cli.COOP_KINDS) <= images

    def names(spec) -> set:
        if isinstance(spec, str):
            return {spec}
        assert isinstance(spec, tuple) and spec, spec
        return set().union(*map(names, spec))

    for axiom, rows in coloops.AXIOMS.items():
        for side in (side for row in rows for side in row):
            assert names(side) <= images, (axiom, side)


def test_parser_offers_the_package_vocabularies():
    # each vocabulary's value is pinned here once; the other tests, the
    # grammar fuzz included, read the tuples
    assert SIDES == ("left", "right")
    assert INVERSE_SIDES == SIDES + ("both",)
    assert MODES == ("recursive", "closed")
    assert SERIES_FLAVORS == ("inv", "diff")
    assert COLOOP_FLAVORS == ("inv", "fdb")
    assert FORMATS == ("text", "json", "csv")
    assert parser_choices("coeffs", "kind") == ("d", "de")
    assert parser_choices("operators", "op") == ("L", "R", "Re", "Rm")

    assert parser_choices("coop", "flavor") is COLOOP_FLAVORS
    assert parser_choices("verify", "flavor") == COLOOP_FLAVORS + ("both",)
    assert parser_choices("operators", "mode") is MODES
    for command in ("divide", "invert"):
        assert parser_choices(command, "flavor") is SERIES_FLAVORS
    assert parser_choices("divide", "side") is SIDES
    assert parser_choices("divide", "mode") is MODES
    assert parser_choices("invert", "side") is INVERSE_SIDES
    # the default mode is the first, at the command line and in the library
    divide = parser_choices(None, "command")["divide"]
    assert divide.get_default("mode") == MODES[0]
    for fn in (seriesloops.divide, operators.left_op, operators.right_op,
               operators.right_op_e):
        assert inspect.signature(fn).parameters["mode"].default == MODES[0]


@pytest.mark.parametrize("argv", [
    ["operators", "--op", "L", "--degrees", "1,2,1"],
    ["operators", "--op", "R", "--degrees", "1,2,1"],
    ["operators", "--op", "Re", "--degrees", "1,2,1", "--bits", "1,2,1"],
    ["divide", "--flavor", "diff", "--side", "left", "--order", "3",
     "--algebra", "q", "--a", '["1", "2"]', "--b", '["3"]'],
], ids=lambda a: a[0] + " " + a[2])
def test_mode_left_out_is_the_first_mode(capsys, argv):
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--mode", MODES[0]) == default


def test_schema_enums_are_the_vocabularies():
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    # the properties of each object that a command's data is, by command
    data = {}
    for branch in schema["allOf"]:
        command = branch["if"]["properties"]["command"]
        for name in command.get("enum", [command.get("const")]):
            data[name] = branch["then"]["properties"]["data"].get(
                "properties")
    assert data["coop"]["flavor"]["enum"] == list(COLOOP_FLAVORS)
    assert data["coop"]["kind"]["enum"] == list(cli.COOP_KINDS)
    assert data["operators"]["op"]["enum"] == \
        list(parser_choices("operators", "op"))
    record = data["verify"]["records"]["items"]["properties"]
    assert record["flavor"]["enum"] == list(COLOOP_FLAVORS)
    for command in ("divide", "invert"):
        assert data[command]["flavor"]["enum"] == list(SERIES_FLAVORS)
    assert schema["properties"]["command"]["enum"] == \
        list(parser_choices(None, "command"))


def _unit_series(flavor: str = "inv") -> TruncatedSeries:
    return TruncatedSeries(flavor, 2, [Fraction(0)])


# Each library refusal of an unknown name: the call, the name it refuses
# and the names it allows.
REFUSALS = {
    "Coloop-flavor": (lambda: coloops.Coloop("diff"), "diff", COLOOP_FLAVORS),
    "codivision-side": (lambda: coloops.get_coloop("inv").codivision("up", 1),
                        "up", SIDES),
    "antipode-side": (lambda: coloops.get_coloop("fdb").antipode("up", 1),
                      "up", SIDES),
    "axiom": (lambda: coloops.get_coloop("inv").axiom_check("nope", 1),
              "nope", tuple(coloops.AXIOMS)),
    "TruncatedSeries-flavor": (lambda: TruncatedSeries("fdb", 2, [1]),
                               "fdb", SERIES_FLAVORS),
    "divide-side": (lambda: seriesloops.divide("up", _unit_series(),
                                               _unit_series()),
                    "up", SIDES),
    "divide-mode": (lambda: seriesloops.divide("left", _unit_series(),
                                               _unit_series(), "fast"),
                    "fast", MODES),
    "series_inverse-side": (lambda: seriesloops.series_inverse(
        _unit_series("diff"), "up"), "up", INVERSE_SIDES),
    "convolution_eval-kind": (lambda: seriesloops.convolution_eval(
        "counit", _unit_series(), _unit_series(), 1),
        "counit", ("delta", "delta_r", "delta_l", "s_r", "s_l")),
    "left_op-mode": (lambda: operators.left_op([], "fast"), "fast", MODES),
    "right_op-mode": (lambda: operators.right_op([], "fast"), "fast", MODES),
    "right_op_e-mode": (lambda: operators.right_op_e((), [], "fast"),
                        "fast", MODES),
    "ucd_divide-side": (lambda: witnesses.ucd_divide(
        "both", witnesses.DoubledElement(Fraction(1), Fraction(0)),
        witnesses.DoubledElement(Fraction(0), Fraction(1))),
        "both", SIDES),
    "witness": (lambda: witnesses.witness("nope"), "nope",
                witnesses.WITNESS_NAMES),
    "identity": (lambda: algebras.identity_check("associator", 1, 2, 3),
                 "associator", ("power-assoc-3", "left-alternative",
                                "right-alternative", "flexible", "moufang-1",
                                "moufang-2", "moufang-3", "moufang-4")),
}


@pytest.mark.parametrize("call, bad, allowed", REFUSALS.values(),
                         ids=REFUSALS)
def test_unknown_name_refusal_lists_the_allowed_names(call, bad, allowed):
    with pytest.raises(StructuralError) as exc:
        call()
    message = str(exc.value)
    assert re.fullmatch(r"\w+ must be one of \(.*\), got .*", message)
    assert message.endswith(f"got {bad!r}")
    assert all(repr(name) in message for name in allowed), message


class TestWitnessCommand:
    def test_text_pass(self, capsys):
        code, out, _ = run(capsys, "witness", "diff-power-assoc")
        assert code == 0
        assert "witness diff-power-assoc: PASS" in out
        assert "[[2, 4], [1, 2]]" in out
        assert "[[3, 3], [1, 1]]" in out

    @pytest.mark.parametrize("name", cli.WITNESS_NAMES)
    def test_witness_reads_no_seed(self, capsys, name):
        # every witness is fixed: a null seed, and stderr is the version
        code, out, err = run(capsys, "--format", "json", "witness", name)
        assert code == 0
        data = validate_envelope(out)
        assert data["pass"] is True
        assert data["seed"] is None
        assert err.splitlines() == [f"loopseries {__version__}"]
        code, _, err = run(capsys, "--format", "csv", "witness", name)
        assert code == 2
        assert err.splitlines() == [f"loopseries {__version__}",
                                    "error: witness has no csv output"]

    def test_unknown_witness_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "witness", "nope")
        assert exc.value.code == 2


class TestTrees:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "trees", "--length", "2")
        assert code == 0
        assert out.splitlines() == ["(2,0) ((..).)", "(1,1) (.(..))"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "trees", "--length", "3")
        assert code == 0
        assert len(out.splitlines()) == 1 + 5


BAD_INPUTS = [
    ["coeffs", "--n", "0"],
    ["coeffs", "--kind", "de", "--n", "x"],
    ["coop", "--flavor", "fdb", "--kind", "delta", "--n", "-1"],
    ["invert", "--flavor", "inv", "--order", "0", "--algebra", "q",
     "--a", '["1"]'],
    ["operators", "--op", "R", "--degrees", "1,,2"],
    ["operators", "--op", "Re", "--degrees", "1,2", "--bits", "1,b"],
    ["operators", "--op", "Rm", "--degrees", "1,2", "--m", "2,"],
    ["operators", "--op", "L", "--degrees", "1,1", "--bits", "1,2"],
    ["operators", "--op", "R", "--degrees", "1,1", "--bits", "1,2"],
    ["operators", "--op", "Rm", "--degrees", "1,1", "--m", "2,0",
     "--bits", "1,2"],
    ["operators", "--op", "L", "--degrees", "1,1", "--m", "2,0"],
    ["operators", "--op", "R", "--degrees", "1,1", "--m", "2,0"],
    ["operators", "--op", "Re", "--degrees", "1,1", "--bits", "1,2",
     "--m", "2,0"],
    # int alone reads digit-group underscores: "1_0" as 10
    ["operators", "--op", "R", "--degrees", "1_0"],
    ["operators", "--op", "Re", "--degrees", "1,1", "--bits", "1,1_0"],
    ["operators", "--op", "Rm", "--degrees", "1,1", "--m", "2,0_0"],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "q", "--a", '["1"]', "--b", "{not json"],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "q", "--a", '["1/0"]', "--b", '["1"]'],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "q", "--a", "{}", "--b", '["1"]'],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "q", "--a", '["1"]', "--b", '{"flavor": "inv"}'],
    ["invert", "--flavor", "inv", "--order", "2", "--algebra", "q",
     "--a", "7"],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "q", "--a", '["x"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "h", "--a", '["ex"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "h", "--a", "[1]"],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "h", "--a", '["e1*e2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["2e1"]'],
    # Fraction alone reads "2e1" as 20 and "1_0" as 10
    ["divide", "--flavor", "inv", "--order", "1", "--algebra", "q",
     "--side", "right", "--a", '["2e1"]', "--b", '["0"]'],
    ["invert", "--flavor", "diff", "--order", "1", "--algebra", "m2q",
     "--a", '[["1_0", "0", "0", "1"]]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["1_0*e1"]'],
    ["divide", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "q", "--a", '"12"', "--b", '["0"]'],
    ["divide", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "q", "--a", '{"coeffs": "12"}', "--b", '["0"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "m2q", "--a", '["1234"]'],
    ["divide", "--flavor", "diff", "--side", "right", "--order", "3",
     "--algebra", "sed", "--a", '{"flavor":"inv","coeffs":["e1"]}',
     "--b", '{"flavor":"inv","coeffs":["e2"]}'],
    ["divide", "--flavor", "inv", "--side", "right", "--order", "3",
     "--algebra", "q", "--a", '{"order":2,"coeffs":["1"]}',
     "--b", '{"order":2,"coeffs":["2"]}'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "q", "--a", '{"algebra":"h","coeffs":["1"]}'],
    # the series object has four keys, and its order is a JSON integer:
    # true and 1.0 compare equal to 1
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "q", "--a", '{"coeffs": ["1"], "order": true}'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "q", "--a", '{"coeffs": ["1"], "order": 1.0}'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "q", "--a", '{"coeffs": ["1"], "bogus": 3}'],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "1",
     "--algebra", "q", "--a", '["1"]', "--b", '{"coeffs": ["1"], "a": 1}'],
    # one sign per term, as a rational literal has
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["--1"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["e1 - -e2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "m2sed", "--a", '[["+-1", "0", "0", "1"]]'],
    # ... and it opens the term: a factor after "*" takes none
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["e1*-2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["-e1*-2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["e1*+2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["1/2*-3"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["2*-e1"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "m2sed", "--a", '[["1", "e1*-2", "0", "1"]]'],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "1",
     "--algebra", "q", "--a", '["0"]', "--b", "[0.1]"],
    ["divide", "--flavor", "inv", "--side", "left", "--order", "1",
     "--algebra", "q", "--a", '["0"]', "--b", "[true]"],
    ["invert", "--flavor", "diff", "--order", "1", "--algebra", "m2q",
     "--a", '[["1", 0.5, "0", "1"]]'],
    ["invert", "--flavor", "diff", "--order", "1", "--algebra", "m3q",
     "--a", '[[1, 0, 0, 0, 1, 0, 0, 0, false]]'],
    ["--format", "csv", "operators", "--op", "R", "--degrees", "1,2"],
    ["--format", "csv", "divide", "--flavor", "inv", "--side", "left",
     "--order", "1", "--algebra", "q", "--a", '["1"]', "--b", '["2"]'],
    ["--format", "csv", "invert", "--flavor", "inv", "--side", "right",
     "--order", "1", "--algebra", "q", "--a", '["1"]'],
    ["--format", "csv", "witness", "diff-power-assoc"],
    ["verify", "--max-degree", "0"],
    ["verify", "--max-degree", "-3"],
    ["trees", "--length", "0"],
    # integer options are ASCII digits: int alone reads digit-group
    # underscores, other scripts' digits, signs and spaces
    ["trees", "--length", "1_0"],
    ["trees", "--length", "\u0663"],
    ["trees", "--length", "+3"],
    ["trees", "--length", " 3"],
    ["coeffs", "--n", "\uff13"],
    ["verify", "--max-degree", "0_3"],
    # no command reads a seed, so --seed is an unknown option wherever it
    # stands and in either spelling, also before a command that once ran
    # with it; the error line names it (UNKNOWN_OPTIONS)
    ["--seed", "5", "witness", "ucd-not-loop"],
    ["--seed=5", "witness", "ucd-not-loop"],
    ["witness", "ucd-not-loop", "--seed", "5"],
    ["--seed", "5", "trees", "--length", "1"],
    ["--bogus", "1", "trees", "--length", "1"],
    # more coefficients than the order, in either series option
    ["divide", "--flavor", "inv", "--order", "1", "--side", "right",
     "--algebra", "q", "--a", '["1", "2"]', "--b", '["1"]'],
    ["divide", "--flavor", "inv", "--order", "1", "--side", "right",
     "--algebra", "q", "--a", '["1"]', "--b", '["1", "2"]'],
    # Fraction alone reads any Unicode decimal digit
    ["divide", "--flavor", "inv", "--order", "2", "--side", "left",
     "--algebra", "q", "--a", '["\uff11", "2"]', "--b", '["0", "1"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["\uff11*e1"]'],
    ["invert", "--flavor", "diff", "--order", "1", "--algebra", "m2q",
     "--a", '[["1/\uff12", "0", "0", "1"]]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "q", "--a", '["\u0663"]'],
    # an operator needs at least one letter
    ["operators", "--op", "R", "--degrees", ""],
    ["operators", "--op", "L", "--degrees", ""],
    ["operators", "--op", "Re", "--degrees", "", "--bits", ""],
    # --mode chooses between the two forms of L, R and Re; Rm has one
    ["operators", "--op", "Rm", "--degrees", "1,1", "--m", "2,0",
     "--mode", "closed"],
    # one spelling per option: no aliases, no abbreviations
    ["verify", "--report", "json"],
    ["trees", "--l", "2"],
    ["--form", "json", "trees", "--length", "1"],
    ["verify", "--max", "2"],
    # past the recursion limit: one error line naming the command
    ["trees", "--length", "3000"],
    ["operators", "--op", "R", "--degrees", ",".join(["1"] * 1500),
     "--mode", "closed"],
    # a rational literal has no surrounding whitespace, which Fraction
    # alone strips
    ["invert", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "c", "--a", '["\t1"]'],
    ["invert", "--flavor", "inv", "--side", "left", "--order", "2",
     "--algebra", "q", "--a", '[" 1"]'],
    ["invert", "--flavor", "diff", "--order", "1", "--algebra", "m2q",
     "--a", '[["1 ", "0", "0", "1"]]'],
    # a space inside a Cayley-Dickson term would join two tokens
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "sed", "--a", '["e1 0"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "h", "--a", '["1 2"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "1",
     "--algebra", "m2sed", "--a", '[["1 /2", "0", "0", "1"]]'],
    # json alone keeps the last value of a repeated key
    ["divide", "--flavor", "inv", "--order", "2", "--side", "right",
     "--algebra", "q", "--a", '{"coeffs": ["1"], "coeffs": ["2"]}',
     "--b", '["1"]'],
    ["invert", "--flavor", "inv", "--side", "right", "--order", "2",
     "--algebra", "q", "--a", '{"order": 3, "order": 2, "coeffs": []}'],
]


@pytest.mark.parametrize("data, algebra, expected", [
    ('"12"', "q", "series coefficients must be a JSON array"),
    ({"coeffs": "12"}, "q", "series coefficients must be a JSON array"),
    (["1234"], "m2q", "a matrix coefficient must be a JSON array"),
    ([1], "h", "a Cayley-Dickson coefficient must be a JSON string"),
    ([["e1", 1, "0", "1"]], "m2sed",
     "a Cayley-Dickson coefficient must be a JSON string"),
    ({}, "q", "series JSON has no coeffs key"),
    ({"flavor": "inv", "order": 2}, "q", "series JSON has no coeffs key"),
    ('{"coeffs": ["1"], "coeffs": ["2"]}', "q",
     "series JSON repeats key 'coeffs'"),
    ('{"order": 3, "order": 2, "coeffs": []}', "q",
     "series JSON repeats key 'order'"),
])
def test_series_json_names_the_expected_type(data, algebra, expected):
    with pytest.raises(StructuralError, match=expected):
        series_from_json(data, "inv", 2, algebra)


@pytest.mark.parametrize("option", ["--a", "--b"])
@pytest.mark.parametrize("algebra, good, bad, message", [
    ("q", '["1", "1"]', '["1", "2e1"]', "not an exact rational: '2e1'"),
    ("h", '["e1", "e2"]', '["e1", "2e1"]', "bad factor '2e1' in term '2e1'"),
    ("m2q", '[["1", "0", "0", "1"], ["1", "0", "0", "1"]]',
     '[["1", "0", "0", "1"], ["1", "0", "0", "1_0"]]',
     "not an exact rational: '1_0'"),
])
def test_decoder_error_names_option_and_degree(capsys, option, algebra,
                                               good, bad, message):
    series = {"--a": good, "--b": good, option: bad}
    code, out, err = run(capsys, "divide", "--flavor", "inv", "--order", "2",
                         "--side", "right", "--algebra", algebra,
                         "--a", series["--a"], "--b", series["--b"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {option}: coefficient 2: {message}"


@pytest.mark.parametrize("option", ["--a", "--b"])
def test_count_error_names_the_option(capsys, option):
    series = {"--a": '["1"]', "--b": '["1"]', option: '["1", "2"]'}
    code, out, err = run(capsys, "divide", "--flavor", "inv", "--order", "1",
                         "--side", "right", "--algebra", "q",
                         "--a", series["--a"], "--b", series["--b"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == \
        f"error: {option}: 2 coefficients exceed order 1"


def test_malformed_series_json_keeps_its_message(capsys):
    code, out, err = run(capsys, "invert", "--flavor", "inv", "--order", "2",
                         "--side", "right", "--algebra", "q", "--a", "[1,")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "error: --a: cannot decode series: Expecting value")


def test_decoder_fault_is_not_reported_as_bad_input(capsys, monkeypatch):
    # only malformed JSON is a decode error; a fault of the program
    # propagates instead of exiting 2
    def broken(value, algebra):
        raise TypeError("decoder fault")

    monkeypatch.setattr(cli, "_decode", broken)
    with pytest.raises(TypeError, match="decoder fault"):
        run(capsys, "invert", "--flavor", "inv", "--order", "2",
            "--side", "right", "--algebra", "q", "--a", '["1"]')


# Reads sys.modules without importing json itself.
JSON_UNLOADED = """
import contextlib, io, sys
from loopseries.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


def test_text_verify_does_not_import_json():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", JSON_UNLOADED, "verify",
                           "--flavor", "inv", "--max-degree", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# Options no parser has: the error line of a BAD_INPUTS row that holds
# one names it, not the value that follows it, which argparse alone would
# read as the command.
UNKNOWN_OPTIONS = ("--seed", "--bogus")


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a))
def test_bad_input_exits_2_without_traceback(argv):
    # in-process: an exception that escapes cli.main fails the test
    err = check(argv, valid=False)
    for option in UNKNOWN_OPTIONS:
        if any(t.partition("=")[0] == option for t in argv):
            assert err.splitlines()[-1].startswith(
                f"loopseries: error: unrecognized arguments: {option}"), err


# one argparse usage error, one StructuralError and one RecursionError,
# each in a fresh interpreter as a user meets them
@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "0"],
    ["operators", "--op", "R", "--degrees", "1,,2"],
    ["trees", "--length", "3000"],
], ids=lambda a: " ".join(a))
def test_bad_input_exits_2_in_a_fresh_interpreter(argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "loopseries.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines()
                if "error:" in line]) == 1


@pytest.mark.parametrize("argv, message", [
    (["operators", "--op", "R", "--degrees", "0"],
     "--degrees: generator index must be >= 1, got 0"),
    (["operators", "--op", "Re", "--degrees", "1,1", "--bits", "1,3"],
     "--bits: bits must be 1 or 2, got (1, 3)"),
    (["operators", "--op", "Re", "--degrees", "1,1", "--bits", "1"],
     "--bits: 1 bits for length 2"),
    (["operators", "--op", "Rm", "--degrees", "1,1", "--m", "1,0"],
     "--m: (1, 0) is not an M-sequence matching the input"),
    (["invert", "--flavor", "inv", "--order", "2", "--algebra", "q",
      "--a", '["1"]'],
     "--side: inv series need an explicit inverse side"),
])
def test_input_error_names_its_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"


def test_output_ignores_the_int_string_limit():
    # x_2 = N^2 has 800 digits, more than a limit of 640 allows to print
    big = 10 ** 400 - 1
    argv = ["divide", "--flavor", "inv", "--order", "2", "--algebra", "q",
            "--side", "left", "--a", json.dumps([str(big), "1"]),
            "--b", '["0", "1"]']
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for limit in (None, "640"):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "loopseries.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == f"1 + (-{big})*t + ({big * big})*t^2 + O(t^3)\n"


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    from loopseries import commands

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(commands, "cmd_trees", exhausted)
    code, out, err = run(capsys, "trees", "--length", "2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == \
        "error: trees: input too large (MemoryError)"


def test_module_run_compiles_cli_once():
    # under ``python -m loopseries.cli`` the module runs as __main__; no
    # other module may import it a second time as loopseries.cli
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "loopseries.cli", "trees", "--length", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "loopseries.commands" in imported
    assert "loopseries.cli" not in imported


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``loopseries`` lines in the README's
    ``sh`` blocks, continuation lines joined and comments dropped."""
    with open(README) as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "loopseries":
                commands.append(argv[1:])
    return commands


def test_readme_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code == 0, argv


def cold_start_table() -> list[tuple[list[str], set[str], int]]:
    """The rows of the README's cold-start table: the commands, the
    modules they load besides ``cli``, and the source lines they compile."""
    with open(README) as fh:
        lines = fh.read().split("### Cold start", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                lines[start:])
    rows = []
    # the header and the rule line first
    for line in list(table)[2:]:
        commands, modules, count = line.strip("|").split("|")
        rows.append((re.findall(r"`([^`]+)`", commands),
                     set(re.findall(r"`([^`]+)`", modules)),
                     int(count.replace(",", ""))))
    return rows


def test_readme_cold_start_table():
    # each row's modules are the IMPORT_GRAPH layers of its commands, and
    # its source lines those modules', the package __init__ and cli's
    graph = {}
    for argv, layers in IMPORT_GRAPH:
        assert graph.setdefault(table_label(argv), layers) == layers, argv
    rows = cold_start_table()
    assert sorted(c for commands, _, _ in rows for c in commands) == \
        sorted(graph)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "loopseries")

    def wc_l(module: str) -> int:
        with open(os.path.join(src, f"{module}.py"), "rb") as fh:
            return fh.read().count(b"\n")

    for commands, modules, count in rows:
        assert all(graph[c] == modules for c in commands), commands
        assert count == sum(map(wc_l, ["__init__", "cli", *modules])), \
            commands


class TestHarness:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "coeffs")
        assert exc.value.code == 2

    def test_byte_determinism(self, capsys):
        args = ("--format", "json", "verify", "--flavor", "fdb",
                "--max-degree", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_version_always_on_stderr(self, capsys):
        _, _, err = run(capsys, "trees", "--length", "1")
        assert err.startswith(f"loopseries {__version__}")
