"""Checks on the library source itself: every public name, and every
public method of a public class, is run by a command or kept for a stated
reason, the names the benchmark reads exist, and no module imports a name
it never uses."""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import sys

import pytest

from loopseries import (
    COLOOP_FLAVORS,
    INVERSE_SIDES,
    MODES,
    SERIES_FLAVORS,
    SIDES,
    cli,
)
from loopseries.cli import main
from test_cli_grammar import FORMATS, parser_choices

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "loopseries")
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")

ALGEBRA_SERIES = {
    "q": ('["1", "1/2"]', '["2", "-1"]'),
    "c": ('["e1", "1"]', '["1 - e1", "2"]'),
    "h": ('["e1 + e2", "1"]', '["e3", "-1/2"]'),
    "o": ('["e1 + e4", "e7"]', '["e2", "1"]'),
    "sed": ('["e1 + e10", "e5"]', '["e5 + e14", "1"]'),
    "m2q": ('[["1", "1", "0", "1"], ["0", "1", "1", "0"]]',
            '[["0", "1", "1", "0"], ["1", "0", "0", "2"]]'),
    "m3q": ('[["1", "0", "0", "0", "1", "0", "0", "0", "1"]]',
            '[["0", "1", "0", "0", "0", "1", "1", "0", "0"]]'),
    "m2sed": ('[["e1", "0", "0", "1"], ["e5", "1", "0", "0"]]',
              '[["1", "e2", "0", "1"], ["0", "0", "e14", "1"]]'),
}


def test_every_algebra_has_series():
    assert sorted(ALGEBRA_SERIES) == sorted(cli.ALGEBRA_NAMES)
    assert all(isinstance(a, str) and isinstance(b, str)
               for a, b in ALGEBRA_SERIES.values())


# the letter options of each operator besides --degrees; Rm has one form,
# so no --mode
OPERATOR_EXTRAS = {"L": [], "R": [], "Re": ["--bits", "1,2,1"],
                   "Rm": ["--m", "2,0,1"]}


def _commands() -> list[list[str]]:
    """Every command, in every format it has, over every flavor, kind,
    operator, mode, side, algebra and witness, at small sizes; the
    formats, kinds, operators, witnesses and algebras are the parser's own
    lists, and the sides, modes and flavors the package's vocabularies."""
    out = []
    for fmt in FORMATS:
        g = ["--format", fmt]
        out += [g + ["coeffs", "--kind", kind, "--n", "4"]
                for kind in parser_choices("coeffs", "kind")]
        out += [g + ["coop", "--flavor", flavor, "--kind", kind, "--n", "3"]
                for flavor in COLOOP_FLAVORS for kind in cli.COOP_KINDS]
        out.append(g + ["verify", "--flavor", "both", "--max-degree", "3"])
        out.append(g + ["trees", "--length", "3"])
    for fmt in (f for f in FORMATS if f != "csv"):
        g = ["--format", fmt]
        for op in parser_choices("operators", "op"):
            modes = [[]] if op == "Rm" else [["--mode", m] for m in MODES]
            out += [g + ["operators", "--op", op, "--degrees", "1,2,1",
                         *mode, *OPERATOR_EXTRAS[op]] for mode in modes]
        out += [g + ["witness", name] for name in cli.WITNESS_NAMES]
    for algebra in cli.ALGEBRA_NAMES:
        a, b = ALGEBRA_SERIES[algebra]
        # diff series need associative coefficients: level 3 and up is not
        level = cli.ALGEBRAS[algebra][1]
        flavors = SERIES_FLAVORS if level is None or level < 3 \
            else tuple(f for f in SERIES_FLAVORS if f != "diff")
        for flavor in flavors:
            series = ["--flavor", flavor, "--order", "3",
                      "--algebra", algebra, "--a", a]
            out += [["divide", *series, "--b", b, "--side", side,
                     "--mode", mode]
                    for side in SIDES for mode in MODES]
            sides = SIDES if flavor == "inv" else INVERSE_SIDES
            out += [["invert", *series, "--side", side] for side in sides]
        # the json form of each algebra's coefficients
        out.append(["--format", "json", "divide", *series, "--b", b,
                    "--side", "right"])
        out.append(["--format", "json", "invert", *series, "--side", "right"])
    return out


def test_schema_types_the_data_of_every_command():
    jsonschema = pytest.importorskip("jsonschema")
    with open(os.path.join(SRC, "schemas", "cli_output.schema.json")) as fh:
        schema = json.load(fh)
    # one branch types the data of each command the envelope names
    branches = [branch["if"]["properties"]["command"]
                for branch in schema["allOf"]]
    covered = [name for b in branches for name in b.get("enum", [])] + \
        [b["const"] for b in branches if "const" in b]
    assert sorted(covered) == \
        sorted(schema["properties"]["command"]["enum"])
    # the json output of every command and kind that _commands runs
    outputs = []
    for argv in _commands():
        if argv[:2] == ["--format", "json"]:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv
            outputs.append(json.loads(sink.getvalue()))
    assert {envelope["command"] for envelope in outputs} == set(covered)
    for envelope in outputs:
        jsonschema.validate(envelope, schema)
    # a mutated output is refused: an integer coefficient in coop, or an
    # envelope with a seed
    coop = next(envelope for envelope in outputs
                if envelope["command"] == "coop"
                and envelope["data"]["polynomial"]["terms"])
    bad = json.loads(json.dumps(coop))
    bad["data"]["polynomial"]["terms"][0]["coeff"] = 1
    seeded = dict(coop, seed=5)
    for mutated in (bad, seeded):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(mutated, schema)


# Public names and methods that no command enters, each with the reason
# it stays; a method of a class listed here is covered by its class.
UNREACHED = {
    "algebras.identity_check":
        "paper: the loop identities, checked on Cayley-Dickson elements",
    "combinatorics.lagrange_d_labeled":
        "paper: one d^e coefficient, oracle of the d^e row; the bench "
        "counts its calls",
    "freealg.project_pi":
        "paper: the projection onto the tensor Hopf algebra",
    "freealg.evaluate":
        "paper: a table under a coefficient assignment, for "
        "convolution_eval",
    "seriesloops.convolution_eval":
        "paper: the tables evaluated on series, the representability "
        "statement",
    "seriesloops.mul":
        "bench: bench/run.py multiplies each series result back with it",
    "combinatorics.d_cache_rows":
        "bench: bench/tracer.py counts the new lagrange_d memo rows",
    "freealg.fold":
        "bench: bench/tracer.py counts its calls; the tests' relabel oracle",
    "coloops.Coloop.coassociator":
        "paper: the coassociator K, the defect of coassociativity",
    "coloops.Coloop.coassociator_fold1":
        "paper: (id u mu) K, the right-coalternativity defect",
    "coloops.Coloop.coassociator_fold2":
        "paper: mu (id u mu) K, the power-associativity defect",
    "coloops.Coloop.projected_coproduct":
        "paper: pi of the coproduct, the non-commutative Faa di Bruno "
        "Hopf algebra",
    "witnesses.DoubledElement.unit":
        "carrier protocol: algebras.one_of reads unit() on every carrier",
    "seriesloops.TruncatedSeries.is_unit":
        "bench: bench/run.py checks each series result multiplied back",
}


def _entered_code() -> set:
    """The code objects entered while ``main`` runs every command."""
    for name in MODULES:
        importlib.import_module(f"loopseries.{name}")
    # cold memos, as in the fresh interpreter of each command
    sys.modules["loopseries.coloops"]._COLOOPS.clear()
    sys.modules["loopseries.combinatorics"]._D_CACHE.clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            codes = [main(argv) for argv in _commands()]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes)
    return entered


def _functions(cls) -> list[tuple[str, object]]:
    """``(name, function)`` for each function that ``cls``'s body
    defines, classmethods, staticmethods and property getters included."""
    out = []
    for name, raw in vars(cls).items():
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        elif isinstance(raw, property):
            raw = raw.fget
        if inspect.isfunction(raw):
            out.append((name, raw))
    return out


def _public_names() -> dict[str, list]:
    """Each public module-level function and class of the library, by
    ``module.name``, with the functions whose entry reaches it: itself, or
    the methods its class body defines; and each public method that a
    public class body defines, by ``module.Class.method``. Dunder methods
    are the data model and the carrier protocol, so they count for their
    class only. Exception types are raised, not entered, so they are left
    out."""
    names = {}
    for name in MODULES:
        mod = sys.modules[f"loopseries.{name}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(value):
                names[f"{name}.{attr}"] = [value]
            elif inspect.isclass(value) and \
                    not issubclass(value, BaseException):
                names[f"{name}.{attr}"] = [fn for _, fn in _functions(value)]
                names.update({f"{name}.{attr}.{method}": [fn]
                              for method, fn in _functions(value)
                              if not method.startswith("_")})
    return names


@pytest.fixture(scope="module")
def reached() -> dict[str, bool]:
    entered = _entered_code()
    return {name: any(fn.__code__ in entered for fn in fns)
            for name, fns in _public_names().items()}


def test_every_public_name_runs_or_has_a_reason(reached):
    unreached = sorted(name for name, hit in reached.items() if not hit)
    assert [name for name in unreached if name not in UNREACHED
            and name.rpartition(".")[0] not in UNREACHED] == []


def test_allowlist_names_exist_and_stay_unreached(reached):
    assert [name for name in UNREACHED if name not in reached] == []
    assert [name for name in UNREACHED if reached[name]] == []


# What bench/run.py imports and what bench/tracer.py reads or counts by
# name; a rename here zeroes a trace counter without an error.
BENCH_NAMES = [
    "cli.main", "cli.series_from_json", "seriesloops.mul",
    "seriesloops.TruncatedSeries.is_unit",
    "combinatorics.d_cache_rows", "combinatorics.lagrange_d",
    "combinatorics.lagrange_d_labeled", "combinatorics.m_sequences",
    "combinatorics.compositions",
    "coloops.Coloop.coproduct", "coloops.Coloop.codivision",
    "coloops.Coloop.antipode", "coloops.Coloop.axiom_check",
    "freealg.MultiMorphism.__call__", "freealg.fold", "freealg.evaluate",
    "seriesloops.divide", "seriesloops.diff_compose", "seriesloops.inv_mul",
    "seriesloops.series_inverse",
    "operators.triangle", "operators.right_op", "operators.right_op_e",
    "operators.left_op",
]
# The tracer counts a product under "<Class>.product" only when the class
# itself defines __mul__.
BENCH_PRODUCTS = [("freealg", "NCPolynomial"), ("algebras", "CDElement"),
                  ("algebras", "MatrixElement")]
# The table builds the tracer times as "coloops.build", one per image
# the tables cache.
BENCH_BUILDS = ["delta", "delta_r", "delta_l", "s_r", "s_l"]


@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_bench_reads_existing_names(dotted):
    module, *path = dotted.split(".")
    value = importlib.import_module(f"loopseries.{module}")
    for attr in path:
        value = getattr(value, attr)
    assert callable(value)
    # the tracer wraps public functions and methods only
    assert not path[-1].startswith("_") or path[-1] == "__call__"


def test_bench_counts_products_and_builds():
    for module, cls in BENCH_PRODUCTS:
        klass = getattr(importlib.import_module(f"loopseries.{module}"), cls)
        assert "__mul__" in vars(klass), cls
    from loopseries.coloops import Coloop
    for kind in BENCH_BUILDS:
        assert callable(vars(Coloop).get(f"_build_{kind}")), kind


def _unused_imports(path: str) -> list[str]:
    """Names a module imports and never reads, ``from __future__`` aside;
    a module's ``__all__`` counts as a read."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_no_unused_imports(module):
    assert _unused_imports(os.path.join(SRC, f"{module}.py")) == []


def test_package_root_imports_only_contextlib():
    # every command compiles and runs the package root, so a module that
    # it imports at module level is loaded by all of them; ``json`` is
    # imported inside ``_emit_json``, by the commands that print json
    with open(os.path.join(SRC, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = [alias.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert imported == ["contextlib"]
    emit = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_emit_json")
    assert [alias.name for node in ast.walk(emit)
            if isinstance(node, ast.Import)
            for alias in node.names] == ["json"]


def test_default_mode_is_only_the_first_of_modes():
    # a mode left out is MODES[0]: no module spells the default mode as a
    # string besides the package root's MODES
    found = []
    for module in ["__init__"] + MODULES:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        stated = {id(node) for statement in tree.body
                  if isinstance(statement, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "MODES"
                          for t in statement.targets)
                  for node in ast.walk(statement)}
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and node.value == MODES[0] and id(node) not in stated]
    assert found == []
