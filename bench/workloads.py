"""The benchmark's workloads: fixed op lists, each op with its reason.

An op is one ``loopseries`` CLI invocation, run in a fresh interpreter.
The seed picks the coefficients of the ``series`` inputs and the order in
which a workload's ops run; the program sees only the generated JSON.

Each exponential path runs at two consecutive sizes, so the per-op
diagnostics show its growth factor (see ``GROWTH_PAIRS``). Paths from the
ROADMAP baseline that are too slow for one op of a run are covered only at
smaller sizes; bench/README.md lists them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1


@dataclass
class Op:
    id: str
    argv: list[str]
    why: str
    # divide/invert only: command, flavor, side, order, algebra and the
    # generated series JSON a (and b), for the multiply-back check.
    series: dict | None = None


def _op(op_id: str, argv: str, why: str) -> Op:
    return Op(op_id, argv.split(), why)


TABLES = [
    _op("coop-fdb-delta_l-7", "coop --flavor fdb --kind delta_l --n 7",
        "fdb left codivision, cold: Lagrange sums and the operator "
        "cross-check; lower size of the delta_l growth pair"),
    _op("coop-fdb-delta_l-8", "coop --flavor fdb --kind delta_l --n 8",
        "upper size of the delta_l growth pair; the slowest table build"),
    _op("coop-fdb-delta_r-9", "coop --flavor fdb --kind delta_r --n 9",
        "fdb right codivision: lagrange_d with right_op/left_op checks"),
    _op("coop-fdb-s_r-9", "coop --flavor fdb --kind s_r --n 9",
        "fdb right antipode: a table built from another table (delta_r)"),
    _op("coop-fdb-delta-8", "coop --flavor fdb --kind delta --n 8",
        "fdb coproduct: compositions and triangle cross-check"),
    _op("coop-fdb-s_l-7", "coop --flavor fdb --kind s_l --n 7",
        "fdb left antipode: nested delta_l build"),
    _op("coop-inv-delta_l-10", "coop --flavor inv --kind delta_l --n 10",
        "inv codivision: compositions and NCPolynomial products only"),
    _op("coop-inv-delta_r-10", "coop --flavor inv --kind delta_r --n 10",
        "inv right codivision, mirror of delta_l"),
    _op("coeffs-de-8", "coeffs --kind de --n 8",
        "labeled Lagrange coefficients d^e: lower size of the growth pair"),
    _op("coeffs-de-9", "coeffs --kind de --n 9",
        "upper size of the d^e growth pair; large text output"),
    _op("coeffs-d-10", "coeffs --kind d --n 10",
        "unlabeled d through the memo table"),
    _op("operators-R-rec", "operators --op R --degrees 1,1,1,1,1,1,1,1",
        "right operator, recursive definition"),
    _op("operators-R-closed",
        "operators --op R --degrees 1,1,1,1,1,1,1,1 --mode closed",
        "right operator as a sum over M-sequences"),
    _op("operators-Re-rec",
        "operators --op Re --degrees 1,1,1,1,1,1,1,1 --bits 1,2,1,2,1,2,1,2",
        "labeled right operator, recursive"),
    _op("operators-Re-closed",
        "operators --op Re --degrees 1,1,1,1,1,1,1,1 --bits 1,2,1,2,1,2,1,2 "
        "--mode closed",
        "labeled right operator, closed form"),
    _op("operators-L-rec", "operators --op L --degrees 1,1,1,1,1,1,1,1",
        "left operator, recursive definition"),
    _op("operators-L-closed",
        "operators --op L --degrees 1,1,1,1,1,1,1,1 --mode closed",
        "left operator, one-step closed form"),
    _op("trees-9", "trees --length 9",
        "M-sequence/tree bijection: 4862 rows of text output"),
]

# (command, flavor, side, order, algebra, why). The diff ops use only
# associative carriers, so rejecting sed/m2sed for diff stays compatible.
_SERIES = [
    ("divide", "diff", "left", 7, "m2q",
     "diff left division over 2x2 matrices; the closed d^e formula runs too"),
    ("divide", "diff", "right", 7, "m2q",
     "diff right division over 2x2 matrices; closed d formula runs too"),
    ("divide", "diff", "left", 8, "m2q",
     "diff left division; lower size of the growth pair"),
    ("divide", "diff", "right", 8, "m2q",
     "diff right division at order 8 (ROADMAP baseline row)"),
    ("divide", "diff", "left", 9, "m2q",
     "diff left division; upper size of the growth pair"),
    ("divide", "diff", "right", 9, "m2q",
     "diff right division at order 9"),
    ("divide", "diff", "left", 8, "q",
     "diff law over rationals: combinatorics cost without matrix products"),
    ("divide", "diff", "right", 6, "h",
     "diff law over quaternions (associative, non-commutative)"),
    ("divide", "inv", "left", 8, "sed",
     "inv closed division over sedenions; lower size of the growth pair"),
    ("divide", "inv", "left", 9, "sed",
     "upper size of the inv/sed growth pair; Cayley-Dickson products"),
    ("divide", "inv", "right", 9, "o",
     "inv division over octonions (alternative carrier)"),
    ("divide", "inv", "right", 12, "m2q",
     "inv division over matrices at a high order: Fraction matrix products"),
    ("divide", "inv", "left", 6, "m2sed",
     "inv division over sedenion matrices: nested algebra products"),
    ("invert", "diff", "both", 8, "m2q",
     "diff inverse through the fdb antipode table and freealg.evaluate"),
    ("invert", "diff", "both", 8, "h",
     "diff inverse over quaternions, same antipode path"),
    ("invert", "inv", "left", 12, "sed",
     "inv left inverse over sedenions (differs from the right one)"),
    ("invert", "inv", "right", 12, "sed",
     "inv right inverse over sedenions"),
]

VERIFY = [
    _op("verify-both-7", "verify --flavor both --max-degree 7",
        "full axiom battery, both flavors: MultiMorphism, fold, axiom_check"),
    _op("verify-inv-10", "verify --flavor inv --max-degree 10",
        "inv battery; lower size of the growth pair"),
    _op("verify-inv-11", "verify --flavor inv --max-degree 11",
        "upper size of the inv verify growth pair"),
] + [
    _op(f"witness-{name}", f"witness {name}",
        f"counterexample witness {name}")
    for name in ("diff-power-assoc", "diff-right-alt",
                 "inv-left-right-inverse", "inv-right-alt",
                 "inv-power-assoc", "ucd-not-loop")
]

WORKLOADS = ("tables", "series", "verify")

# Consecutive sizes of one exponential path: (lower op id, upper op id).
GROWTH_PAIRS = [
    ("coop-fdb-delta_l-7", "coop-fdb-delta_l-8"),
    ("coeffs-de-8", "coeffs-de-9"),
    ("divide-inv-left-8-sed", "divide-inv-left-9-sed"),
    ("divide-diff-left-8-m2q", "divide-diff-left-9-m2q"),
    ("verify-inv-10", "verify-inv-11"),
]

_CD_LEVEL = {"h": 2, "o": 3, "sed": 4}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def _cd_literal(rng: random.Random, level: int) -> str:
    text = ""
    for i in range(2 ** level):
        c = _rational(rng)
        if c:
            body = str(abs(c)) if i == 0 else f"{abs(c)}*e{i}"
            text += ("-" if c < 0 else "+") + body
    return text.lstrip("+") or "0"


def _coefficient(rng: random.Random, algebra: str):
    if algebra == "q":
        return str(_rational(rng))
    if algebra in _CD_LEVEL:
        return _cd_literal(rng, _CD_LEVEL[algebra])
    if algebra == "m2q":
        return [str(_rational(rng)) for _ in range(4)]
    if algebra == "m2sed":
        return [_cd_literal(rng, 4) for _ in range(4)]
    raise ValueError(f"no generator for algebra {algebra!r}")


def _series_json(rng: random.Random, algebra: str, order: int) -> str:
    coeffs = [_coefficient(rng, algebra) for _ in range(order)]
    return json.dumps({"coeffs": coeffs}, separators=(",", ":"))


def _series_ops(rng: random.Random) -> list[Op]:
    ops = []
    for command, flavor, side, order, algebra, why in _SERIES:
        spec = {"command": command, "flavor": flavor, "side": side,
                "order": order, "algebra": algebra,
                "a": _series_json(rng, algebra, order)}
        argv = ["--format", "json", command, "--flavor", flavor,
                "--side", side, "--order", str(order),
                "--algebra", algebra, "--a", spec["a"]]
        if command == "divide":
            spec["b"] = _series_json(rng, algebra, order)
            argv += ["--b", spec["b"]]
        ops.append(Op(f"{command}-{flavor}-{side}-{order}-{algebra}", argv,
                      why, spec))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The ops of ``workload`` in the order picked by ``seed``."""
    rng = random.Random(seed)
    if workload == "tables":
        ops = list(TABLES)
    elif workload == "series":
        ops = _series_ops(rng)
    elif workload == "verify":
        ops = list(VERIFY)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
