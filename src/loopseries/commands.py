"""Handlers of the commands other than ``divide`` and ``invert``.

``cli.main`` imports this module only for the commands it serves
(``coeffs``, ``coop``, ``operators``, ``verify``, ``witness``,
``trees``), so the series commands never compile it. Each handler takes
the parsed arguments, imports the library layers it runs and returns the
output text with the exit status. Each builds its rows once, for all
formats: ``coeffs`` lists the ``d`` table as the ``d^e`` table with one
empty label per composition, and ``verify`` computes its records and
exit status once. An ``operators --mode`` left out is ``MODES[0]``.
"""

from __future__ import annotations

from . import COLOOP_FLAVORS, MODES, StructuralError, _emit_json, _option


def _emit_csv(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _tuple_text(t: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def cmd_coeffs(args) -> tuple[str, int]:
    from .combinatorics import (
        all_compositions,
        bit_sequences,
        lagrange_d,
        lagrange_d_labeled_row,
    )

    n = args.n
    labeled = args.kind == "de"
    name = "d_e" if labeled else "d"
    header = ["n", "e", "composition", name] if labeled \
        else ["n", "composition", name]
    # each length's labels, as (csv fields, json fields): d^e has the bit
    # sequences E(l), d one empty label per composition
    labels: dict[int, list] = {}
    rows = []
    data = []
    for comp in all_compositions(n):
        ns = comp[:-1]
        ell = len(ns)
        if ell not in labels:
            labels[ell] = [([_tuple_text(e)], {"e": list(e)})
                           for e in bit_sequences(ell)] if labeled \
                else [([], {})]
        ns_text = _tuple_text(ns)
        values = lagrange_d_labeled_row(ns) if labeled else [lagrange_d(ns)]
        for (fields, record), value in zip(labels[ell], values):
            rows.append([n, *fields, ns_text, value])
            if args.format == "json":
                data.append({"n": n, **record, "composition": list(ns),
                             name: value})
    if args.format == "csv":
        return _emit_csv(header, rows), 0
    if args.format == "json":
        return _emit_json("coeffs", data), 0
    width = max(len(r[-2]) for r in rows)
    lines = [f"{r[-2]:<{width}} -> {r[-1]}" +
             (f"  e={r[1]}" if labeled else "") for r in rows]
    return "\n".join(lines) + "\n", 0


def cmd_coop(args) -> tuple[str, int]:
    from . import coloops

    poly = coloops.get_coloop(args.flavor).image(args.kind, args.n)
    if args.format == "json":
        return _emit_json("coop", {"flavor": args.flavor, "kind": args.kind,
                                   "n": args.n, "polynomial": poly.to_json()}), 0
    if args.format == "csv":
        rows = [[str(c), " ".join(f"{cp}:{i}" for cp, i in w)]
                for w, c in poly.sorted_terms()]
        return _emit_csv(["coeff", "word"], rows), 0
    return str(poly) + "\n", 0


def _parse_int_tuple(text: str, option: str) -> tuple[int, ...]:
    """Comma-separated ASCII digit strings, at least one; ``int`` alone
    would also read signs, spaces and digit-group underscores (``1_0`` as
    10)."""
    items = text.split(",")
    if not all(ch.isascii() and ch.isdigit() for ch in items):
        raise StructuralError(
            f"{option} needs comma-separated non-negative integers, "
            f"got {text!r}")
    return tuple(int(ch) for ch in items)


def cmd_operators(args) -> tuple[str, int]:
    from .freealg import NCPolynomial, _word_json
    from .operators import left_op, right_op, right_op_e, right_op_m

    if args.bits is not None and args.op != "Re":
        raise StructuralError(f"--bits applies to --op Re, not {args.op}")
    if args.m is not None and args.op != "Rm":
        raise StructuralError(f"--m applies to --op Rm, not {args.op}")
    if args.mode is not None and args.op == "Rm":
        raise StructuralError("--mode applies to --op L, R and Re, not Rm")
    mode = args.mode or MODES[0]
    degrees = _parse_int_tuple(args.degrees, "--degrees")
    with _option("--degrees"):
        factors = [NCPolynomial.generator(1, d) for d in degrees]
    # the letters are checked: a later refusal is of --m or --bits
    if args.op == "L":
        result = left_op(factors, mode)
    elif args.op == "R":
        result = right_op(factors, mode)
    elif args.op == "Rm":
        if args.m is None:
            raise StructuralError("Rm needs --m")
        m = _parse_int_tuple(args.m, "--m")
        with _option("--m"):
            result = right_op_m(m, factors)
    else:
        if args.bits is None:
            raise StructuralError("Re needs --bits")
        bits = _parse_int_tuple(args.bits, "--bits")
        with _option("--bits"):
            result = right_op_e(bits, factors, mode)
    if args.format == "json":
        terms = [{"coeff": str(c), "factors": list(map(_word_json, key))}
                 for key, c in result.sorted_terms()]
        return _emit_json("operators", {"op": args.op,
                                        "degrees": list(degrees),
                                        "terms": terms}), 0
    return str(result) + "\n", 0


def cmd_verify(args) -> tuple[str, int]:
    from . import coloops

    flavors = COLOOP_FLAVORS if args.flavor == "both" else (args.flavor,)
    records = []
    for flavor in flavors:
        table = coloops.get_coloop(flavor)
        for axiom in coloops.AXIOMS:
            first_expected = coloops.EXPECTED_FAILURES.get((flavor, axiom))
            for n in range(1, args.max_degree + 1):
                ok, disc = table.axiom_check(axiom, n)
                records.append({
                    "flavor": flavor,
                    "axiom": axiom,
                    "n": n,
                    "pass": ok,
                    "expected_failure":
                        first_expected is not None and n >= first_expected,
                    "discrepancy": None if disc is None else str(disc),
                })
    as_expected = all(r["pass"] != r["expected_failure"] for r in records)
    code = 0 if as_expected else 1
    if args.format == "json":
        return _emit_json("verify", {"records": records},
                          passed=as_expected), code
    if args.format == "csv":
        rows = [[r["flavor"], r["axiom"], r["n"], int(r["pass"]),
                 int(r["expected_failure"]), r["discrepancy"] or ""]
                for r in records]
        return _emit_csv(["flavor", "axiom", "n", "pass", "expected_failure",
                          "discrepancy"], rows), code
    lines = []
    for r in records:
        status = "ok" if r["pass"] else (
            "expected-failure" if r["expected_failure"] else "FAIL")
        line = f"{r['flavor']:>3} {r['axiom']:<20} n={r['n']} {status}"
        if r["discrepancy"]:
            line += f"  discrepancy: {r['discrepancy']}"
        lines.append(line)
    lines.append("verdict: " + ("all as expected" if as_expected
                                else "UNEXPECTED RESULTS"))
    return "\n".join(lines) + "\n", code


def cmd_witness(args) -> tuple[str, int]:
    from .witnesses import witness

    report = witness(args.name)
    code = 0 if report["pass"] else 1
    if args.format == "json":
        return _emit_json("witness", report, passed=report["pass"]), code
    lines = [f"witness {report['name']}: "
             + ("PASS" if report["pass"] else "FAIL")]
    for key in sorted(report["inputs"]):
        lines.append(f"  input {key} = {report['inputs'][key]}")
    for key in sorted(report["computed"]):
        lines.append(f"  {key} = {report['computed'][key]}")
    for check in report["checks"]:
        mark = "ok " if check["pass"] else "FAIL"
        lines.append(f"  [{mark}] {check['description']}")
    return "\n".join(lines) + "\n", code


def cmd_trees(args) -> tuple[str, int]:
    from .combinatorics import msequence_trees

    table = msequence_trees(args.length)
    if args.format == "json":
        data = [{"m": list(m), "tree": tree} for m, tree in table]
        return _emit_json("trees", data), 0
    rows = [[_tuple_text(m), tree] for m, tree in table]
    if args.format == "csv":
        return _emit_csv(["m", "tree"], rows), 0
    return "\n".join(f"{m} {t}" for m, t in rows) + "\n", 0
