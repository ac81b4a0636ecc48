"""Outside-in tracer for one ``loopseries`` CLI invocation.

Usage::

    python3 bench/tracer.py TRACE_OUT.json [loopseries arguments ...]

The tracer imports the library, replaces the public functions and methods
of every layer module with timing wrappers, runs ``loopseries.cli.main``
on the remaining arguments and, at exit, writes what it recorded to
``TRACE_OUT.json``. The library is not modified on disk; every change is
an attribute rebinding in this process.

Three kinds of wrapper:

* span: one record per call, ``(id, parent id, layer, name, start, end,
  self time)``. Used for module-level functions and for the methods of
  ``Coloop`` and ``MultiMorphism.__call__``.
* kernel: calls are not recorded one by one; count, total time and self
  time are summed per ``(enclosing span, name)``. Used for the methods of
  the value classes (polynomials, algebra elements, series), for
  ``MultiMorphism.image`` and for the per-item helpers in
  ``KERNEL_FUNCTIONS`` such as ``operators.triangle``. Self times of the
  enclosing spans stay correct and memory stays bounded.
* generator functions are only counted: their body runs while the
  consumer iterates, so its time is charged to the consumer's layer.

A call of a function from inside the same function (recursion) is folded
into the outer call: it is neither counted nor timed separately, so
``compositions.calls`` counts calls from outside, whatever the
implementation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "seriesloops", "coloops", "operators", "freealg",
          "combinatorics", "algebras")

# Methods of these classes get spans; methods of every other class
# (the value classes) are kernels.
SPAN_CLASSES = {"Coloop"}
SPAN_METHODS = {("MultiMorphism", "__call__")}
# Module functions called once per item of an inner loop are kernels too.
KERNEL_FUNCTIONS = {
    ("operators", "triangle"), ("operators", "element"),
    ("freealg", "word_degree"), ("freealg", "letter"),
    ("combinatorics", "compositions"), ("combinatorics", "is_m_sequence"),
    ("combinatorics", "bit_sign"), ("combinatorics", "tree_of_msequence"),
    ("combinatorics", "tree_to_parens"),
    ("algebras", "one_of"), ("algebras", "zero_of"), ("algebras", "conj_of"),
    ("algebras", "is_zero"),
}
DUNDERS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
           "__call__", "__eq__")
# Products whose second operand is of the same class are counted under
# "<Class>.product"; scalings stay under "<Class>.__mul__".
PRODUCT_CLASSES = {"NCPolynomial", "CDElement", "MatrixElement"}


class Recorder:
    """In-memory store of spans, kernel aggregates and counters."""

    def __init__(self) -> None:
        # frame: [function, span id, child time, layer]
        self.stack: list[list] = [[None, 0, 0.0, None]]
        self.next_id = 1
        self.spans: list[tuple] = []
        self.kernels: dict[tuple[int, str], list] = {}
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _error(self, layer: str, parent_layer) -> None:
        if layer != parent_layer:
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def span(self, fn, layer: str, name: str, on_result=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is fn:
                return fn(*args, **kwargs)
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [fn, span_id, 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._error(layer, parent[3])
                raise
            finally:
                end = perf_counter()
                stack.pop()
                parent[2] += end - start
                self.spans.append((span_id, parent[1], layer, name, start, end,
                                   end - start - frame[2]))
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def kernel(self, fn, layer: str, name: str, product_of=None):
        stack = self.stack
        kernels = self.kernels
        product_label = name.rsplit(".", 1)[0] + ".product"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is fn:
                return fn(*args, **kwargs)
            label = name
            if product_of is not None and len(args) == 2 \
                    and isinstance(args[1], product_of):
                label = product_label
            frame = [fn, parent[1], 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._error(layer, parent[3])
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[2] += elapsed
                slot = kernels.get((parent[1], label))
                if slot is None:
                    kernels[(parent[1], label)] = [layer, 1, elapsed,
                                                   elapsed - frame[2]]
                else:
                    slot[1] += 1
                    slot[2] += elapsed
                    slot[3] += elapsed - frame[2]

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, exit_code: int) -> None:
        data = {
            "exit_code": exit_code,
            "spans": self.spans,
            "kernels": [[sid, name, *slot]
                        for (sid, name), slot in self.kernels.items()],
            "counts": self.counts,
            "errors": self.errors,
            "extra": self.extra,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _morphism_terms(rec: Recorder, result) -> None:
    rec.add("freealg.morphism_terms_out", len(result.terms))


def _build_terms(rec: Recorder, result) -> None:
    rec.add("coloops.table_terms", len(result.terms))


def install(rec: Recorder) -> dict:
    """Wrap every layer and rebind each module attribute that refers to a
    wrapped function. Returns the imported layer modules by name."""
    modules = {name: importlib.import_module(f"loopseries.{name}")
               for name in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                qual = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(value):
                    wrapped = rec.counted(value, qual)
                elif (layer, attr) in KERNEL_FUNCTIONS:
                    wrapped = rec.kernel(value, layer, qual)
                else:
                    wrapped = rec.span(value, layer, qual)
                replaced[id(value)] = wrapped
            elif inspect.isclass(value) and value.__module__ == mod.__name__ \
                    and not issubclass(value, BaseException):
                _wrap_class(rec, layer, value)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("loopseries"):
            for attr, value in list(vars(mod).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
    return modules


def _wrap_class(rec: Recorder, layer: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        build = attr.startswith("_build_") and cls.__name__ in SPAN_CLASSES
        if not (build or attr in DUNDERS or not attr.startswith("_")):
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        if not inspect.isfunction(fn):
            continue
        qual = f"{layer}.{cls.__name__}.{attr}"
        if build:
            wrapped = rec.span(fn, layer, f"{layer}.build", _build_terms)
        elif cls.__name__ in SPAN_CLASSES or (cls.__name__, attr) in SPAN_METHODS:
            wrapped = rec.span(fn, layer, qual,
                               _morphism_terms if attr == "__call__" else None)
        else:
            product_of = cls if (attr == "__mul__"
                                 and cls.__name__ in PRODUCT_CLASSES) else None
            wrapped = rec.kernel(fn, layer, qual, product_of)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(cls, attr, wrapped)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    d_cache_rows = importlib.import_module(
        "loopseries.combinatorics").d_cache_rows
    rec = Recorder()
    modules = install(rec)
    rows_before = len(d_cache_rows())
    code = 1
    try:
        code = modules["cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.add("combinatorics.d_memo_new_rows",
                len(d_cache_rows()) - rows_before)
        rec.dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


def _calls(data: dict, name: str) -> int:
    return (sum(1 for s in data["spans"] if s[3] == name)
            + sum(k[3] for k in data["kernels"] if k[1] == name)
            + data["counts"].get(name, 0))


def _outer_seconds(data: dict, name: str) -> float:
    """Summed duration of the ``name`` spans not nested in another one."""
    by_id = {s[0]: s for s in data["spans"]}
    total = 0.0
    for s in data["spans"]:
        if s[3] != name:
            continue
        parent = by_id.get(s[1])
        while parent is not None and parent[3] != name:
            parent = by_id.get(parent[1])
        if parent is None:
            total += s[5] - s[4]
    return total


def layer_metrics(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see bench/README.md)."""
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in data["spans"]:
        m[f"{s[2]}.self_s"] += s[6]
    for k in data["kernels"]:
        m[f"{k[2]}.self_s"] += k[5]
    for layer in LAYERS:
        m[f"{layer}.errors"] = data["errors"].get(layer, 0)
    for name in ("lagrange_d", "lagrange_d_labeled", "m_sequences",
                 "compositions"):
        m[f"combinatorics.{name}.calls"] = _calls(data, f"combinatorics.{name}")
    m["combinatorics.d_memo_misses"] = data["extra"]["combinatorics.d_memo_new_rows"]
    m["algebras.cd_mul.calls"] = _calls(data, "algebras.CDElement.product")
    m["algebras.matrix_mul.calls"] = _calls(data, "algebras.MatrixElement.product")
    m["freealg.nc_mul.calls"] = _calls(data, "freealg.NCPolynomial.product")
    m["freealg.morphism_apply.calls"] = _calls(data, "freealg.MultiMorphism.__call__")
    m["freealg.fold.calls"] = _calls(data, "freealg.fold")
    m["freealg.evaluate.calls"] = _calls(data, "freealg.evaluate")
    m["freealg.morphism_terms_out"] = data["extra"].get("freealg.morphism_terms_out", 0)
    for name in ("triangle", "right_op", "right_op_e", "left_op"):
        m[f"operators.{name}.calls"] = _calls(data, f"operators.{name}")
    m["coloops.table_builds"] = _calls(data, "coloops.build")
    m["coloops.table_calls"] = sum(
        _calls(data, f"coloops.Coloop.{name}")
        for name in ("coproduct", "codivision", "antipode"))
    m["coloops.build_s"] = _outer_seconds(data, "coloops.build")
    m["coloops.table_terms"] = data["extra"].get("coloops.table_terms", 0)
    m["coloops.axiom_checks"] = _calls(data, "coloops.Coloop.axiom_check")
    m["coloops.axiom_s"] = _outer_seconds(data, "coloops.Coloop.axiom_check")
    m["seriesloops.divide.calls"] = _calls(data, "seriesloops.divide")
    m["seriesloops.compose.calls"] = (_calls(data, "seriesloops.diff_compose")
                                      + _calls(data, "seriesloops.inv_mul"))
    m["seriesloops.inverse.calls"] = _calls(data, "seriesloops.series_inverse")
    m["trace.spans"] = len(data["spans"])
    return m
