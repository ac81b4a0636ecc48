"""End-to-end benchmark of the ``loopseries`` CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload tables|series|verify --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --record-goldens

One closed-loop client runs the workload's ops one at a time, each op in a
fresh interpreter (``PYTHONPATH=src``, ``LOOPSERIES_CACHE_DIR`` removed, a
fixed ``PYTHONHASHSEED``), and repeats the whole op list while the next pass
is expected to end within half a pass of ``--seconds`` of measured op time.
Every op's output is checked. With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics; with ``--trace 1`` one untraced
and one traced pass are run and the per-layer metrics are reported instead.
Per-op times, the environment and the growth factors go to
``.bench_results/`` as diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer
import workloads
from workloads import DEFAULT_SEED, Op

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
ENTRY = "import sys; from loopseries.cli import main; sys.exit(main())"
SETUP_OP = Op("setup", ["trees", "--length", "1"], "minimal cold command")
SETUP_REPEATS = 9
HASH_SEED = "0"


@dataclass
class Result:
    op_id: str
    seconds: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    reason: str  # why the output check failed; '' when it passed


class Runner:
    """Runs CLI invocations in fresh interpreters from the checkout."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        env = dict(os.environ)
        env.pop("LOOPSERIES_CACHE_DIR", None)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def run(self, argv: list[str], trace_path: str | None = None
            ) -> tuple[float, float, float, int, bytes, str]:
        """Returns (seconds, CPU seconds, peak RSS in MB, exit code, stdout,
        stderr)."""
        if trace_path is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                   trace_path, *argv]
        err_path = os.path.join(self.work, "stderr")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        return (seconds, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, proc.returncode, out, stderr)


class Checker:
    """Checks one op's output; a verdict is cached per (op, stdout)."""

    def __init__(self, seed: int, goldens: dict[str, str]):
        self.seed = seed
        self.goldens = goldens
        self.memo: dict[tuple[str, str], str] = {}

    def check(self, op: Op, code: int, out: bytes) -> str:
        """Returns '' when the output is correct, else the reason."""
        if code != 0:
            return f"exit status {code}"
        digest = hashlib.sha256(out).hexdigest()
        key = (op.id, digest)
        if key not in self.memo:
            self.memo[key] = self._check(op, digest, out.decode())
        return self.memo[key]

    def _check(self, op: Op, digest: str, text: str) -> str:
        if op.series is None or self.seed == DEFAULT_SEED:
            golden = self.goldens.get(op.id)
            if golden is None:
                return "no golden digest recorded"
            if golden != digest:
                return "stdout differs from the golden digest"
        if op.series is not None:
            return _check_series(op.series, text)
        if op.id.startswith("verify-"):
            lines = text.splitlines()
            if not lines or lines[-1] != "verdict: all as expected":
                return "verify verdict is not 'all as expected'"
        if op.id.startswith("witness-"):
            lines = text.splitlines()
            if not lines or not lines[0].endswith(": PASS"):
                return "witness did not PASS"
        return ""


def _check_series(spec: dict, text: str) -> str:
    """Multiplies the result back with ``seriesloops.mul``."""
    from loopseries.cli import series_from_json
    from loopseries.seriesloops import mul

    def load(data):
        return series_from_json(data, spec["flavor"], spec["order"],
                                spec["algebra"])

    result = load(json.loads(text)["data"])
    a = load(spec["a"])
    side = spec["side"]
    if spec["command"] == "divide":
        b = load(spec["b"])
        ok = mul(result, b) == a if side == "right" else mul(a, result) == b
    else:
        ok = ((side == "left" or mul(result, a).is_unit())
              and (side == "right" or mul(a, result).is_unit()))
    return "" if ok else f"{spec['command']} result does not multiply back"


def run_pass(runner: Runner, checker: Checker, ops: list[Op],
             trace_dir: str | None = None) -> list[Result]:
    results = []
    for i, op in enumerate(ops):
        trace_path = None if trace_dir is None \
            else os.path.join(trace_dir, f"{i}.json")
        seconds, cpu, rss, code, out, stderr = runner.run(op.argv, trace_path)
        reason = checker.check(op, code, out)
        if reason:
            print(f"FAIL {op.id}: {reason}\n{stderr[-2000:]}", file=sys.stderr)
        results.append(Result(op.id, seconds, cpu, rss, len(out), reason))
    return results


def measure_setup(runner: Runner, checker: Checker) -> tuple[float, bool]:
    """Median wall time of the minimal cold command, after one warm-up
    run that also compiles the bytecode cache."""
    times, ok = [], True
    for i in range(SETUP_REPEATS + 1):
        seconds, _, _, code, out, stderr = runner.run(SETUP_OP.argv)
        reason = checker.check(SETUP_OP, code, out)
        if reason:
            ok = False
            print(f"FAIL setup: {reason}\n{stderr[-2000:]}", file=sys.stderr)
        if i:
            times.append(seconds)
    return statistics.median(times), ok


def end_to_end(passes: list[list[Result]], setup_s: float) -> dict:
    attempted = sum(len(p) for p in passes)
    failed = sum(bool(r.reason) for p in passes for r in p)
    return {
        "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
        "op_gmean_s": statistics.median(
            statistics.geometric_mean(r.seconds for r in p) for p in passes),
        "op_p50_s": statistics.median(
            statistics.median(r.seconds for r in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "ok_ratio": 1 - failed / attempted,
        "fail_ratio": failed / attempted,
    }


def per_layer(trace_dir: str, traced: list[Result],
              untraced: list[Result]) -> dict:
    total: dict[str, float] = {}
    for i in range(len(traced)):
        with open(os.path.join(trace_dir, f"{i}.json")) as fh:
            for key, value in tracer.layer_metrics(json.load(fh)).items():
                total[key] = total.get(key, 0) + value
    d_calls = total["combinatorics.lagrange_d.calls"]
    total["combinatorics.d_memo_hit_ratio"] = \
        (d_calls - total["combinatorics.d_memo_misses"]) / d_calls \
        if d_calls else 0.0
    table_calls = total["coloops.table_calls"]
    total["coloops.table_hits"] = table_calls - total["coloops.table_builds"]
    total["coloops.table_hit_ratio"] = \
        total["coloops.table_hits"] / table_calls if table_calls else 0.0
    total["cli.out_bytes"] = sum(r.out_bytes for r in traced)
    total["trace.wall_s"] = sum(r.seconds for r in traced)
    total["trace.untraced_wall_s"] = sum(r.seconds for r in untraced)
    total["trace.overhead_ratio"] = \
        total["trace.wall_s"] / total["trace.untraced_wall_s"]
    return total


def op_diagnostics(passes: list[list[Result]]) -> dict:
    per_op: dict[str, dict] = {}
    for p in passes:
        for r in p:
            d = per_op.setdefault(r.op_id, {"seconds": [], "cpu_s": [],
                                            "rss_mb": 0.0,
                                            "out_bytes": r.out_bytes,
                                            "failures": []})
            d["seconds"].append(r.seconds)
            d["cpu_s"].append(r.cpu_s)
            d["rss_mb"] = max(d["rss_mb"], r.rss_mb)
            if r.reason:
                d["failures"].append(r.reason)
    for d in per_op.values():
        d["median_s"] = statistics.median(d["seconds"])
    return per_op


def environment(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def record_goldens(runner: Runner) -> int:
    """Writes the stdout digest of every op at the default seed."""
    checker = Checker(DEFAULT_SEED, {})
    goldens = {}
    probes = [SETUP_OP]
    for name in workloads.WORKLOADS:
        probes += workloads.build(name, DEFAULT_SEED)
    for op in probes:
        _, _, _, code, out, stderr = runner.run(op.argv)
        goldens[op.id] = hashlib.sha256(out).hexdigest()
        checker.goldens[op.id] = goldens[op.id]
        reason = checker.check(op, code, out)
        if reason:
            print(f"FAIL {op.id}: {reason}\n{stderr}", file=sys.stderr)
            return 1
    with open(GOLDENS, "w") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopseries", "cli.py")):
        print("bench: run from the root of a loopseries checkout "
              "(src/loopseries/cli.py not found)", file=sys.stderr)
        return 2
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=root)
    try:
        runner = Runner(root, work)
        if args.record_goldens:
            return record_goldens(runner)
        with open(GOLDENS) as fh:
            checker = Checker(args.seed, json.load(fh))
        return run(args, spec, runner, checker, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec: dict, runner: Runner, checker: Checker, root: str,
        work: str) -> int:
    ops = workloads.build(args.workload, args.seed)
    setup_s, setup_ok = measure_setup(runner, checker)
    # A new pass starts while it is expected to end within half a pass of
    # --seconds of measured op time; output checks are not counted.
    passes: list[list[Result]] = []
    measured = 0.0
    while True:
        passes.append(run_pass(runner, checker, ops))
        wall = sum(r.seconds for r in passes[-1])
        measured += wall
        if args.trace or measured + wall / 2 > args.seconds:
            break
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "pass_wall_s": [sum(r.seconds for r in p) for p in passes],
        "environment": environment(root),
        "ops": op_diagnostics(passes),
        "growth": {},
    }
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.mkdir(trace_dir)
        traced = run_pass(runner, checker, ops, trace_dir)
        values = per_layer(trace_dir, traced, passes[0])
        diagnostics["traced_ops"] = op_diagnostics([traced])
        passes.append(traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(passes, setup_s)
        wanted = spec["end_to_end"]
    diagnostics["all_values"] = values
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(len(p) for p in passes)
    failed = sum(bool(r.reason) for p in passes for r in p)
    correct = failed == 0 and setup_ok
    per_op = diagnostics["ops"]
    for low, high in workloads.GROWTH_PAIRS:
        if low in per_op and high in per_op:
            diagnostics["growth"][f"{high}/{low}"] = \
                per_op[high]["median_s"] / per_op[low]["median_s"]
    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump({**result, "diagnostics": diagnostics}, fh, indent=1)
    print(f"diagnostics: {os.path.relpath(out_path, root)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
