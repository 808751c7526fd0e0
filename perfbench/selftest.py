"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Shows that clean passes report no failures, that a corrupted result and a
raising operation are each counted as one failed operation without ending
the pass, that a bad ``verify all`` report is refused, and that two passes
with one seed give identical counts.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction as F

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gencheb import higher  # noqa: E402

SEED = 5
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def failed_reasons(ops) -> list[str]:
    results, _, _ = worker.run_ops(ops)
    expect(len(results) == len(ops), f"every one of {len(ops)} operations ran")
    return worker.check_ops(ops, results, worker.Counts())


def main() -> int:
    for workload in ("poly-big", "scalar-power", "cli-requests"):
        first = worker.run_pass(workload, SEED, "time", tiny=True)
        expect(first["failed"] == 0, f"{workload}: clean tiny pass has no failures {first['failures']}")
        again = worker.run_pass(workload, SEED, "profile", tiny=True)
        expect(first["counts"] == again["counts"], f"{workload}: two passes with one seed give equal counts")
        expect(bool(first["counts"]), f"{workload}: counts are reported {first['counts']}")
    spans = worker.run_pass("cli-requests", SEED, "spans", tiny=True)
    expect(spans["span_totals"].get("cli.main", 0) > 0, "spans pass times cli.main")
    expect(spans["span_totals"].get("cli.build_parser", 0) > 0, "wrapped cli.build_parser records spans")
    expect(spans["probe"]["euler.defect_probes"] == 4, "the Euler defect probe runs")
    expect(0 < spans["span_cost_s"] < spans["span_totals"]["cli.main"], "the tracing's own cost is timed")

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, worker.Counts().measure):
        u, v = higher.u2_gens()
        higher.cubic_power(u, v, 3, "matrix")
        higher.cubic_power(u, v, 3)
    totals, _ = tracer.totals()
    expect(set(totals) == {"higher.cubic_matrix", "higher.cubic_reduction"}, f"wrapped calls are named by method: {sorted(totals)}")
    expect(higher.cubic_power.__module__ == "gencheb.higher" and not hasattr(higher.cubic_power, "__wrapped__"), "wrappers are removed after the pass")

    ops = workloads.build("poly-big", SEED, tiny=True)
    original = ops[0].run
    ops[0].run = lambda: original() + 1
    reasons = failed_reasons(ops)
    expect(len(reasons) == 1 and reasons[0].startswith(ops[0].label), f"a corrupted product is one failure: {reasons}")

    ops = workloads.build("scalar-power", SEED, tiny=True)

    def boom():
        raise RuntimeError("injected")

    ops[1].run = boom
    reasons = failed_reasons(ops)
    expect(len(reasons) == 1 and "RuntimeError: injected" in reasons[0], f"a raising operation is one failure: {reasons}")

    ops = workloads.build("cli-requests", SEED, tiny=True)
    index = next(i for i, op in enumerate(ops) if op.check is workloads._refused)
    ops[index].run = lambda: workloads.Reply(0, "x = 1\n", "")
    reasons = failed_reasons(ops)
    expect(len(reasons) == 1, f"a wrong CLI reply is one failure: {reasons}")

    good = json.dumps({"schema": 1, "suite": "all", "cases": workloads.VERIFY_CASES, "failures": [], "millis": 1})
    bad = json.dumps({"schema": 1, "suite": "all", "cases": workloads.VERIFY_CASES, "failures": [{"case": "c"}], "millis": 1})
    short = json.dumps({"schema": 1, "suite": "all", "cases": 100, "failures": [], "millis": 1})
    expect(workloads.verify_problem(0, good) is None, "a clean verify report passes")
    expect(workloads.verify_problem(1, bad) is not None, "a verify report with failures is refused")
    expect(workloads.verify_problem(0, short) is not None, "a verify report with too few cases is refused")
    expect(workloads.verify_problem(1, "Traceback ...") is not None, "a crashed verify run is refused")
    counts = worker.Counts()
    counts.measure(workloads.Reply(0, good + "\n", ""))
    expect(counts.values == {"verify.cases": workloads.VERIFY_CASES}, f"a verify reply's cases are counted: {counts.values}")
    bench = run.Bench(ROOT, "poly-big", SEED)
    expect(bench.passes(25) == bench.passes(25.0) >= run.MIN_PASSES, "the pass count depends on --seconds alone")

    expect(oracle.eval_text("3/4*x^2 - 2*x*y + 1", ("x", "y"), (F(2), F(1, 2))) == F(2), "rendered text evaluates exactly")
    expect(oracle.parse_gaussian("-1/2-3/4i") == (F(-1, 2), F(-3, 4)), "Gaussian text parses")
    expect(oracle.parse_gaussian("-i") == (0, -1), "a bare imaginary unit parses")
    expect(run.percentile(list(range(1, 101)), 0.99) == 99, "nearest-rank p99 of 1..100 is 99")

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
