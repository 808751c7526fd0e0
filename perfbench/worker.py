"""One fresh interpreter running one pass of a workload; started by run.py.

    python3 perfbench/worker.py --workload poly-big --seed 7 --mode time

Modes:

* ``setup``   import gencheb and build the seeded inputs, then exit;
* ``time``    run every operation, timing each one at the reference speed
              (speed.py), then check the outputs;
* ``spans``   the same with a span around each operation and around the
              wrapped public functions of :mod:`tracing`;
* ``profile`` the same under cProfile, reporting the boundary counts; the
              pass is scaled by speed readings right before and after it.

The last line of standard output is one JSON object.  Module caches start
cold because every pass is a new process, as for a user's CLI call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gencheb import pauli  # noqa: E402

# Workloads whose operations reach the layers only through the program's own
# internal calls; their spans pass wraps the public functions in tracing.WRAPPED.
INSTRUMENTED = ("verify-all", "cli-requests")


class Raised:
    """An operation's exception, kept as its result so the run goes on."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


class Counts:
    """Exact sizes of results: they depend on the inputs and never on timing."""

    def __init__(self) -> None:
        self.values: dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def top(self, name: str, value: int) -> None:
        self.values[name] = max(self.values.get(name, 0), value)

    def measure(self, result) -> None:
        """Record term counts and coefficient bits of a result, recursively."""
        kind = type(result).__name__
        if kind == "MultiPoly":
            terms, bits = oracle.poly_size(result)
            self.top("poly.terms_max", terms)
            self.top("poly.coeff_bits_max", bits)
        elif kind == "Mat2" and type(result.m11).__name__ == "GaussianRational":
            self.top("pauli.coeff_bits_max", pauli.coeff_bits(result))
        elif kind == "EulerPair" and result.terms is not None:
            self.add("euler.series_terms", result.terms)
        elif kind == "VerificationReport":
            self.add("verify.cases", result.cases)
        elif kind == "Reply":
            if result.code == 2:
                self.add("cli.exit2", 1)
            report = workloads.verify_report(result.stdout)
            if report is not None:
                self.add("verify.cases", report["cases"])
        elif isinstance(result, (list, tuple)):
            for item in result:
                self.measure(item)
        elif kind in ("ChebPoly", "TwoVarCheb", "Hermite3"):
            self.measure(result.poly)
        elif kind == "ChebCoeffPair":
            self.measure((result.a, result.b))
        elif kind == "CubicPowerCoeffs":
            self.measure((result.alpha, result.beta, result.gamma))


def run_ops(ops, tracer=None, gauge=None) -> tuple[list, list[float], float]:
    """Call every operation in order; an exception becomes that op's result.

    Latencies are in milliseconds; with a gauge, each is scaled to the
    reference speed by readings around and during it (see speed.py).
    """
    results, latencies = [], []
    started = time.perf_counter()
    with gauge or contextlib.nullcontext():
        for op in ops:
            mark = gauge.start() if gauge else None
            span = tracer.begin(op.label) if tracer else None
            t0 = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # counted as failed, never fatal
                result = Raised(exc)
            ms = gauge.scaled(mark) if gauge else (time.perf_counter_ns() - t0) / 1e6
            if tracer:
                tracer.end(span)
            latencies.append(ms)
            results.append(result)
    return results, latencies, time.perf_counter() - started


def check_ops(ops, results, counts: Counts) -> list[str]:
    """Failure reasons, one per operation whose output is wrong or missing."""
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, Raised):
            failures.append(f"{op.label}: raised {result.text}")
            continue
        try:
            reason = op.check(result)
        except Exception as exc:  # an unreadable output is a wrong output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
        counts.measure(result)
    return failures


def defect_probe(seed: int, tiny: bool) -> dict[str, int]:
    """Wrong answers among the ROADMAP item 4 Euler requests (not timed)."""
    ops = workloads.euler_defect_ops(seed, tiny)
    results, *_ = run_ops(ops)
    wrong = check_ops(ops, results, Counts())
    return {"euler.defect_probes": len(ops), "euler.defect_wrong": len(wrong)}


def run_pass(workload: str, seed: int, mode: str, tiny: bool = False) -> dict:
    ops = workloads.build(workload, seed, tiny)
    if mode == "setup":
        return {"ops": len(ops)}
    counts = Counts()
    out: dict = {}
    if mode in ("spans", "profile"):
        import cProfile  # not at the top: set-up launches should not pay for these

        import tracing
    if mode == "spans":
        tracer = tracing.Tracer()
        inner = Counts()
        wrapped = tracing.instrumented(tracer, inner.measure)
        with wrapped if workload in INSTRUMENTED else contextlib.nullcontext():
            results, latencies, wall = run_ops(ops, tracer, speed.Gauge())
        out["span_totals"], out["layer_self"] = tracer.totals()
        out["spans"] = tracer.spans
        out["inner_counts"] = inner.values
        out["span_cost_s"] = tracer.cost_ns / 1e9
    elif mode == "profile":
        # The readings stay outside the profiler, so that their Fractions
        # are not counted.
        sampler = speed.Sampler()
        sampler.take()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            results, latencies, wall = run_ops(ops)
        finally:
            profiler.disable()
        sampler.take()
        out["profile"] = tracing.profile_stats(profiler)
        out["scaled_wall_s"] = sampler.scaled(wall)
    else:
        results, latencies, wall = run_ops(ops, gauge=speed.Gauge())
    failures = check_ops(ops, results, counts)
    out.update(
        wall_s=wall,
        latencies_ms=latencies,
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:5],
        counts=counts.values,
    )
    if workload == "cli-requests":
        out["probe"] = defect_probe(seed, tiny)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    modes = ("setup", "time", "spans", "profile")
    parser.add_argument("--mode", choices=modes, required=True)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
