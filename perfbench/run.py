"""Benchmark for gencheb: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload poly-big --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md for the
workloads, the metrics and how each is measured.

This process imports nothing from gencheb.  Every pass runs in a fresh child
interpreter, one at a time, so module caches start cold as they do for a
user's CLI call, and the child's peak memory can be read when it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time

import speed

WORKLOADS = ("verify-all", "poly-big", "scalar-power", "cli-requests")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 9
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170.0
POLL_S = 0.1

# Typical raw duration of one pass, child start to exit, on the baseline
# machine.  A run makes ``seconds // NOMINAL_PASS_S`` passes (at least
# MIN_PASSES): the count depends on the arguments alone, never on how fast
# this run happens to go.
NOMINAL_PASS_S = {"verify-all": 12.5, "poly-big": 5.5, "scalar-power": 4.5, "cli-requests": 7.0}

VERIFY_SUITES = ("gcn", "euler", "cheb", "cheb_numeric", "mat", "u2", "hermite", "corrections")
SPAN_LAYERS = ("verify", "higher", "poly", "pauli", "gcn", "cheby", "cli", "euler")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics; a workload that does not reach a layer reports 0 there.
PER_LAYER = (
    *((f"verify.{suite}_s", "s") for suite in VERIFY_SUITES),
    ("verify.cases", "count"),
    ("higher.cubic_matrix_s", "s"),
    ("higher.cubic_reduction_s", "s"),
    ("higher.u2_series_s", "s"),
    ("higher.u2_recurrence_s", "s"),
    ("higher.u2_laplace_s", "s"),
    ("higher.hermite3_s", "s"),
    ("matrices.mat2_mul_calls", "count"),
    ("matrices.mat2_mul_s", "s"),
    ("matrices.mat3_mul_calls", "count"),
    ("matrices.mat3_mul_s", "s"),
    ("series.inverse_s", "s"),
    ("series.mul_calls", "count"),
    ("poly.mul_calls", "count"),
    ("poly.mul_s", "s"),
    ("poly.new_calls", "count"),
    ("poly.terms_max", "count"),
    ("poly.coeff_bits_max", "bits"),
    ("poly.parse_s", "s"),
    ("poly.render_s", "s"),
    ("scalars.gauss_new", "count"),
    ("scalars.fraction_new", "count"),
    ("scalars.self_share", "share"),
    ("pauli.chebyshev_s", "s"),
    ("pauli.general_s", "s"),
    ("pauli.squaring_s", "s"),
    ("pauli.coeff_bits_max", "bits"),
    ("gcn.recurrence_s", "s"),
    ("gcn.matrix_s", "s"),
    ("gcn.binet_s", "s"),
    ("cheby.u_s", "s"),
    ("cheby.t_s", "s"),
    ("cheby.ab_s", "s"),
    ("cli.build_parser_s", "s"),
    ("cli.main_s", "s"),
    ("cli.exit2", "count"),
    ("euler.series_s", "s"),
    ("euler.series_terms", "count"),
    ("euler.closed_s", "s"),
    ("euler.defect_probes", "count"),
    ("euler.defect_wrong", "count"),
    *((f"{layer}.self_s", "s") for layer in SPAN_LAYERS),
    ("trace.untraced_wall_s", "s"),
    ("trace.spans_wall_s", "s"),
    ("trace.profile_wall_s", "s"),
    ("trace.span_overhead_s", "s"),
    ("trace.span_cost_s", "s"),
    ("trace.profile_overhead_s", "s"),
)

# cProfile boundary names (see tracing.BOUNDARIES) under their metric names.
PROFILE_NAMES = {
    "scalars.gauss_new_calls": "scalars.gauss_new",
    "scalars.fraction_new_calls": "scalars.fraction_new",
}


class Child:
    """One child process, run to completion: exit code, output, time, peak RSS.

    With ``sample``, this process and the child share one CPU, and this
    process reads that CPU's speed right before the child starts and right
    after it ends (see speed.py); it takes no reading while the child runs.
    """

    def __init__(self, argv: list[str], root: str, sample: bool = False) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        env["PYTHONHASHSEED"] = "0"
        self.speed = speed.Sampler()
        cpus = os.sched_getaffinity(0)
        if sample:
            os.sched_setaffinity(0, {min(cpus)})  # the child inherits this
            self.speed.take()
        try:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
            )
            chunks = []
            deadline = started + CHILD_TIMEOUT_S
            self.timed_out = False
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    if time.perf_counter() > deadline:
                        proc.kill()
                        self.timed_out = True
                        break
                    if selector.select(POLL_S):
                        data = os.read(proc.stdout.fileno(), 1 << 16)
                        if not data:
                            break
                        chunks.append(data)
            # wait4 rather than wait: it also returns the child's resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - started
            if sample:
                self.speed.take()
        finally:
            os.sched_setaffinity(0, cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.code = proc.returncode
        self.output = b"".join(chunks).decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def last_json(self) -> dict | None:
        lines = self.output.strip().splitlines()
        if self.code != 0 or self.timed_out or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


class Bench:
    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def worker(self, mode: str) -> tuple[Child, dict | None]:
        child = Child(
            [
                sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            ],
            self.root,
            sample=mode == "setup",
        )
        return child, child.last_json()

    def tally(self, attempted: int, failed: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(failures)

    def crashed(self, what: str, child: Child) -> None:
        reason = "timed out" if child.timed_out else f"exited {child.code}"
        self.tally(1, 1, [f"{what} {reason}: {child.output.strip()[-500:]}"])

    def setup_once(self) -> float:
        """Time to start an interpreter, import gencheb and build the inputs."""
        child, result = self.worker("setup")
        if result is None:
            self.crashed("setup", child)
        return child.speed.scaled(child.wall_s)

    def worker_rep(self, mode: str = "time") -> dict | None:
        child, result = self.worker(mode)
        if result is None:
            self.crashed(f"{mode} pass", child)
            return None
        self.tally(result["attempted"], result["failed"], result["failures"])
        result["rss_mb"] = child.rss_mb
        return result

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[self.workload]))

    def timed(self, seconds: float) -> dict:
        """End-to-end metrics from a fixed number of passes over the same operations.

        Each operation's time, scaled to the reference speed (speed.py), is
        taken as its median across the passes; ``wall_s`` sums those times.
        """
        reps: list[dict] = []
        setups: list[float] = []
        count = self.passes(seconds)
        for _ in range(count):
            # Set-up launches are spread between the passes, so that their
            # median does not rest on a few seconds of one load level.
            setups.extend(self.setup_once() for _ in range(-(-SETUP_LAUNCHES // count)))
            result = self.worker_rep()
            if result is not None:
                reps.append(result)
        setup = statistics.median(setups)
        if not reps:
            return {}
        # A request is one operation: a CLI call in cli-requests, a library
        # call in poly-big and scalar-power, the whole command in verify-all.
        requests = sorted(typical(reps))
        print(f"{self.workload}: {len(reps)} passes of {len(requests)} operations, setup {setup:.3f} s")
        for r in reps:
            if r.get("probe"):
                probe = r["probe"]
                print(
                    f"known defect (ROADMAP item 4): {probe['euler.defect_wrong']} of "
                    f"{probe['euler.defect_probes']} large-|phi| Euler requests answered wrongly"
                )
        return {
            "wall_s": sum(requests) / 1000,
            "setup_s": setup,
            "req_p50_ms": statistics.median(requests),
            "req_p99_ms": percentile(requests, 0.99),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }

    def traced(self) -> dict:
        """Per-layer metrics from plain, spans and cProfile passes.

        Two plain passes and two spans passes alternate, each timed at the
        reference speed as in the timed run; the overhead of spans is the
        difference of their per-operation median times.  One cProfile pass
        follows, scaled by readings right before and after it.
        """
        order = ("time", "spans", "time", "spans", "profile")
        runs = [(mode, self.worker_rep(mode)) for mode in order]
        if any(result is None for _, result in runs):
            return {}
        plain = [r for mode, r in runs if mode == "time"]
        spans = [r for mode, r in runs if mode == "spans"]
        profile = runs[-1][1]
        for mode, result in runs[1:]:
            if result["counts"] != plain[0]["counts"]:
                problem = (
                    f"counts differ between passes of one seed: "
                    f"{plain[0]['counts']} vs {mode} {result['counts']}"
                )
                self.tally(0, 0, [problem])
        if spans[0]["inner_counts"] != spans[1]["inner_counts"]:
            problem = (
                f"inner counts differ between spans passes of one seed: "
                f"{spans[0]['inner_counts']} vs {spans[1]['inner_counts']}"
            )
            self.tally(0, 0, [problem])
        values: dict[str, float] = {}
        values.update((f"{name}_s", total) for name, total in spans[0]["span_totals"].items())
        values.update((f"{layer}.self_s", total) for layer, total in spans[0]["layer_self"].items())
        values.update((PROFILE_NAMES.get(name, name), v) for name, v in profile["profile"].items())
        values.update(spans[0]["inner_counts"])
        for name, count in plain[0]["counts"].items():
            values[name] = max(values.get(name, 0), count)
        values.update(plain[0].get("probe", {}))
        untraced_s = sum(typical(plain)) / 1000
        spans_s = sum(typical(spans)) / 1000
        values.update(
            {
                "trace.untraced_wall_s": untraced_s,
                "trace.spans_wall_s": spans_s,
                "trace.profile_wall_s": profile["scaled_wall_s"],
                "trace.span_overhead_s": spans_s - untraced_s,
                "trace.span_cost_s": statistics.median(r["span_cost_s"] for r in spans),
                "trace.profile_overhead_s": profile["scaled_wall_s"] - untraced_s,
            }
        )
        path = os.path.join(self.root, ".perfbench", f"spans-{self.workload}-{self.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(spans[0]["spans"], handle)
        where = os.path.relpath(path, self.root)
        print(f"{self.workload}: {len(spans[0]['spans'])} spans written to {where}")
        return values


def typical(reps: list[dict]) -> list[float]:
    """Each operation's median latency (ms) across passes of one workload.

    Not the fastest: for short operations the scaling errs both ways, so the
    minimum picks the low errors, and it falls as passes are added.
    """
    return [statistics.median(times) for times in zip(*(r["latencies_ms"] for r in reps))]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gencheb", "__init__.py")):
        print("error: run from the root of a gencheb checkout (no src/gencheb)", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    values = bench.traced() if args.trace else bench.timed(args.seconds)
    wanted = PER_LAYER if args.trace else END_TO_END
    for problem in bench.problems[:10]:
        print(f"FAILED: {problem}")
    if not values:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in wanted}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
