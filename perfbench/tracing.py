"""Spans and profiler counts for the traced run.

Spans are recorded from the benchmark's own process: one around each
operation it issues, and -- for calls the program makes internally, such
as ``verify.suite_all`` calling ``suite_u2`` and that calling
``higher.cubic_power`` -- one around each call of a public function that
the traced run has wrapped for the duration of the pass. Nothing in the
program is edited. Spans stay in memory and are written out when the run
ends.

Counts and cumulative times at the inner boundaries
(``MultiPoly.__mul__``, ``Mat2.__mul__``, ``Fraction.__new__`` and the
like) come from one cProfile pass, since those functions run far too
often for a span each.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from fractions import Fraction

from gencheb import cheby, cli, euler, gcn, higher, pauli, verify
from gencheb.matrices import Mat2, Mat3
from gencheb.poly import MultiPoly
from gencheb.scalars import GaussianRational
from gencheb.series import TruncatedSeries


class Tracer:
    """Spans as (name, start_ns, end_ns, parent index) with a stack of open spans.

    ``cost_ns`` is the time spent in the tracing itself, outside the spans:
    opening and closing them and, in wrapped calls, naming them and counting
    the results.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.cost_ns = 0

    def begin(self, name: str) -> int:
        entered = time.perf_counter_ns()
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self._open.append(index)
        start = time.perf_counter_ns()
        self.spans.append([name, start, 0, parent])
        self.cost_ns += start - entered
        return index

    def end(self, index: int) -> None:
        stop = time.perf_counter_ns()
        self.spans[index][2] = stop
        self._open.pop()
        self.cost_ns += time.perf_counter_ns() - stop

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name, and self seconds per layer.

        A span's self time is its duration minus that of its direct
        children; spans nest strictly, since everything runs on one thread.
        A span inside another of the same name (``cubic_power`` calling
        ``cubic_power_sequence``) adds nothing to that name's total.
        """
        total: dict[str, float] = {}
        self_ns = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] = total.get(name, 0.0) + (end - start) / 1e9
        layer_self: dict[str, float] = {}
        for (name, *_), ns in zip(self.spans, self_ns):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + ns / 1e9
        return total, layer_self


def _method_label(prefix: str, position: int, labels: dict[str, str], default: str):
    """Span name from the ``method`` argument, passed at ``position`` or by name."""

    def label(args, kwargs):
        method = kwargs.get("method", args[position] if len(args) > position else default)
        return f"{prefix}.{labels.get(method, method)}"

    return label


# Public functions the program calls internally, with the span name of a
# call.  Wrapping the module attribute catches callers that look the name
# up at call time (``suite_u2(...)`` inside verify, ``higher.cubic_power(...)``
# from verify, ``parse_poly`` from cli's own namespace).
SUITES = ("gcn", "euler", "cheb", "cheb_numeric", "mat", "u2", "hermite", "corrections")
CUBIC_METHODS = {"matrix": "cubic_matrix", "reduction": "cubic_reduction"}
WRAPPED = (
    *((verify, f"suite_{name}", f"verify.{name}") for name in SUITES),
    (higher, "cubic_power", _method_label("higher", 3, CUBIC_METHODS, "reduction")),
    (higher, "cubic_power_sequence", "higher.cubic_reduction"),
    (higher, "u2_by_series", "higher.u2_series"),
    (higher, "u2_by_recurrence", "higher.u2_recurrence"),
    (higher, "u2_by_laplace", "higher.u2_laplace"),
    (higher, "hermite3", "higher.hermite3"),
    (cheby, "cheb_U", "cheby.u"),
    (cheby, "cheb_T", "cheby.t"),
    (cheby, "cheb_AB", "cheby.ab"),
    (pauli, "mat_power", _method_label("pauli", 2, {"general_recurrence": "general"}, "squaring")),
    (gcn, "power_coeffs", _method_label("gcn", 2, {}, "recurrence")),
    (euler, "euler_series", "euler.series"),
    (euler, "euler_closed_form", "euler.closed"),
    (cli, "build_parser", "cli.build_parser"),
    (cli, "parse_poly", "poly.parse"),
    (MultiPoly, "render", "poly.render"),
)


class instrumented:
    """Wraps every function in WRAPPED for the duration of a ``with`` block.

    Each call records a span; its result is handed to ``measure`` after the
    span ends, so that sizes of intermediate results can be counted.
    """

    def __init__(self, tracer: Tracer, measure) -> None:
        self.tracer = tracer
        self.measure = measure
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        tracer, measure = self.tracer, self.measure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter_ns()
            name = label if isinstance(label, str) else label(args, kwargs)
            tracer.cost_ns += time.perf_counter_ns() - entered
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            counted = time.perf_counter_ns()
            measure(result)
            tracer.cost_ns += time.perf_counter_ns() - counted
            return result

        return wrapper

    def __enter__(self) -> Tracer:
        for owner, name, label in WRAPPED:
            fn = owner.__dict__[name]
            self.saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, label))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self.saved):
            setattr(owner, name, fn)
        self.saved.clear()


# -- cProfile ------------------------------------------------------------------------------

# Inner boundaries: metric prefix -> function whose calls and cumulative
# time are read from the profile.
BOUNDARIES = {
    "poly.mul": MultiPoly.__mul__,
    "poly.new": MultiPoly.__init__,
    "matrices.mat2_mul": Mat2.__mul__,
    "matrices.mat3_mul": Mat3.__mul__,
    "series.inverse": TruncatedSeries.inverse,
    "series.mul": TruncatedSeries.__mul__,
    "scalars.gauss_new": GaussianRational.__post_init__,
    "scalars.fraction_new": Fraction.__new__,
}


def _key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_stats(profiler: cProfile.Profile) -> dict[str, float]:
    """Calls and cumulative seconds at each boundary, and the scalar layer's share.

    ``scalars.self_share`` is the share of all profiled self time spent in
    ``gencheb/scalars.py`` and ``fractions.py`` (``BigRational`` is
    ``fractions.Fraction``).
    """
    stats = pstats.Stats(profiler).stats
    out: dict[str, float] = {}
    for prefix, fn in BOUNDARIES.items():
        _, calls, _, cumulative, _ = stats.get(_key(fn), (0, 0, 0.0, 0.0, {}))
        out[f"{prefix}_calls"] = calls
        out[f"{prefix}_s"] = cumulative
    scalar_files = {_key(GaussianRational.__post_init__)[0], _key(Fraction.__new__)[0]}
    total = scalar = 0.0
    for (filename, _, _), (_, _, self_time, _, _) in stats.items():
        total += self_time
        if filename in scalar_files:
            scalar += self_time
    out["scalars.self_share"] = scalar / total if total else 0.0
    return out
