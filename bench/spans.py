"""Layer timing for the benchmark, installed from outside the package.

`installed` rebinds names that dmrate's modules import from each other (and
that the benchmark calls) to wrappers that record a span per call: name,
start, end, parent span and point id.  Spans stay in memory and are written
out when the run ends; `layer_metrics` folds them into the per-layer
metrics.  Nothing inside the package changes, and every binding is restored
when the block ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module whose binding is replaced, attribute, span name).  A function is
# traced where its callers look it up, so e.g. moment_observables is traced
# inside simulate_statistics but not inside observable_set.
TARGETS = (
    ("dmrate.pipeline", "observable_set", "observables.build"),
    ("dmrate.pipeline", "build_postprocessing_maps", "maps.build"),
    ("dmrate.pipeline", "simulate_statistics", "channel.statistics"),
    ("dmrate.channel", "simulate_statistics", "channel.statistics"),
    ("dmrate.channel", "moment_observables", "observables.moments"),
    ("dmrate.pipeline", "build_constraints", "constraints.build"),
    ("dmrate.constraints", "build_constraints", "constraints.build"),
    ("dmrate.pipeline", "discretization_distribution", "channel.discretization"),
    ("dmrate.pipeline", "ec_cost", "channel.ec_cost"),
    ("dmrate.solver", "solve", "solver.solve"),
    ("dmrate.solver", "independent_rows", "sdp.independent_rows"),
    ("dmrate.solver", "solve_sdp", "sdp.solve_sdp"),
    ("dmrate.solver", "objective_with_gradient", "entropy.gradient"),
    ("dmrate.solver", "line_objective", "entropy.line_setup"),
)
# line_objective returns the callable the line search evaluates; each
# evaluation gets a span of this name.
RESULT_SPANS = {"entropy.line_setup": "entropy.line_eval"}

# Per-layer metrics: name -> (unit, better).  Which end-to-end metric each
# should move, on which workload, is in README.md.
LAYER_METRICS = {
    "sdp.subproblem_s": ("s", "lower"),
    "sdp.subproblem_calls": ("count", "lower"),
    "sdp.subproblem_iters": ("count", "lower"),
    "sdp.optimal_ratio": ("ratio", "higher"),
    "sdp.presolve_s": ("s", "lower"),
    "sdp.presolve_iters": ("count", "lower"),
    "sdp.independent_rows_s": ("s", "lower"),
    "solver.fw_iters": ("count", "lower"),
    "solver.early_exits": ("count", "higher"),
    "solver.self_s": ("s", "lower"),
    "entropy.line_search_s": ("s", "lower"),
    "entropy.line_evals": ("count", "lower"),
    "entropy.gradient_s": ("s", "lower"),
    "entropy.gradient_calls": ("count", "lower"),
    "observables.build_s": ("s", "lower"),
    "observables.build_calls": ("count", "lower"),
    "observables.moments_s": ("s", "lower"),
    "channel.statistics_s": ("s", "lower"),
    "maps.build_s": ("s", "lower"),
    "constraints.build_s": ("s", "lower"),
    "channel.discretization_s": ("s", "lower"),
    "channel.ec_cost_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "point", "attrs")

    def __init__(self, id, name, start, end, parent, point, attrs):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.point, self.attrs = parent, point, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Spans of one run.  Single-threaded: the open spans form one stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.point = None  # id stamped on new spans; the caller sets it per point
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), None, parent, self.point, {})
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s.attrs
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        """`fn` with a span around every call.  The result's iteration count
        and status, where it has them, are kept on the span; a returned line
        objective is wrapped so that each evaluation is a span too."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
            for key in ("iterations", "status"):
                if hasattr(out, key):
                    attrs[key] = getattr(out, key)
            if name in RESULT_SPANS:
                return self.wrap(out, RESULT_SPANS[name])
            return out

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind every target that exists for the duration of the block, then
    restore the originals.  Yields the targets that were not found (the
    package was refactored); they are reported on stderr and their metrics
    read 0."""
    saved, missing = [], []
    for module_name, attr, span_name in TARGETS:
        mod = importlib.import_module(module_name)
        original = getattr(mod, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(original, span_name))
    if missing:
        print(f"trace: not found, left untraced: {', '.join(missing)}", file=sys.stderr)
    try:
        yield missing
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children.get(s.id, ())):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of LAYER_METRICS from one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def count(name):
        return len(by_name.get(name, ()))

    # The first solve_sdp inside each solver.solve is the feasibility
    # pre-solve; every later one is a Frank-Wolfe subproblem.
    solves = {s.id for s in by_name.get("solver.solve", ())}
    presolve, subproblem, seen = [], [], set()
    for s in by_name.get("sdp.solve_sdp", ()):
        if s.parent in solves and s.parent not in seen:
            seen.add(s.parent)
            presolve.append(s)
        else:
            subproblem.append(s)

    own = self_times(spans)
    return {
        "sdp.subproblem_s": sum(s.duration for s in subproblem),
        "sdp.subproblem_calls": len(subproblem),
        "sdp.subproblem_iters": sum(s.attrs.get("iterations", 0) for s in subproblem),
        "sdp.optimal_ratio": (
            sum(s.attrs.get("status") == "optimal" for s in subproblem) / len(subproblem) if subproblem else 0.0
        ),
        "sdp.presolve_s": sum(s.duration for s in presolve),
        "sdp.presolve_iters": sum(s.attrs.get("iterations", 0) for s in presolve),
        "sdp.independent_rows_s": total("sdp.independent_rows"),
        "solver.fw_iters": sum(s.attrs.get("iterations", 0) for s in by_name.get("solver.solve", ())),
        "solver.early_exits": sum(s.attrs.get("status") == "rate_zero" for s in by_name.get("solver.solve", ())),
        "solver.self_s": sum(own[s.id] for s in by_name.get("solver.solve", ())),
        "entropy.line_search_s": total("entropy.line_setup", "entropy.line_eval"),
        "entropy.line_evals": count("entropy.line_eval"),
        "entropy.gradient_s": total("entropy.gradient"),
        "entropy.gradient_calls": count("entropy.gradient"),
        "observables.build_s": total("observables.build"),
        "observables.build_calls": count("observables.build"),
        "observables.moments_s": total("observables.moments"),
        "channel.statistics_s": total("channel.statistics"),
        "maps.build_s": total("maps.build"),
        "constraints.build_s": total("constraints.build"),
        "channel.discretization_s": total("channel.discretization"),
        "channel.ec_cost_s": total("channel.ec_cost"),
        "trace.overhead_s": overhead_s,
    }
