"""In-memory spans around oqctrl's layer boundaries, recorded from outside.

The tracer replaces each target function with a wrapper in every loaded
``oqctrl`` module that binds it (the modules import names into their own
namespaces, so patching only the defining module would miss those calls).
scipy's ``expm`` is wrapped once per calling module, so its spans say which
layer asked for the exponentials.  Spans are kept in memory as
``[name, start, end, parent]`` rows and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) pairs wrapped in a traced run.  A missing attribute is
# skipped and the metrics derived from it read 0 (reported as absent).
TARGETS = [
    ("core", "validate_density"),
    ("lindblad", "build_liouvillian"),
    ("lindblad", "propagate_segment"),
    ("ingrape", "optimize_run"),
    ("ingrape", "objective_value"),
    ("ingrape", "grape_gradient"),
    ("ingrape", "choi_of_unitary"),
    ("stiefel", "maximize"),
    ("stiefel", "objective"),
    ("stiefel", "gradient"),
    ("stiefel", "retract"),
    ("stiefel", "project_tangent"),
    ("kraussearch", "bounded_reachability"),
    ("kraussearch", "apply_channel_exact"),
    ("kraussearch", "canonical_state_key"),
    ("reachable", "sample_reachable"),
    ("reachable", "coverage_map"),
    ("reachable", "unreachable_report"),
    ("serialization", "write_csv"),
    ("serialization", "write_json"),
]

EXPM_CALLERS = ["lindblad", "ingrape", "reachable"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus named counters; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.absent: list[str] = []
        self.lost: set[str] = set()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, namer=None, after=None):
        def wrapped(*args, **kwargs):
            result = self.call(namer(args, kwargs) if namer else name, fn, *args, **kwargs)
            if after is not None:
                try:
                    after(self.counters, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    # a changed signature or result type loses the counter,
                    # never the traced run
                    self.lost.add(name)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _rebind(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("oqctrl"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        import scipy.linalg

        import oqctrl.cli  # noqa: F401  (load every module that binds names)

        for mod_name, attr in TARGETS:
            mod = sys.modules.get(f"oqctrl.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            namer, after = _HOOKS.get((mod_name, attr), (None, None))
            self._rebind(fn, self._wrapper(fn, f"{mod_name}.{attr}", namer, after))

        for mod_name in EXPM_CALLERS:
            mod = sys.modules.get(f"oqctrl.{mod_name}")
            if mod is None or getattr(mod, "expm", None) is not scipy.linalg.expm:
                self.absent.append(f"expm.{mod_name}")
                continue
            name = f"expm.{mod_name}"
            wrapped = self._wrapper(scipy.linalg.expm, name, after=_count_matrices(name))
            self._restore.append((mod, "expm", mod.expm))
            mod.expm = wrapped

        kraussearch = sys.modules.get("oqctrl.kraussearch")
        cls = getattr(kraussearch, "RationalComplexMatrix", None)
        if cls is None or "__matmul__" not in vars(cls):
            self.absent.append("kraussearch.matmul")
        else:
            self._restore.append((cls, "__matmul__", cls.__matmul__))
            cls.__matmul__ = self._wrapper(cls.__matmul__, "kraussearch.matmul")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counters": dict(self.counters)}))


def _count_matrices(name):
    def after(counters, args, kwargs, result):
        shape = np.shape(args[0] if args else kwargs["A"])
        counters[f"{name}.matrices"] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1

    return after


def _search_mode(args, kwargs):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "exact")
    return f"kraussearch.bounded_reachability.{mode}"


def _after_search(counters, args, kwargs, result):
    counters[f"kraussearch.states_explored.{_search_mode(args, kwargs).rsplit('.', 1)[1]}"] += (
        result.states_explored
    )


def _after_pulse_run(counters, args, kwargs, result):
    counters["ingrape.iterations"] += result.iterations
    counters["ingrape.accepted_steps"] += len(result.objective_history) - 1


def _after_maximize(counters, args, kwargs, result):
    counters["stiefel.iterations"] += result.iterations


def _after_sample(counters, args, kwargs, result):
    counters["reachable.points"] += len(result)


def _after_write(counters, args, kwargs, result):
    counters["serialization.bytes"] += Path(args[0]).stat().st_size


_HOOKS = {
    ("kraussearch", "bounded_reachability"): (_search_mode, _after_search),
    ("ingrape", "optimize_run"): (None, _after_pulse_run),
    ("stiefel", "maximize"): (None, _after_maximize),
    ("reachable", "sample_reachable"): (None, _after_sample),
    ("serialization", "write_csv"): (None, _after_write),
    ("serialization", "write_json"): (None, _after_write),
}

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.simulate.s": "s",
    "cli.ingrape.s": "s",
    "cli.reachable.s": "s",
    "cli.kraus-search.s": "s",
    "cli.stiefel-max.s": "s",
    "lindblad.build_liouvillian.calls": "count",
    "lindblad.build_liouvillian.self_s": "s",
    "lindblad.propagate_segment.calls": "count",
    "lindblad.propagate_segment.self_s": "s",
    "core.validate_density.calls": "count",
    "core.validate_density.self_s": "s",
    "expm.ingrape.calls": "count",
    "expm.ingrape.matrices": "count",
    "expm.ingrape.s": "s",
    "expm.lindblad.calls": "count",
    "expm.lindblad.matrices": "count",
    "expm.lindblad.s": "s",
    "expm.reachable.calls": "count",
    "expm.reachable.matrices": "count",
    "expm.reachable.s": "s",
    "ingrape.optimize_run.calls": "count",
    "ingrape.optimize_run.s": "s",
    "ingrape.objective_value.calls": "count",
    "ingrape.objective_value.self_s": "s",
    "ingrape.grape_gradient.calls": "count",
    "ingrape.grape_gradient.self_s": "s",
    "ingrape.iterations": "count",
    "ingrape.line_search_accept_ratio": "ratio",
    "ingrape.choi_of_unitary.calls": "count",
    "ingrape.choi_of_unitary.s": "s",
    "stiefel.maximize.calls": "count",
    "stiefel.maximize.s": "s",
    "stiefel.iterations": "count",
    "stiefel.objective.calls": "count",
    "stiefel.objective.self_s": "s",
    "stiefel.gradient.calls": "count",
    "stiefel.gradient.self_s": "s",
    "stiefel.retract.calls": "count",
    "stiefel.retract.self_s": "s",
    "stiefel.project_tangent.calls": "count",
    "stiefel.project_tangent.self_s": "s",
    "kraussearch.bounded_reachability.exact.s": "s",
    "kraussearch.bounded_reachability.float.s": "s",
    "kraussearch.states_explored.exact": "count",
    "kraussearch.states_explored.float": "count",
    "kraussearch.apply_channel_exact.calls": "count",
    "kraussearch.apply_channel_exact.self_s": "s",
    "kraussearch.matmul.calls": "count",
    "kraussearch.matmuls_per_apply": "ratio",
    "kraussearch.canonical_state_key.calls": "count",
    "kraussearch.canonical_state_key.self_s": "s",
    "reachable.sample_reachable.s": "s",
    "reachable.sample_reachable.self_s": "s",
    "reachable.points": "count",
    "reachable.coverage_map.calls": "count",
    "reachable.coverage_map.s": "s",
    "reachable.unreachable_report.s": "s",
    "serialization.write_csv.s": "s",
    "serialization.write_json.s": "s",
    "serialization.bytes": "B",
    "trace.overhead_s": "s",
}


def span_cost(calls: int = 20_000, bursts: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    median over a few bursts."""

    def noop():
        return None

    wrapped = Tracer()._wrapper(noop, "noop")

    def burst(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    return statistics.median(burst(wrapped) - burst(noop) for _ in range(bursts)) / calls


def layer_metrics(tracer: Tracer, rounds: int, per_span_s: float) -> dict[str, float]:
    """Per-round values of every LAYER_METRICS entry from one traced run;
    the tracing overhead is the spans per round times ``per_span_s``."""
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += own
    totals.update(tracer.counters)

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    out = {}
    for name in LAYER_METRICS:
        if name == "ingrape.line_search_accept_ratio":
            out[name] = ratio("ingrape.accepted_steps", "ingrape.objective_value.calls")
        elif name == "kraussearch.matmuls_per_apply":
            out[name] = ratio("kraussearch.matmul.calls", "kraussearch.apply_channel_exact.calls")
        elif name == "trace.overhead_s":
            out[name] = len(tracer.spans) / rounds * per_span_s
        else:
            out[name] = totals[name] / rounds
    return out
