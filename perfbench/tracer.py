"""Run-time span tracing of ``repro``'s public layer boundaries.

The benchmark records spans from its own files: :func:`install` wraps
the public functions and methods that bound each layer of
``src/repro`` — the gradient-projection loop, its line search, active
set, objective, routing operator and KKT certificate, presolve,
problem construction, warm-start chains, the streaming tracker and
controller, the manifest fingerprint and the daemon's protocol,
session and cache.  Each call becomes one span (name, start, end,
parent, op id) kept in memory; :meth:`Recorder.dump` writes them out
when the run ends.  Counts that ride on return values (GP iterations,
line-search trials, presolve reductions, cache hits, protocol bytes)
are recorded at the same boundaries.

A function imported by name into other modules is replaced in every
loaded ``repro`` module that holds it, so the wrapper sees the calls
made through each alias.  Nothing here changes a return value.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from array import array
from collections import defaultdict
from importlib import import_module
from time import perf_counter_ns

import numpy as np

#: Span names whose self time makes up each reported layer.
LAYER_SPANS = {
    "gp": ("gp.solve",),
    "line_search": ("line_search",),
    "active_set.max_step": ("active_set.max_step",),
    "active_set.project": ("active_set.project",),
    "active_set.multipliers": ("active_set.multipliers",),
    "objective.gradient": ("objective.gradient",),
    "objective.along_ray": ("objective.along_ray",),
    "routing": ("routing.matvec", "routing.rmatvec"),
    "kkt": ("kkt",),
    "presolve": ("presolve",),
    "presolve.lift": ("presolve.lift",),
    "problem.build": ("problem.build",),
    "warm_chain": ("warm_chain.solve",),
    "tracker.observe": ("tracker.observe",),
    "stream.step": ("stream.step",),
    "fingerprint": ("fingerprint",),
    "protocol.decode": ("protocol.decode",),
    "protocol.encode": ("protocol.encode",),
    "session.prepare": ("session.prepare",),
    "session.execute": ("session.execute",),
    "cache.get": ("cache.get",),
    "cache.put": ("cache.put",),
}

#: Every per-layer metric: unit, which direction is better, and the
#: end-to-end metric it should move on which workload.  Counts and times
#: are per op (a solve, an interval or a request), so runs of different
#: length compare directly; a layer a workload does not exercise reads 0.
_B = "latency_p50_ms on backbone-cold"
_S = "ops_per_s on backbone-cold"
_BS = "latency and ops_per_s on backbone-cold"
_R50 = "latency_p50_ms on serve-mix"
_RT = "latency_tail_ms on serve-mix"
PER_LAYER = {
    "gp.solves": ("count/op", "lower", f"{_B}; {_S}"),
    "gp.iterations": ("count/op", "lower", f"{_B}; {_S}"),
    "gp.us_per_iteration": ("us", "lower", f"{_B}; {_S}"),
    "gp.converged_frac": ("frac", "higher",
                          "failed_frac on backbone-cold"),
    "line_search.calls": ("count/op", "lower", _B),
    "line_search.trials": ("count/op", "lower", _B),
    "line_search.self_ms": ("ms/op", "lower", _B),
    "active_set.max_step.self_ms": ("ms/op", "lower", _BS),
    "active_set.project.self_ms": ("ms/op", "lower", _BS),
    "active_set.multipliers.calls": ("count/op", "lower", _BS),
    "objective.gradient.self_ms": ("ms/op", "lower", _S),
    "objective.along_ray.self_ms": ("ms/op", "lower", _S),
    "routing.matvec.calls": ("count/op", "lower", _S),
    "routing.rmatvec.calls": ("count/op", "lower", _S),
    "routing.self_ms": ("ms/op", "lower", _S),
    "routing.bytes_computed": ("B/op", "lower", _S),
    "kkt.calls": ("count/op", "lower", "latency on backbone-cold"),
    "kkt.self_ms": ("ms/op", "lower", "latency on backbone-cold"),
    "presolve.calls": ("count/op", "lower", f"{_S}; {_R50}"),
    "presolve.self_ms": ("ms/op", "lower", f"{_S}; {_R50}"),
    "presolve.lift.self_ms": ("ms/op", "lower", f"{_S}; {_R50}"),
    "presolve.links_removed_frac": ("frac", "higher", f"{_S}; {_R50}"),
    "problem.build.self_ms": ("ms/op", "lower",
                              "latency_p50_ms on stream-diurnal"),
    "warm_chain.solves": ("count/op", "lower",
                          "latency on stream-diurnal and serve-mix"),
    "warm_chain.warm_frac": ("frac", "higher",
                             "latency on stream-diurnal and serve-mix"),
    "warm_chain.self_ms": ("ms/op", "lower",
                           "latency on stream-diurnal and serve-mix"),
    "tracker.observe.self_ms": ("ms/op", "lower",
                                "latency_p50_ms on stream-diurnal"),
    "stream.cold_resolve_frac": ("frac", "lower",
                                 "latency_tail_ms on stream-diurnal"),
    "stream.step.self_ms": ("ms/op", "lower",
                            "latency_tail_ms on stream-diurnal"),
    "fingerprint.calls": ("count/op", "lower", _R50),
    "fingerprint.self_ms": ("ms/op", "lower", _R50),
    "protocol.decode.self_ms": ("ms/op", "lower", _R50),
    "protocol.encode.self_ms": ("ms/op", "lower", _R50),
    "protocol.bytes": ("B/op", "lower", _R50),
    "session.prepare.self_ms": ("ms/op", "lower", "latency on serve-mix"),
    "session.execute.self_ms": ("ms/op", "lower", "latency on serve-mix"),
    "cache.hit_frac": ("frac", "higher", _R50),
    "cache.get.self_ms": ("ms/op", "lower", _R50),
    "cache.put.self_ms": ("ms/op", "lower", _R50),
    "cache.evictions": ("count/op", "lower", _R50),
    "admission.wait_ms": ("ms/op", "lower",
                          f"{_RT} and serve_max_rps on serve-mix"),
    "admission.shed": ("count/op", "lower",
                       f"{_RT} and serve_max_rps on serve-mix"),
    "serve.coalesced": ("count/op", "higher",
                        f"{_RT} and serve_max_rps on serve-mix"),
    "serve.batch_fanouts": ("count/op", "higher",
                            f"{_RT} and serve_max_rps on serve-mix"),
    "trace.unexplained_frac": ("frac", "lower",
                               "none: the share of op time no span explains"),
    "trace.overhead_frac": ("frac", "lower",
                            "none: traced over untraced op time, minus 1"),
}
PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}


class Recorder:
    """In-memory span store; one parent stack per thread.

    Spans are packed six integers each — id, name index, start ns,
    end ns, parent id (-1 for a root) and op id — into one flat
    ``array('q')``.  One ``extend`` per span is a single call under the
    interpreter lock, so threads never interleave a record, and a
    million spans take 48 MB rather than the gigabyte tuples would.
    """

    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        """Forget every span and count recorded so far (in place)."""
        with self._lock:
            del self.spans[:]
            self.counts.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call (and counts from its result)."""
        extend = self.spans.extend
        ids = self._ids
        index = self._name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = -1, span_id
            stack.append((span_id, op))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                extend((span_id, index, start, end, parent, op))
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span named ``op``."""
        return self.wrap("op", fn)(*args, **kwargs)

    def table(self) -> "SpanTable":
        return SpanTable(np.frombuffer(self.spans, dtype=np.int64)
                         .reshape(-1, 6).copy(), list(self.names))

    def dump(self, path) -> None:
        """Write spans and counts (``.npz``): columns plus the name table."""
        table = self.table()
        np.savez_compressed(
            path, spans=table.rows, names=np.array(table.names),
            counts=json.dumps(dict(self.counts)),
        )


# ----------------------------------------------------------------------
# result hooks: counts recorded where the work happens
# ----------------------------------------------------------------------

def _gp_counts(rec, _args, solution) -> None:
    diagnostics = solution.diagnostics
    rec.count("gp.solves")
    rec.count("gp.iterations", diagnostics.iterations)
    rec.count("gp.converged", bool(diagnostics.converged))


def _line_search_counts(rec, _args, result) -> None:
    rec.count("line_search.calls")
    rec.count("line_search.trials", result.newton_iterations)


def _routing_bytes(op) -> float:
    """Bytes one product touches, computed from the operator's nnz."""
    rows, cols = op.shape
    if op.backend == "sparse":
        # CSR values (8 B) and column indices (4 B), row pointers, x, y.
        return 12.0 * op.nnz + 4.0 * (rows + 1) + 8.0 * (rows + cols)
    return 8.0 * rows * cols + 8.0 * (rows + cols)


def _matvec_counts(kind):
    def hook(rec, args, _result) -> None:
        rec.count(f"routing.{kind}.calls")
        rec.count("routing.bytes_computed", _routing_bytes(args[0]))
    return hook


def _presolve_counts(rec, _args, reduced) -> None:
    stats = reduced.stats
    rec.count("presolve.calls")
    rec.count("presolve.links_original", stats.original_links)
    rec.count("presolve.links_removed",
              stats.original_links - stats.reduced_links)


def _chain_counts(rec, args, _solution) -> None:
    rec.count("warm_chain.solves")
    rec.count("warm_chain.warm", bool(args[0].last_solve_warm))


def _step_counts(rec, _args, result) -> None:
    rec.count("stream.steps")
    rec.count("stream.cold", bool(result.cold))


def _counter(name):
    def hook(rec, _args, _result) -> None:
        rec.count(name)
    return hook


def _cache_get_counts(rec, _args, result) -> None:
    rec.count("cache.gets")
    rec.count("cache.hits", result is not None)


def _decode_bytes(rec, args, _result) -> None:
    rec.count("protocol.bytes", len(args[0]))


def _encode_bytes(rec, _args, result) -> None:
    rec.count("protocol.bytes", len(result))


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every traced layer boundary of the loaded ``repro`` package."""
    # import_module, not ``import a.b as c``: packages re-export
    # functions under their submodules' names (``repro.core.presolve``).
    gp = import_module("repro.core.gradient_projection")
    kkt = import_module("repro.core.kkt")
    line_search = import_module("repro.core.line_search")
    presolve = import_module("repro.core.presolve")
    manifest = import_module("repro.obs.manifest")
    from repro.core.active_set import ActiveSet
    from repro.core.batch import WarmStartChain
    from repro.core.objective import SumUtilityObjective
    from repro.core.problem import SamplingProblem
    from repro.core.routing_op import DenseRoutingOperator, SparseRoutingOperator
    from repro.stream.controller import StreamingController
    from repro.stream.tracker import TrafficTracker

    functions = [
        (gp, "solve_gradient_projection", "gp.solve", _gp_counts),
        (line_search, "line_search_along_ray", "line_search",
         _line_search_counts),
        (kkt, "check_kkt", "kkt", _counter("kkt.calls")),
        (presolve, "presolve", "presolve", _presolve_counts),
        (manifest, "fingerprint_problem", "fingerprint",
         _counter("fingerprint.calls")),
    ]
    methods = [
        (ActiveSet, "max_step", "active_set.max_step", None),
        (ActiveSet, "project", "active_set.project", None),
        (ActiveSet, "multipliers", "active_set.multipliers",
         _counter("active_set.multipliers.calls")),
        (SumUtilityObjective, "gradient", "objective.gradient", None),
        (SumUtilityObjective, "along_ray", "objective.along_ray", None),
        (DenseRoutingOperator, "matvec", "routing.matvec",
         _matvec_counts("matvec")),
        (DenseRoutingOperator, "rmatvec", "routing.rmatvec",
         _matvec_counts("rmatvec")),
        (SparseRoutingOperator, "matvec", "routing.matvec",
         _matvec_counts("matvec")),
        (SparseRoutingOperator, "rmatvec", "routing.rmatvec",
         _matvec_counts("rmatvec")),
        (presolve.ReducedProblem, "lift", "presolve.lift", None),
        (SamplingProblem, "__init__", "problem.build", None),
        (SamplingProblem, "clamped", "problem.build", None),
        (SamplingProblem, "with_theta", "problem.build", None),
        (WarmStartChain, "solve", "warm_chain.solve", _chain_counts),
        (TrafficTracker, "observe", "tracker.observe", None),
        (StreamingController, "step", "stream.step", _step_counts),
    ]
    if "repro.serve.server" in sys.modules:
        protocol = import_module("repro.serve.protocol")
        from repro.serve.cache import ResultCache
        from repro.serve.session import SolverSession

        functions += [
            (protocol, "decode_message", "protocol.decode", _decode_bytes),
            (protocol, "encode_message", "protocol.encode", _encode_bytes),
        ]
        methods += [
            (SolverSession, "prepare", "session.prepare", None),
            (SolverSession, "execute", "session.execute", None),
            (ResultCache, "get", "cache.get", _cache_get_counts),
            (ResultCache, "put", "cache.put", None),
        ]
    for module, attr, name, hook in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, rec.wrap(name, original, hook))
    for cls, attr, name, hook in methods:
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], hook))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

class SpanTable:
    """Spans as an ``(n, 6)`` int64 table plus the name list."""

    ID, NAME, START, END, PARENT, OP = range(6)

    def __init__(self, rows: np.ndarray, names: list[str]) -> None:
        self.rows = rows
        self.names = names

    @classmethod
    def load(cls, path) -> tuple["SpanTable", dict]:
        with np.load(path) as data:
            table = cls(data["spans"], [str(n) for n in data["names"]])
            counts = json.loads(str(data["counts"]))
        return table, counts

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.rows), dtype=bool)
        return self.rows[:, self.NAME] == self.names.index(name)

    def under(self, root: str) -> "SpanTable":
        """Only the spans of ops that a span named ``root`` opened."""
        roots = self.rows[self._mask(root), self.ID]
        return SpanTable(self.rows[np.isin(self.rows[:, self.OP], roots)],
                         self.names)

    def self_ms(self, name: str) -> float:
        return float(self.self_ns()[self._mask(name)].sum()) / 1e6

    def durations_ns(self) -> np.ndarray:
        return self.rows[:, self.END] - self.rows[:, self.START]

    def self_ns(self) -> np.ndarray:
        """Per span: its duration minus the time its child spans cover.

        Children run on their parent's thread inside its interval and
        never overlap each other, so the covered time is their sum.
        """
        rows = self.rows
        duration = self.durations_ns()
        if rows.size == 0:
            return duration
        size = int(max(rows[:, self.ID].max(), rows[:, self.PARENT].max())) + 1
        position = np.full(size, -1, dtype=np.int64)
        position[rows[:, self.ID]] = np.arange(len(rows))
        parent = np.where(rows[:, self.PARENT] >= 0,
                          position[np.maximum(rows[:, self.PARENT], 0)], -1)
        # A parent outside the table (dropped by a reset or a filter)
        # leaves its children as they are.
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=duration[child], minlength=len(rows),
        )
        return duration - covered

    def total_ms(self, name: str) -> float:
        return float(self.durations_ns()[self._mask(name)].sum()) / 1e6

    def root_ms(self) -> float:
        roots = self.rows[:, self.PARENT] < 0
        return float(self.durations_ns()[roots].sum()) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        """Total self time per layer of :data:`LAYER_SPANS`, in ms."""
        own = self.self_ns()
        return {
            layer: sum(float(own[self._mask(n)].sum()) for n in names) / 1e6
            for layer, names in LAYER_SPANS.items()
        }


def per_layer_metrics(table: SpanTable, counts, ops: int, extra: dict) -> dict:
    """Every per-layer metric, normalized per op, as ``{name: value}``.

    ``extra`` carries what only the caller knows: the daemon's counters,
    the admission residual, the unexplained share and the overhead.
    """
    ops = max(int(ops), 1)
    layer = table.layer_self_ms()

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    gp_ms = table.total_ms("gp.solve")
    iterations = counts.get("gp.iterations", 0.0)
    values = {
        "gp.solves": counts.get("gp.solves", 0.0) / ops,
        "gp.iterations": iterations / ops,
        "gp.us_per_iteration": gp_ms * 1e3 / iterations if iterations else 0.0,
        "gp.converged_frac": ratio("gp.converged", "gp.solves"),
        "line_search.calls": counts.get("line_search.calls", 0.0) / ops,
        "line_search.trials": counts.get("line_search.trials", 0.0) / ops,
        "active_set.multipliers.calls":
            counts.get("active_set.multipliers.calls", 0.0) / ops,
        "routing.matvec.calls": counts.get("routing.matvec.calls", 0.0) / ops,
        "routing.rmatvec.calls":
            counts.get("routing.rmatvec.calls", 0.0) / ops,
        "routing.bytes_computed":
            counts.get("routing.bytes_computed", 0.0) / ops,
        "kkt.calls": counts.get("kkt.calls", 0.0) / ops,
        "presolve.calls": counts.get("presolve.calls", 0.0) / ops,
        "presolve.links_removed_frac":
            ratio("presolve.links_removed", "presolve.links_original"),
        "warm_chain.solves": counts.get("warm_chain.solves", 0.0) / ops,
        "warm_chain.warm_frac": ratio("warm_chain.warm", "warm_chain.solves"),
        "stream.cold_resolve_frac": ratio("stream.cold", "stream.steps"),
        "fingerprint.calls": counts.get("fingerprint.calls", 0.0) / ops,
        "protocol.bytes": counts.get("protocol.bytes", 0.0) / ops,
        "cache.hit_frac": ratio("cache.hits", "cache.gets"),
    }
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_ms") and name not in values:
            values[name] = layer[name[: -len(".self_ms")]] / ops
    for name in ("cache.evictions", "admission.shed", "serve.coalesced",
                 "serve.batch_fanouts", "admission.wait_ms"):
        values[name] = extra.get(name, 0.0) / ops
    values["trace.unexplained_frac"] = extra.get("trace.unexplained_frac", 0.0)
    values["trace.overhead_frac"] = extra.get("trace.overhead_frac", 0.0)
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:  # a name added to the table but not computed
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return values
