"""One closed-loop workload in its own interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``repro`` from the checkout, builds its seeded inputs, prints
``READY <digest>`` (``run.py`` times set-up from launch to this line),
then — unless ``--setup-only`` — runs a fixed number of ops back to
back, checks every answer with the independent checker and writes a
JSON result to ``--out``.

With ``--trace 1`` the same op sequence runs twice: untraced, then
under the span recorder, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import checker
from common import (OUT_DIR, SRC_DIR, peak_rss_mb_self, speed_factors,
                    speed_probe)

sys.path.insert(0, str(SRC_DIR))

import inputs  # noqa: E402  (needs src on the path)
import tracer  # noqa: E402
from repro import solve  # noqa: E402
from repro.stream import StreamConfig, StreamingController  # noqa: E402
from repro.verify.reference import reference_kkt_residuals  # noqa: E402

#: Ops a run makes per second of ``--seconds``, about what the program
#: managed when the benchmark was defined; the count is fixed, in whole
#: passes over the instance list.  A fixed count keeps the instances solved,
#: the stream intervals stepped and the tail percentile the same however
#: fast the program is, so two commits compare on one statistic.
OPS_PER_SECOND = {
    "backbone-cold": 17.0,
    "stream-diurnal": 8.5,
}
#: A run stops early, with fewer ops, once its ops have taken this
#: many times their share of ``--seconds``: a cap for a much slower
#: program, never reached at the speed the counts were sized for.
CAP_FACTOR = 2.5
#: Backbone answers also checked by ``repro.verify.reference``'s loop
#: kernels, to cross-check the vectorized checker.
CROSS_CHECKS = 6


class Op:
    """One attempted op: which input, its latency, the verdict, and the
    :func:`~common.speed_probe` taken just before it."""

    __slots__ = ("index", "latency_s", "ok", "probe_s")

    def __init__(self, index, latency_s, ok, probe_s):
        self.index = index
        self.latency_s = latency_s
        self.ok = ok
        self.probe_s = probe_s


def scaled(ops: list[Op]) -> list[float]:
    """Op latencies at the reference machine speed (see ``common``)."""
    factors = speed_factors([op.probe_s for op in ops])
    return [op.latency_s * f for op, f in zip(ops, factors)]


class Verdicts:
    """Independent verdicts on answers as they arrive, with a reason tally.

    Each answer is checked right after its op, outside the timed call,
    and then dropped: a run keeps no answers, so its memory does not
    grow with the number of ops and ``peak_rss_mb`` stays the program's.
    """

    def __init__(self, workload: str) -> None:
        self.cross_check = workload == "backbone-cold"
        # Backbone ops reuse instances; stream problems are new.
        self.reuse = workload != "stream-diurnal"
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.cross = {"checked": 0, "mismatches": 0,
                      "max_stationarity_diff": 0.0}
        self._data: dict[int, checker.ProblemData] = {}

    def __call__(self, index, problem, solution, error) -> bool:
        verdict = "error" if error is not None else self._check(
            index, problem, solution)
        if verdict != "ok":
            self.failures[verdict] = self.failures.get(verdict, 0) + 1
        return verdict == "ok"

    def _check(self, index, problem, solution) -> str:
        data = self._data.get(index) if self.reuse else None
        if data is None:
            data = checker.ProblemData.from_problem(problem)
            if self.reuse:
                self._data[index] = data
        result = checker.check(data, solution.rates)
        claimed = bool(solution.diagnostics.converged)
        if self.cross_check and self.cross["checked"] < CROSS_CHECKS:
            reference = reference_kkt_residuals(problem, solution.rates)
            self.cross["checked"] += 1
            self.cross["mismatches"] += reference["satisfied"] != result.ok
            self.cross["max_stationarity_diff"] = max(
                self.cross["max_stationarity_diff"],
                abs(reference["stationarity_residual"]
                    - result.stationarity_residual))
        if result.ok and claimed:
            return "ok"
        if claimed:
            self.wrong += 1
            return f"wrong:{result.reason}"
        return "uncertified"


def _timed(rec, fn, *args, **kwargs):
    """(latency, result, error) of one call, under an ``op`` span if traced."""
    start = time.perf_counter()
    try:
        result = rec.op(fn, *args, **kwargs) if rec else fn(*args, **kwargs)
        error = None
    except Exception as exc:  # every failure is counted, none is fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


# ----------------------------------------------------------------------
# workloads: each runs a given count of ops, or fewer if capped
# ----------------------------------------------------------------------

def op_count(workload: str, seconds: float, unit: int = 1) -> int:
    """Ops of one run of ``seconds``, in whole multiples of ``unit``."""
    return unit * max(1, round(OPS_PER_SECOND[workload] * seconds / unit))


class SolveLoop:
    """Cold ``solve(problem, presolve=True)`` over a cycled instance list.

    The list only makes sense whole — a seeded set stratified over θ —
    so a run's op count is a multiple of its length.
    """

    def __init__(self, instances):
        self.instances = instances
        self.unit = len(instances)
        self.digest = inputs.digest_instances(instances)

    def run(self, verdicts, count, cap_s, rec=None) -> list[Op]:
        ops: list[Op] = []
        n = len(self.instances)
        deadline = time.perf_counter() + cap_s
        while len(ops) < count and time.perf_counter() < deadline:
            i = len(ops) % n
            problem = self.instances[i].fresh()
            probe = speed_probe()
            latency, solution, error = _timed(rec, solve, problem,
                                              presolve=True)
            ops.append(Op(i, latency, verdicts(i, problem, solution, error),
                          probe))
        return ops


class StreamLoop:
    """``StreamingController.step`` over the trace, one interval per op.

    The trace has one interval per op of a run, so every run steps a
    fresh controller through the same leading intervals.
    """

    unit = 1

    def __init__(self, seed, intervals):
        self.inputs = inputs.stream_inputs(seed, intervals)
        self.digest = inputs.digest_stream(self.inputs)

    def run(self, verdicts, count, cap_s, rec=None) -> list[Op]:
        controller = StreamingController(
            StreamConfig(theta_packets=self.inputs.theta))
        ops: list[Op] = []
        deadline = time.perf_counter() + cap_s
        for i, interval in enumerate(self.inputs.intervals[:count]):
            if time.perf_counter() >= deadline:
                break
            probe = speed_probe()
            latency, step, error = _timed(rec, controller.step, interval.task)
            # The step returns the interval's problem with its answer.
            ok = verdicts(i, step and step.problem, step and step.solution,
                          error)
            ops.append(Op(i, latency, ok, probe))
        return ops


def build(workload: str, seed: int, seconds: float):
    if workload == "backbone-cold":
        return SolveLoop(inputs.backbone_instances(seed))
    if workload == "stream-diurnal":
        return StreamLoop(seed, op_count(workload, seconds))
    raise SystemExit(f"unknown closed-loop workload {workload!r}")


def summarize(ops: list[Op], verdicts: Verdicts, planned: int) -> dict:
    good = sum(op.ok for op in ops)
    return {
        "planned": planned,
        "attempted": len(ops),
        "failed": len(ops) - good,
        "failures": verdicts.failures,
        "wrong": verdicts.wrong,
        "cross_check": verdicts.cross,
        "latencies_s": scaled(ops),
        "busy_s": float(sum(scaled(ops))),
        "raw_p50_s": float(statistics.median(op.latency_s for op in ops)),
        "probe_p50_s": float(statistics.median(op.probe_s for op in ops)),
        "certified": good,
        "instances": sorted({op.index for op in ops}),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    loop = build(args.workload, args.seed, args.seconds)
    print(f"READY {loop.digest}", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"digest": loop.digest}
    verdicts = Verdicts(args.workload)
    if args.trace == 0:
        count = op_count(args.workload, args.seconds, loop.unit)
        ops = loop.run(verdicts, count, CAP_FACTOR * args.seconds)
        result["peak_rss_mb"] = peak_rss_mb_self()
        result["run"] = summarize(ops, verdicts, count)
    else:
        count = op_count(args.workload, args.seconds / 2, loop.unit)
        cap_s = CAP_FACTOR * args.seconds / 2
        plain = loop.run(verdicts, count, cap_s)
        rec = tracer.Recorder()
        tracer.install(rec)
        traced = loop.run(verdicts, len(plain), cap_s, rec=rec)
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"spans-{args.workload}-s{args.seed}.npz")
        # Problems rebuilt between ops are the benchmark's, not an op's.
        table = rec.table().under("op")
        plain_s = sum(scaled(plain))
        traced_s = sum(scaled(traced))
        op_ms = table.total_ms("op")
        extra = {
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "trace.unexplained_frac":
                table.self_ms("op") / op_ms if op_ms else 0.0,
        }
        result["per_layer"] = tracer.per_layer_metrics(
            table, rec.counts, len(traced), extra)
        result["layer_self_ms"] = table.layer_self_ms()
        result["spans"] = int(len(table.rows))
        result["peak_rss_mb"] = peak_rss_mb_self()
        result["run"] = summarize(plain + traced, verdicts, 2 * count)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
