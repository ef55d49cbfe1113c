"""Golden regression corpus: versioned solved artifacts for real maps.

A golden artifact freezes everything a regression hunter needs from a
canonical solve — the full rate vector, the objective, the KKT gap,
and the problem's structural fingerprint — as reviewable JSON under
``src/repro/verify/_golden/``.  :func:`compare_golden` re-solves the
case and diffs against the artifact with the tolerances in
:data:`GOLDEN_TOLERANCES`; a legitimate behavior change (new solver
default, recalibrated workload) regenerates the corpus with
``netsampling verify --update-golden`` and ships the diff in the same
commit, where review sees exactly what moved.

Structural fingerprint keys (link/OD counts, θ, routing nnz) must
match *exactly* — a drifted fingerprint means the case definition
changed, which no tolerance should paper over.  ``package_version``
and the routing backend are recorded but not compared.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core import check_kkt, solve
from ..core.problem import SamplingProblem
from ..obs.manifest import fingerprint_problem
from ..obs.metrics import METRICS
from .reference import reference_candidate_objective

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SCHEMA_VERSION",
    "GOLDEN_TOLERANCES",
    "golden_case_names",
    "stream_case_names",
    "build_golden_case",
    "solve_golden_case",
    "compare_golden",
    "update_golden",
    "run_golden_suite",
]

GOLDEN_DIR = Path(__file__).with_name("_golden")
GOLDEN_SCHEMA_VERSION = 1

#: Comparison tolerances: objective and KKT gaps are relative, rates
#: absolute (rates live in [0, 1]).  Roomier than the differential
#: tolerances because golden artifacts must survive BLAS/numpy version
#: drift across CI images, not just run-to-run noise.
GOLDEN_TOLERANCES: dict[str, float] = {
    "objective": 1e-7,
    "rates": 1e-6,
    "kkt_gap": 1e-6,
    #: Streaming cases: per-interval warm iteration counts may drift a
    #: little across BLAS builds (the line search is float-order
    #: sensitive), but the p95 is the acceptance bar the benchmark
    #: gates on and must hold exactly.
    "warm_iterations_drift": 2.0,
    "warm_iterations_p95": 5.0,
}

#: Fingerprint keys that must match bit-for-bit.
_STRUCTURAL_KEYS = (
    "num_links",
    "num_od_pairs",
    "theta_packets",
    "interval_seconds",
    "candidate_links",
    "routing_nnz",
    "topology",
)


def _geant_problem(theta_packets: float) -> tuple[str, SamplingProblem]:
    from ..traffic import janet_task

    task = janet_task()
    return task.network.name, SamplingProblem.from_task(task, theta_packets)


def _nsfnet_problem() -> tuple[str, SamplingProblem]:
    from ..routing import ODPair
    from ..topology import nsfnet_network
    from ..traffic import make_task

    net = nsfnet_network()
    od_pairs = [
        ODPair("WA", "NY"),
        ODPair("CA1", "DC"),
        ODPair("TX", "IL"),
        ODPair("MI", "GA"),
        ODPair("CO", "NJ"),
    ]
    sizes = [8_000.0, 5_000.0, 3_000.0, 1_500.0, 900.0]
    task = make_task(net, od_pairs, sizes, background_pps=60_000.0, seed=2006)
    return net.name, SamplingProblem.from_task(task, theta_packets=50_000.0)


def _hier_decomposable_problem() -> tuple[str, SamplingProblem]:
    """Pod-local hierarchical instance, solved by plain exact GP.

    ``intra_pod_fraction=1.0`` keeps every OD pair inside its pod, so
    the OD×link bipartite graph splits into one component per pod —
    a block-separable shape the corpus pins alongside the backbones.
    """
    from ..topology import hierarchical_routing_problem

    problem = hierarchical_routing_problem(
        4, 8, 2, intra_pod_fraction=1.0, seed=2006
    )
    return "hier-4x8+2", problem


_CASES = {
    "geant": lambda: _geant_problem(100_000.0),
    "geant-lowcap": lambda: _geant_problem(20_000.0),
    "nsfnet": _nsfnet_problem,
    "hier-decomposable": _hier_decomposable_problem,
}


def _stream_trace_24h():
    """The canonical streaming case: 24 h of GEANT diurnal traffic.

    One task snapshot per hour (lognormal noise, σ = 0.05), with a
    ×4 volume anomaly on OD 0 from hour 12 to the end of the trace —
    one genuine level shift, so the controller must trigger exactly
    one cold re-solve and warm-start everywhere else.
    """
    from ..stream import StreamConfig
    from ..traffic import janet_task
    from ..traffic.temporal import TraceEvent, generate_trace

    base = janet_task(interval_seconds=3600.0)
    events = [
        TraceEvent(
            kind="anomaly",
            start_interval=12,
            duration_intervals=12,
            od_index=0,
            magnitude=4.0,
        )
    ]
    trace = list(
        generate_trace(
            base,
            num_intervals=24,
            noise_sigma=0.05,
            trough=0.4,
            events=events,
            seed=42,
        )
    )
    return trace, StreamConfig(theta_packets=100_000.0)


_STREAM_CASES = {
    "geant-stream-24h": _stream_trace_24h,
}


def golden_case_names() -> list[str]:
    """The canonical case names, in corpus order."""
    return list(_CASES) + list(_STREAM_CASES)


def stream_case_names() -> list[str]:
    """The streaming (multi-interval) subset of the corpus."""
    return list(_STREAM_CASES)


def build_golden_case(name: str) -> tuple[str, SamplingProblem]:
    """(topology name, problem) for a single-solve corpus case.

    Streaming cases (``stream_case_names()``) are whole traces, not
    one problem — they are built inside :func:`solve_golden_case`.
    """
    try:
        builder = _CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown golden case {name!r}; know {sorted(_CASES)} "
            f"plus streaming cases {sorted(_STREAM_CASES)}"
        ) from None
    return builder()


def _artifact_path(name: str, directory: Path | None = None) -> Path:
    return (directory or GOLDEN_DIR) / f"{name}.json"


def _solve_stream_case(name: str) -> dict:
    """Run a streaming case and assemble its per-interval artifact."""
    from ..stream import run_stream

    trace, config = _STREAM_CASES[name]()
    results = run_stream(trace, config)
    intervals = []
    for step in results:
        cand = np.flatnonzero(step.problem.candidate_mask)
        kkt = step.solution.diagnostics.kkt
        intervals.append(
            {
                "index": step.index,
                "objective": reference_candidate_objective(
                    step.problem, step.solution.rates[cand]
                ),
                "rates": [float(r) for r in step.solution.rates],
                "active_links": len(step.solution.active_link_indices),
                "cold": bool(step.cold),
                "warm": bool(step.warm),
                "warm_iterations": step.warm_iterations,
                "change_points": list(step.change_points),
                "kkt_satisfied": bool(kkt is not None and kkt.satisfied),
            }
        )
    warm_counts = [
        i["warm_iterations"]
        for i in intervals
        if i["warm_iterations"] is not None
    ]
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "case": name,
        "kind": "stream",
        "intervals": intervals,
        "summary": {
            "num_intervals": len(intervals),
            "cold_resolves": sum(i["cold"] for i in intervals),
            "change_point_intervals": [
                i["index"] for i in intervals if i["change_points"]
            ],
            "warm_iterations_p95": float(np.percentile(warm_counts, 95)),
        },
        "fingerprint": fingerprint_problem(
            results[0].problem, topology=name
        ),
    }


def solve_golden_case(name: str) -> dict:
    """Solve a case and assemble its artifact dict."""
    if name in _STREAM_CASES:
        return _solve_stream_case(name)
    topology, problem = build_golden_case(name)
    solution = solve(problem, presolve=True)
    kkt = check_kkt(problem, solution.rates, tolerance=1e-6)
    cand = np.flatnonzero(problem.candidate_mask)
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "case": name,
        "method": solution.diagnostics.method,
        "converged": bool(solution.diagnostics.converged),
        "objective": reference_candidate_objective(
            problem, solution.rates[cand]
        ),
        "budget_used_packets": float(solution.budget_used_packets),
        "active_links": len(solution.active_link_indices),
        "rates": [float(r) for r in solution.rates],
        "kkt": {
            "satisfied": bool(kkt.satisfied),
            "lam": float(kkt.lam),
            "stationarity_residual": float(kkt.stationarity_residual),
            "feasibility_residual": float(kkt.feasibility_residual),
            "bound_violation": float(kkt.bound_violation),
            "worst_multiplier": float(kkt.worst_multiplier),
        },
        "fingerprint": fingerprint_problem(problem, topology=topology),
    }


def compare_golden(
    name: str,
    directory: Path | None = None,
    tolerances: dict[str, float] | None = None,
) -> dict:
    """Re-solve ``name`` and diff against its stored artifact."""
    tolerances = {**GOLDEN_TOLERANCES, **(tolerances or {})}
    path = _artifact_path(name, directory)
    result: dict = {"case": name, "artifact": str(path)}
    if not path.exists():
        result.update(
            passed=False,
            missing=True,
            message="no golden artifact; run `netsampling verify "
            "--update-golden`",
        )
        METRICS.increment("verify.golden.missing")
        return result
    stored = json.loads(path.read_text())
    fresh = solve_golden_case(name)
    if name in _STREAM_CASES:
        return _compare_stream(result, stored, fresh, tolerances)

    diffs: dict[str, dict] = {}
    objective_gap = abs(fresh["objective"] - stored["objective"]) / max(
        1.0, abs(stored["objective"])
    )
    diffs["objective"] = {
        "stored": stored["objective"],
        "fresh": fresh["objective"],
        "gap": objective_gap,
        "tolerance": tolerances["objective"],
        "ok": objective_gap <= tolerances["objective"],
    }
    stored_rates = np.asarray(stored["rates"], dtype=float)
    fresh_rates = np.asarray(fresh["rates"], dtype=float)
    if stored_rates.shape == fresh_rates.shape:
        rate_gap = float(np.abs(stored_rates - fresh_rates).max())
    else:
        rate_gap = float("inf")
    diffs["rates"] = {
        "gap": rate_gap,
        "tolerance": tolerances["rates"],
        "ok": rate_gap <= tolerances["rates"],
    }
    kkt_gap = max(
        fresh["kkt"]["stationarity_residual"],
        fresh["kkt"]["feasibility_residual"],
        fresh["kkt"]["bound_violation"],
        -fresh["kkt"]["worst_multiplier"],
    )
    diffs["kkt_gap"] = {
        "fresh": kkt_gap,
        "tolerance": tolerances["kkt_gap"],
        "ok": kkt_gap <= tolerances["kkt_gap"]
        and fresh["kkt"]["satisfied"],
    }
    structural_mismatches = {
        key: {
            "stored": stored["fingerprint"].get(key),
            "fresh": fresh["fingerprint"].get(key),
        }
        for key in _STRUCTURAL_KEYS
        if stored["fingerprint"].get(key) != fresh["fingerprint"].get(key)
    }
    diffs["fingerprint"] = {
        "mismatches": structural_mismatches,
        "ok": not structural_mismatches,
    }

    result.update(
        missing=False,
        converged=fresh["converged"],
        diffs=diffs,
        passed=fresh["converged"] and all(d["ok"] for d in diffs.values()),
    )
    METRICS.increment(
        "verify.golden.passed" if result["passed"] else "verify.golden.failed"
    )
    return result


def _compare_stream(
    result: dict, stored: dict, fresh: dict, tolerances: dict[str, float]
) -> dict:
    """Diff a streaming artifact interval by interval.

    Placements and objectives compare under the ordinary numeric
    tolerances.  The *control decisions* — which intervals went cold,
    where change points fired — are part of the frozen behavior and
    must match exactly: a drifted decision pattern means the detector
    or the controller changed, which no tolerance should paper over.
    Warm iteration counts may drift by a couple across BLAS builds,
    but the p95 must stay within the streaming acceptance bar.
    """
    diffs: dict[str, dict] = {}
    stored_iv = stored["intervals"]
    fresh_iv = fresh["intervals"]
    aligned = len(stored_iv) == len(fresh_iv)

    objective_gap = 0.0
    rate_gap = 0.0
    iteration_drift = 0.0
    if aligned:
        for s, f in zip(stored_iv, fresh_iv):
            objective_gap = max(
                objective_gap,
                abs(f["objective"] - s["objective"])
                / max(1.0, abs(s["objective"])),
            )
            rate_gap = max(
                rate_gap,
                float(
                    np.abs(
                        np.asarray(f["rates"]) - np.asarray(s["rates"])
                    ).max()
                ),
            )
            if (
                s["warm_iterations"] is not None
                and f["warm_iterations"] is not None
            ):
                iteration_drift = max(
                    iteration_drift,
                    abs(f["warm_iterations"] - s["warm_iterations"]),
                )
    else:
        objective_gap = rate_gap = iteration_drift = float("inf")
    diffs["objective"] = {
        "gap": objective_gap,
        "tolerance": tolerances["objective"],
        "ok": objective_gap <= tolerances["objective"],
    }
    diffs["rates"] = {
        "gap": rate_gap,
        "tolerance": tolerances["rates"],
        "ok": rate_gap <= tolerances["rates"],
    }

    def _pattern(intervals):
        return {
            "cold": [i["index"] for i in intervals if i["cold"]],
            "change_points": [
                [i["index"], i["change_points"]]
                for i in intervals
                if i["change_points"]
            ],
        }

    stored_pattern = _pattern(stored_iv)
    fresh_pattern = _pattern(fresh_iv)
    diffs["decisions"] = {
        "stored": stored_pattern,
        "fresh": fresh_pattern,
        "ok": aligned and stored_pattern == fresh_pattern,
    }
    p95 = fresh["summary"]["warm_iterations_p95"]
    diffs["warm_iterations"] = {
        "drift": iteration_drift,
        "p95": p95,
        "tolerance": tolerances["warm_iterations_drift"],
        "ok": iteration_drift <= tolerances["warm_iterations_drift"]
        and p95 <= tolerances["warm_iterations_p95"],
    }
    certified = aligned and all(i["kkt_satisfied"] for i in fresh_iv)
    diffs["kkt_gap"] = {"ok": certified}
    structural_mismatches = {
        key: {
            "stored": stored["fingerprint"].get(key),
            "fresh": fresh["fingerprint"].get(key),
        }
        for key in _STRUCTURAL_KEYS
        if stored["fingerprint"].get(key) != fresh["fingerprint"].get(key)
    }
    diffs["fingerprint"] = {
        "mismatches": structural_mismatches,
        "ok": not structural_mismatches,
    }
    result.update(
        missing=False,
        converged=certified,
        diffs=diffs,
        passed=all(d["ok"] for d in diffs.values()),
    )
    METRICS.increment(
        "verify.golden.passed" if result["passed"] else "verify.golden.failed"
    )
    return result


def update_golden(
    names: list[str] | None = None, directory: Path | None = None
) -> list[Path]:
    """Regenerate artifacts; returns the written paths."""
    directory = directory or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names or golden_case_names():
        artifact = solve_golden_case(name)
        path = _artifact_path(name, directory)
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def run_golden_suite(
    names: list[str] | None = None, directory: Path | None = None
) -> dict:
    """Compare every requested case; the golden section of the report."""
    cases = [
        compare_golden(name, directory=directory)
        for name in names or golden_case_names()
    ]
    return {
        "cases": cases,
        "passed": all(case["passed"] for case in cases),
    }
