"""Tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checker
import common
import inputs
import serve_mix
import tracer
from repro import SamplingProblem, janet_task, solve
from repro.verify.reference import reference_kkt_residuals


@pytest.fixture(scope="module")
def solved():
    problem = SamplingProblem.from_task(janet_task(), 100_000.0)
    solution = solve(problem, presolve=True)
    assert solution.diagnostics.converged
    return problem, solution.rates


# -- checker -----------------------------------------------------------------

def test_checker_accepts_the_optimum(solved):
    problem, rates = solved
    result = checker.check(checker.ProblemData.from_problem(problem), rates)
    assert result.ok, result
    assert result.objective == pytest.approx(
        solve(problem).objective_value, rel=1e-9)


def test_checker_matches_reference_kernels(solved):
    problem, rates = solved
    ours = checker.check(checker.ProblemData.from_problem(problem), rates)
    reference = reference_kkt_residuals(problem, rates)
    assert reference["satisfied"] == ours.ok
    assert ours.stationarity_residual == pytest.approx(
        reference["stationarity_residual"], abs=1e-12)
    assert ours.feasibility_residual == pytest.approx(
        reference["feasibility_residual"], abs=1e-12)


def test_checker_rejects_an_infeasible_answer(solved):
    problem, rates = solved
    data = checker.ProblemData.from_problem(problem)
    over = checker.check(data, rates * 1.01)
    assert not over.ok and over.reason == "capacity"
    negative = rates.copy()
    negative[np.argmax(rates)] *= -1.0
    assert checker.check(data, negative).reason == "bounds"


def test_checker_rejects_an_off_optimum_answer(solved):
    problem, rates = solved
    data = checker.ProblemData.from_problem(problem)
    loads = problem.link_loads_pps
    free = np.flatnonzero((rates > 1e-6) & (rates < problem.alpha - 1e-6))
    assert free.size >= 2
    i, j = free[:2]
    # Shift budget from link j to link i: still exactly on the capacity
    # plane and inside the box, but no longer stationary.
    shift = 0.2 * min(rates[j] * loads[j], (problem.alpha[i] - rates[i]) * loads[i])
    moved = rates.copy()
    moved[i] += shift / loads[i]
    moved[j] -= shift / loads[j]
    result = checker.check(data, moved)
    assert result.feasibility_residual < 1e-9
    assert not result.ok
    assert result.reason in ("stationarity", "multiplier-sign")


# -- seeded inputs ------------------------------------------------------------

def test_same_seed_gives_identical_backbone_inputs():
    first = inputs.digest_instances(inputs.backbone_instances(3, per_family=2))
    again = inputs.digest_instances(inputs.backbone_instances(3, per_family=2))
    other = inputs.digest_instances(inputs.backbone_instances(4, per_family=2))
    assert first == again
    assert first != other


def test_same_seed_gives_identical_stream_trace():
    first = inputs.digest_stream(inputs.stream_inputs(5, 6))
    assert first == inputs.digest_stream(inputs.stream_inputs(5, 6))
    assert first != inputs.digest_stream(inputs.stream_inputs(6, 6))


def test_same_seed_gives_identical_serve_schedule():
    names = {topology: [f"{topology}{i}" for i in range(12)]
             for topology in ("geant", "nsfnet", "abilene")}
    first = serve_mix.build_schedule(7, 6.0, names)
    again = serve_mix.build_schedule(7, 6.0, names)
    assert first.digest() == again.digest()
    assert first.digest() != serve_mix.build_schedule(8, 6.0, names).digest()
    nominal = first.steps[1][2]
    assert [r.kind for r in nominal].count("new") == round(0.15 * len(nominal))


def test_new_tasks_are_the_same_for_every_seed():
    names = {topology: [f"{topology}{i}" for i in range(12)]
             for topology in ("geant", "nsfnet", "abilene")}

    def new(seed):
        step = serve_mix.build_schedule(seed, 6.0, names).steps[1][2]
        return [r.key() for r in step if r.kind == "new"]

    assert new(7) != new(8)                  # seeded order ...
    assert sorted(new(7)) == sorted(new(8))  # ... of one fixed set


# -- statistics ---------------------------------------------------------------

def test_speed_factors_take_the_median_of_neighbouring_probes():
    reference = common.REFERENCE_PROBE_S
    probes = [2 * reference] * 40
    probes[20] = 100 * reference          # one disturbed probe is ignored
    assert np.allclose(common.speed_factors(probes), 0.5)
    # A phase at half speed scales the ops inside it, not the ones before.
    factors = common.speed_factors([reference] * 40 + [2 * reference] * 40)
    assert factors[0] == 1.0 and factors[-1] == 0.5

def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
    tail = common.tail_percentile(values)
    assert tail["value"] == 90.0
    assert tail["percentile"] == 90.0
    assert sum(v > tail["value"] for v in values) == 10
    # One more sample moves it up one rank, never below ten beyond.
    tail = common.tail_percentile(range(1, 132))
    assert tail["value"] == 121 and sum(v > 121 for v in range(1, 132)) == 10


def test_tail_percentile_with_ten_or_fewer_samples_is_the_max():
    assert common.tail_percentile([3.0, 1.0, 2.0]) == {
        "value": 3.0, "percentile": 100.0, "samples": 3, "beyond": 0}
    assert common.tail_percentile(range(11))["value"] == 0


# -- tracing ------------------------------------------------------------------

def test_self_time_subtracts_children():
    rec = tracer.Recorder()
    leaf = rec.wrap("leaf", lambda: sum(range(20_000)))
    parent = rec.wrap("parent", lambda: [leaf() for _ in range(3)])
    rec.op(parent)
    table = rec.table()
    durations = dict(zip(table.rows[:, table.ID], table.durations_ns()))
    own = dict(zip(table.rows[:, table.ID], table.self_ns()))
    names = [table.names[i] for i in table.rows[:, table.NAME]]
    by_name = {}
    for sid, name in zip(table.rows[:, table.ID], names):
        by_name.setdefault(name, []).append(sid)
    (parent_id,) = by_name["parent"]
    leaves = sum(durations[s] for s in by_name["leaf"])
    assert own[parent_id] == durations[parent_id] - leaves
    assert all(own[s] == durations[s] for s in by_name["leaf"])
    assert len(set(table.rows[:, table.OP])) == 1


def test_per_layer_metrics_cover_the_benchmark_file():
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == {n: (u, b) for n, (u, b, _) in tracer.PER_LAYER.items()}
    values = tracer.per_layer_metrics(
        tracer.Recorder().table(), {}, ops=1, extra={})
    assert set(values) == set(declared)
