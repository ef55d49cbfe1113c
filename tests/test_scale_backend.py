"""Tests for scale-backend selection and dispatch (``solve_scaled``)."""

import numpy as np
import pytest

from repro import SamplingProblem, janet_task
from repro.obs import collecting_metrics
from repro.scale import (
    APPROX_AUTO_LINKS,
    SCALE_BACKENDS,
    choose_backend,
    solve_scaled,
)
from repro.topology import hierarchical_routing_problem


@pytest.fixture(scope="module")
def geant_problem():
    return SamplingProblem.from_task(janet_task(), theta_packets=100_000)


class TestChooseBackend:
    def test_explicit_request_wins(self, geant_problem):
        for backend in SCALE_BACKENDS:
            assert choose_backend(geant_problem, backend) == backend

    def test_unknown_backend_rejected(self, geant_problem):
        with pytest.raises(ValueError, match="unknown scale backend"):
            choose_backend(geant_problem, "simplex")

    @pytest.mark.parametrize("name", ["decompose", "compiled"])
    def test_removed_backend_lists_known_ones(self, geant_problem, name):
        with pytest.raises(ValueError) as excinfo:
            choose_backend(geant_problem, name)
        message = str(excinfo.value)
        assert f"unknown scale backend {name!r}" in message
        for known in ("auto", *SCALE_BACKENDS):
            assert repr(known) in message

    def test_small_problem_stays_exact(self, geant_problem):
        assert choose_backend(geant_problem, "auto") == "exact"

    def test_midsize_problem_stays_exact(self):
        # The auto policy keys on *candidate* links (columns some OD
        # row touches): everything below the approx threshold is exact.
        problem = hierarchical_routing_problem(
            8, 60, 2, intra_pod_fraction=0.0, num_od_pairs=960, seed=0
        )
        candidates = int(problem.candidate_mask.sum())
        assert 512 <= candidates < APPROX_AUTO_LINKS
        assert choose_backend(problem, "auto") == "exact"

    def test_huge_problem_approximates(self):
        problem = hierarchical_routing_problem(
            200, 200, 2, intra_pod_fraction=0.5, num_od_pairs=120_000, seed=0
        )
        assert int(problem.candidate_mask.sum()) >= APPROX_AUTO_LINKS
        assert choose_backend(problem, "auto") == "approx"


class TestSolveScaled:
    def test_dispatch_records_method_and_counter(self, geant_problem):
        with collecting_metrics(reset=True) as registry:
            solution = solve_scaled(geant_problem, backend="approx")
            counters = registry.snapshot()["counters"]
        assert solution.diagnostics.method == "approx_waterfill"
        assert counters["scale.backend.approx"] == 1

    def test_exact_dispatch_matches_solve(self, geant_problem):
        from repro.core import solve

        scaled = solve_scaled(geant_problem, backend="exact")
        exact = solve(geant_problem)
        assert scaled.diagnostics.objective_value == pytest.approx(
            exact.diagnostics.objective_value, rel=1e-9
        )
        assert scaled.diagnostics.optimality_gap is None

    def test_warm_start_reaches_approx(self, geant_problem):
        exact = solve_scaled(geant_problem, backend="exact")
        warm = solve_scaled(
            geant_problem, backend="approx", warm_start=exact.rates
        )
        assert warm.diagnostics.converged
        assert warm.diagnostics.iterations <= 2

    def test_every_backend_feasible_result(self, geant_problem):
        for backend in SCALE_BACKENDS:
            solution = solve_scaled(geant_problem, backend=backend)
            assert np.all(solution.rates >= 0.0)
            assert np.all(solution.rates <= geant_problem.alpha + 1e-12)
            assert solution.budget_used_packets <= (
                geant_problem.theta_packets * (1 + 1e-9)
            )
