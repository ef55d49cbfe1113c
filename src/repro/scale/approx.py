"""Separable water-filling approximation with a certified gap.

The scaling backend of last resort: a Frank-Wolfe (conditional
gradient) loop whose linearized subproblem over the feasible polytope

    max  g·y   s.t.  Σ y_i U_i = θ/T,  0 ≤ y_i ≤ α_i

is a fractional knapsack with an equality budget — solved exactly by
*water-filling*: pour the budget into links in decreasing order of
marginal utility per unit of budget ``g_i / U_i``, saturating each at
its bound, with one fractional link at the waterline.  Each round
therefore costs one gradient (``O(nnz)``) plus one sort (``O(n log
n)``), and no active-set bookkeeping — the structure Kallitsis,
Stoev & Michailidis exploit for near-optimal monitoring at scales
where exact gradient projection is uneconomical.

The same linearization yields the *a-posteriori* optimality
certificate for free: by concavity, for any feasible ``y``

    f(y) ≤ f(x) + ∇f(x)·(y − x)   ⇒   f* − f(x) ≤ max_y ∇f(x)·(y − x)

and the maximizer on the right is exactly the knapsack vertex.  Every
answer ships that bound in ``SolverDiagnostics.optimality_gap``
(absolute) and on the ``solver.approx.gap`` gauge (relative), so an
approximate solve is never trusted on faith — the differential
harness checks the bound's *soundness* against the exact solver on
overlapping sizes (``docs/verification.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.gradient_projection import initial_feasible_point
from ..core.kkt import check_kkt
from ..core.line_search import line_search_along_ray
from ..core.objective import SumUtilityObjective
from ..core.problem import SamplingProblem
from ..core.solution import SamplingSolution, SolverDiagnostics
from ..obs.metrics import METRICS

#: ``SolverDiagnostics.method`` of every answer :func:`solve_approx`
#: returns — how callers tell an approximate answer from an exact one.
APPROX_METHOD = "approx_waterfill"

__all__ = [
    "ApproxOptions",
    "budget_lp_vertex",
    "frank_wolfe_gap",
    "solve_approx",
]


@dataclass(frozen=True)
class ApproxOptions:
    """Knobs of the water-filling approximation.

    ``gap_tolerance`` is *relative* (`gap / max(1, |f|)`): the loop
    stops once the certified bound says the answer is within that
    fraction of optimal.  The default half-percent matches the
    "within a few percent" regime the approximation is for; tighten
    it and Frank-Wolfe's ``O(1/t)`` tail will oblige, slowly.
    """

    gap_tolerance: float = 5e-3
    max_rounds: int = 500
    line_search_tolerance: float = 1e-10
    wall_clock_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.gap_tolerance <= 0:
            raise ValueError("gap_tolerance must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.wall_clock_limit_s is not None and self.wall_clock_limit_s <= 0:
            raise ValueError("wall_clock_limit_s must be positive (or None)")


def budget_lp_vertex(
    gradient: np.ndarray,
    loads: np.ndarray,
    alpha: np.ndarray,
    target_rate: float,
) -> np.ndarray:
    """Exact maximizer of ``g·y`` over ``{y·U = θ', 0 ≤ y ≤ α}``.

    Greedy water-filling on the budget-normalized gradient: with
    ``z_i = U_i y_i`` the problem is a fractional knapsack in ``z``
    with per-item value ``g_i / U_i`` and capacity ``U_i α_i``, so
    sorting by the ratio and filling to the waterline is optimal.
    Assumes ``loads > 0`` (guaranteed for candidate links) and
    ``target_rate ≤ Σ α U`` up to roundoff (clamped here).
    """
    cap = loads * alpha  # budget absorbed when the link sits at α
    order = np.argsort(-(gradient / loads), kind="stable")
    filled = np.cumsum(cap[order])
    y = np.zeros_like(loads)
    total = float(filled[-1]) if filled.size else 0.0
    if target_rate >= total:
        return alpha.copy()
    boundary = int(np.searchsorted(filled, target_rate, side="left"))
    y[order[:boundary]] = alpha[order[:boundary]]
    already = float(filled[boundary - 1]) if boundary > 0 else 0.0
    remainder = target_rate - already
    if remainder > 0.0:
        pivot = order[boundary]
        y[pivot] = min(remainder / loads[pivot], alpha[pivot])
    return y


def frank_wolfe_gap(
    gradient: np.ndarray,
    x: np.ndarray,
    loads: np.ndarray,
    alpha: np.ndarray,
    target_rate: float,
) -> tuple[float, np.ndarray]:
    """(certified bound on ``f* − f(x)``, the LP vertex attaining it).

    Valid for any feasible ``x`` of any backend, not only the
    approximation's own iterates.  The bound is clamped at 0: roundoff
    can drive the inner product a hair negative when ``x`` is itself
    the vertex.
    """
    vertex = budget_lp_vertex(gradient, loads, alpha, target_rate)
    gap = float(gradient @ (vertex - x))
    return max(gap, 0.0), vertex


def solve_approx(
    problem: SamplingProblem,
    options: ApproxOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> SamplingSolution:
    """Near-optimal solve by Frank-Wolfe water-filling.

    Returns a :class:`SamplingSolution` whose diagnostics carry
    ``method=APPROX_METHOD`` and a certified
    ``optimality_gap`` (absolute).  ``converged`` means the relative
    gap reached ``options.gap_tolerance``; a loop that exhausts
    ``max_rounds`` still returns its best feasible iterate *with* the
    bound actually achieved — the caller decides whether the wider
    certificate is acceptable.

    ``warm_start`` is a full-length rate vector used as the starting
    point after projection onto the feasible set.
    """
    t_start = perf_counter()
    options = options or ApproxOptions()
    problem.check_feasible()

    cand = np.flatnonzero(problem.candidate_mask)
    loads = problem.link_loads_pps[cand]
    alpha = problem.alpha[cand]
    target = problem.theta_rate_pps
    objective = SumUtilityObjective(
        problem.candidate_routing_op(), problem.utilities
    )

    if warm_start is not None:
        from ..core.gradient_projection import _project_to_feasible

        x = _project_to_feasible(
            np.asarray(warm_start, dtype=float)[cand], loads, alpha, target
        )
    else:
        x = initial_feasible_point(loads, alpha, target)

    rounds = 0
    evaluations = 0
    converged = False
    timed_out = False
    gap = float("inf")
    while rounds < options.max_rounds:
        if (
            options.wall_clock_limit_s is not None
            and perf_counter() - t_start > options.wall_clock_limit_s
        ):
            timed_out = True
            break
        rounds += 1
        g = objective.gradient(x)
        gap, vertex = frank_wolfe_gap(g, x, loads, alpha, target)
        scale = max(1.0, abs(objective.value(x)))
        if gap <= options.gap_tolerance * scale:
            converged = True
            break
        direction = vertex - x
        # Exact 1-D maximization of the concave restriction on [0, 1]
        # through the objective's incremental ray: ρ₀ is memoized from
        # the gradient, so the ray costs one extra matvec (δ = R s)
        # and each trial is O(K).
        ray = objective.along_ray(x, direction)
        result = line_search_along_ray(
            ray, 1.0, tolerance=options.line_search_tolerance
        )
        evaluations += result.newton_iterations
        if result.step <= 0.0:
            # The certificate says progress exists but the line search
            # could not realize it — numerical floor; stop with the
            # bound we have rather than loop in place.
            break
        x = x + result.step * direction
        np.clip(x, 0.0, alpha, out=x)

    rates = np.zeros(problem.num_links)
    rates[cand] = x
    free = problem.free_saturated_mask
    rates[free] = problem.alpha[free]

    value = float(objective.value(x))
    relative_gap = gap / max(1.0, abs(value))
    kkt = check_kkt(problem, rates, objective=objective)
    wall = perf_counter() - t_start
    if converged:
        message = (
            f"certified within {relative_gap:.2e} of optimal "
            f"({rounds} water-filling rounds)"
        )
    elif timed_out:
        message = (
            f"wall-clock limit {options.wall_clock_limit_s:g}s exceeded; "
            f"certified gap {relative_gap:.2e}"
        )
    else:
        message = (
            f"stopped after {rounds} rounds; certified gap {relative_gap:.2e}"
        )
    METRICS.increment("solver.approx.solves")
    METRICS.increment("solver.approx.rounds", rounds)
    METRICS.gauge("solver.approx.gap", relative_gap)
    METRICS.observe_timer("solver.approx.wall_time", wall)
    diagnostics = SolverDiagnostics(
        method=APPROX_METHOD,
        iterations=rounds,
        constraint_releases=0,
        converged=converged,
        objective_value=value,
        kkt=kkt,
        message=message,
        wall_time_s=wall,
        line_search_evaluations=evaluations,
        optimality_gap=gap,
    )
    return SamplingSolution(problem=problem, rates=rates, diagnostics=diagnostics)
