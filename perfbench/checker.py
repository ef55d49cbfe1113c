"""Independent answer checker: feasibility and KKT from first principles.

Given a problem and the rate vector the program returned, the checker
recomputes everything itself, vectorized over the CSR routing matrix:

* the linear effective rates ``ρ = R p`` and the paper's spliced
  utility ``M(ρ)`` with its closed-form splice ``x₀ = 3c/(1+c)``;
* feasibility: ``Σ p_i U_i = θ/T`` and ``0 <= p <= α``, with every
  link outside the candidate set at the value its case forces (0 for
  unmonitorable, untraversed or zero-bound links, ``α`` for
  traversed zero-load links);
* the KKT residuals of the concave program on the candidate links:
  stationarity ``g_i = λ U_i`` on free links and the multiplier signs
  at active bounds, normalized like the reference kernels in
  ``repro.verify.reference`` so tolerances mean the same thing.

It reads only the problem's public data (routing operator, loads,
bounds, mask, θ, utility parameters).  It never consults the solver's
own certificate, ``diagnostics.kkt`` or ``gap_certified``: KKT is
sufficient for global optimality here, so a passing check certifies
the answer without trusting the program that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

#: Residual bound: the solver's own KKT tolerance, so the checker
#: accepts exactly the optima the program claims to reach.
TOLERANCE = 1e-6


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str
    objective: float
    feasibility_residual: float
    bound_violation: float
    stationarity_residual: float
    worst_multiplier: float


@dataclass(frozen=True)
class ProblemData:
    """The numbers of a problem, pulled out once for repeated checks."""

    routing: sparse.csr_matrix
    loads: np.ndarray
    alpha: np.ndarray
    monitorable: np.ndarray
    target_rate: float
    inverse_sizes: np.ndarray

    @classmethod
    def from_problem(cls, problem) -> "ProblemData":
        op = problem.routing_op
        csr = op.tosparse()
        if csr is None:
            csr = sparse.csr_matrix(op.toarray())
        try:
            inverse_sizes = np.array(
                [u.mean_inverse_size for u in problem.utilities], dtype=float
            )
        except AttributeError as exc:
            raise TypeError(
                "the checker knows only the paper's accuracy utility"
            ) from exc
        return cls(
            routing=sparse.csr_matrix(csr, dtype=float),
            loads=np.asarray(problem.link_loads_pps, dtype=float),
            alpha=np.asarray(problem.alpha, dtype=float),
            monitorable=np.asarray(problem.monitorable, dtype=bool),
            target_rate=float(problem.theta_packets)
            / float(problem.interval_seconds),
            inverse_sizes=inverse_sizes,
        )


def _splice(c: np.ndarray):
    x0 = 3.0 * c / (1.0 + c)
    return x0, 2.0 * (1.0 + c) / 3.0, c / (x0 * x0), -2.0 * c / (x0 ** 3)


def utility_value(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``M(ρ)``: ``1 + c − c/ρ`` above the splice, its Taylor form below."""
    x0, a0, d1, d2 = _splice(c)
    y = rho - x0
    safe = np.where(rho >= x0, rho, 1.0)
    return np.where(rho >= x0, 1.0 + c - c / safe, a0 + y * d1 + 0.5 * y * y * d2)


def utility_slope(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``M'(ρ)``."""
    x0, _a0, d1, d2 = _splice(c)
    safe = np.where(rho >= x0, rho, 1.0)
    return np.where(rho >= x0, c / (safe * safe), d1 + (rho - x0) * d2)


def objective(data: ProblemData, rates: np.ndarray) -> float:
    """``Σ_k M_k((R p)_k)`` — the linear-model objective the paper optimizes."""
    rho = data.routing @ np.asarray(rates, dtype=float)
    return float(utility_value(data.inverse_sizes, rho).sum())


def check(data: ProblemData, rates) -> CheckResult:
    """Check one answer; ``ok`` is False with a one-word ``reason`` if not."""
    rates = np.asarray(rates, dtype=float)
    nan = float("nan")
    if rates.shape != data.loads.shape:
        return CheckResult(False, "shape", nan, nan, nan, nan, nan)
    if not np.all(np.isfinite(rates)):
        return CheckResult(False, "nonfinite", nan, nan, nan, nan, nan)

    traversed = np.diff(data.routing.tocsc().indptr) > 0
    loaded = data.loads > 0
    open_ = data.monitorable & traversed & (data.alpha > 0)
    cand = open_ & loaded
    saturate = open_ & ~loaded

    bound_violation = float(
        max(np.max(-rates, initial=0.0), np.max(rates - data.alpha, initial=0.0))
    )
    forced = np.where(saturate, data.alpha, 0.0)
    off = ~cand
    forced_violation = float(
        np.max(np.abs(rates[off] - forced[off]), initial=0.0)
    )
    used = float(rates @ data.loads)
    feasibility = abs(used - data.target_rate) / max(data.target_rate, 1e-12)

    rho = data.routing @ rates
    value = float(utility_value(data.inverse_sizes, rho).sum())
    g = (data.routing.T @ utility_slope(data.inverse_sizes, rho))[cand]
    x = rates[cand]
    loads = data.loads[cand]
    alpha = data.alpha[cand]

    if x.size == 0:
        return CheckResult(False, "no-candidates", value, feasibility,
                           bound_violation, nan, nan)
    atol = max(1e-9, 1e-6 * float(alpha.min()))
    lower = x <= atol
    upper = ~lower & (x >= alpha - atol)
    free = ~lower & ~upper
    scale = max(1.0, float(np.abs(g).max()))
    if np.any(free):
        lam = float(g[free] @ loads[free]) / float(loads[free] @ loads[free])
        stationarity = float(np.abs(g[free] - lam * loads[free]).max()) / scale
    else:
        # No free link pins λ: any value between the lower-bound floors
        # and the upper-bound ceilings certifies; take the midpoint.
        ratio = g / loads
        lo = float(ratio[lower].max()) if np.any(lower) else -np.inf
        hi = float(ratio[upper].min()) if np.any(upper) else np.inf
        if np.isfinite(lo) and np.isfinite(hi):
            lam = 0.5 * (lo + hi)
        else:
            lam = lo if np.isfinite(lo) else hi
        stationarity = 0.0
    worst = min(
        float(np.min(lam * loads[lower] - g[lower], initial=0.0)),
        float(np.min(g[upper] - lam * loads[upper], initial=0.0)),
    ) / scale

    if bound_violation > TOLERANCE or forced_violation > TOLERANCE:
        reason = "bounds"
    elif feasibility > TOLERANCE:
        reason = "capacity"
    elif stationarity > TOLERANCE:
        reason = "stationarity"
    elif worst < -TOLERANCE:
        reason = "multiplier-sign"
    else:
        reason = "ok"
    return CheckResult(reason == "ok", reason, value, feasibility,
                       max(bound_violation, forced_violation), stationarity,
                       worst)


def objectives_agree(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))
