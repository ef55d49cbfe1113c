"""``repro.scale``: the backend past exact-GP scale.

Two backends, each certified rather than trusted:

``exact``
    The paper's gradient projection (:func:`repro.core.solve`),
    certified by its KKT conditions.
``approx``
    Frank-Wolfe water-filling (:mod:`~repro.scale.approx`) — near-
    optimal in ``O(rounds · (nnz + n log n))`` with an a-posteriori
    duality-gap bound on every answer (after Kallitsis et al.).

:func:`solve_scaled` routes between them: an explicit ``backend=``
always wins; ``"auto"`` is a size threshold — ``approx`` at
:data:`APPROX_AUTO_LINKS` candidate links or more, ``exact`` below —
and records its choice in ``scale.backend.*`` counters.
"""

from __future__ import annotations

import numpy as np

from ..core.problem import SamplingProblem
from ..core.solution import SamplingSolution
from ..obs.metrics import METRICS
from ..obs.spans import span
from .approx import (
    ApproxOptions,
    budget_lp_vertex,
    frank_wolfe_gap,
    solve_approx,
)

__all__ = [
    "SCALE_BACKENDS",
    "APPROX_AUTO_LINKS",
    "ApproxOptions",
    "budget_lp_vertex",
    "frank_wolfe_gap",
    "choose_backend",
    "solve_approx",
    "solve_scaled",
]

#: The backend names ``solve_scaled`` accepts (plus ``"auto"``).
SCALE_BACKENDS = ("exact", "approx")

#: Auto policy: candidate counts at or above this get the water-
#: filling approximation — exact GP's active-set bookkeeping stops
#: amortizing around here on one core.
APPROX_AUTO_LINKS = 50_000


def choose_backend(
    problem: SamplingProblem, backend: str = "auto"
) -> str:
    """Resolve ``backend`` (maybe ``"auto"``) to a concrete backend.

    An explicit request is honored verbatim; ``"auto"`` returns
    ``"approx"`` at :data:`APPROX_AUTO_LINKS` candidate links or more
    and ``"exact"`` otherwise.  Any other name raises
    :class:`ValueError` listing the known backends.
    """
    if backend != "auto":
        if backend not in SCALE_BACKENDS:
            raise ValueError(
                f"unknown scale backend {backend!r}; "
                f"know {('auto', *SCALE_BACKENDS)}"
            )
        return backend
    if int(problem.candidate_mask.sum()) >= APPROX_AUTO_LINKS:
        return "approx"
    return "exact"


def solve_scaled(
    problem: SamplingProblem,
    backend: str = "auto",
    approx_options: ApproxOptions | None = None,
    gp_options=None,
    warm_start: np.ndarray | None = None,
) -> SamplingSolution:
    """Solve through the backend selected by :func:`choose_backend`.

    The returned diagnostics identify the backend that ran
    (``diagnostics.method``); an ``approx`` answer carries a certified
    ``optimality_gap``.
    """
    resolved = choose_backend(problem, backend)
    METRICS.increment(f"scale.backend.{resolved}")
    with span("scale.solve_scaled", backend=resolved,
              links=problem.num_links):
        if resolved == "approx":
            return solve_approx(
                problem, options=approx_options, warm_start=warm_start
            )
        from ..core.solver import solve

        return solve(problem, options=gp_options)
