"""Fault-tolerant execution layer for the solve stack.

Modeling robustness (scenario sets, :mod:`repro.core.robust`) answers
"what if the *network* fails"; this package answers "what if the
*solver runtime* fails" — a worker SIGKILLed mid-batch, a solve that
hangs past its interval budget, telemetry that crashes the exact
method.  Three pieces:

``repro.resilience.supervisor``
    :func:`supervised_solve` — per-attempt wall-clock timeouts,
    bounded jittered retries, and a declarative fallback chain
    (gradient projection → SciPy reference → feasible uniform point)
    with every attempt recorded in ``SolverDiagnostics.attempts`` and
    the ``resilience.*`` counters.
``repro.resilience.checkpoint``
    :class:`SweepCheckpoint` — durable JSONL checkpoints of completed
    sweep members, so an interrupted θ sweep resumes warm and
    reproduces the uninterrupted result bit for bit.
``repro.resilience.faults``
    Deterministic, seeded fault injection (solve raises/hangs, worker
    exits, daemon-side faults) used by the chaos tests and the CLI's
    ``--chaos`` mode.

The crash-safe batch pool itself lives in :mod:`repro.core.batch`
(dead-worker detection, task re-queue, inline degradation) and
consults this package's fault plans.
"""

from .checkpoint import CheckpointMismatchError, SweepCheckpoint
from .faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SITE_SOLVE_HANG,
    SITE_SOLVE_RAISE,
    SITE_WORKER_EXIT,
    active_plan,
    chaos_plan,
    clear_faults,
    injected_faults,
    install_faults,
    maybe_fire,
)
from .supervisor import (
    FALLBACK_STAGES,
    SolveTimeoutError,
    SupervisorError,
    SupervisorPolicy,
    fallback_stages,
    supervise_stages,
    supervised_solve,
)

__all__ = [
    # supervisor
    "SupervisorPolicy",
    "supervised_solve",
    "supervise_stages",
    "fallback_stages",
    "SolveTimeoutError",
    "SupervisorError",
    "FALLBACK_STAGES",
    # checkpoints
    "SweepCheckpoint",
    "CheckpointMismatchError",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "chaos_plan",
    "install_faults",
    "clear_faults",
    "active_plan",
    "injected_faults",
    "maybe_fire",
    "SITE_SOLVE_RAISE",
    "SITE_SOLVE_HANG",
    "SITE_WORKER_EXIT",
]
