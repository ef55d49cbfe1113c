"""Deterministic fault injection for chaos testing the solve stack.

Production failure modes — a solver raising on bad telemetry, a solve
that never returns, a pool worker SIGKILLed by the OOM killer — are
rare and timing-dependent, which makes the recovery paths the
least-tested code in the tree.
This module makes them *reproducible*: a :class:`FaultPlan` is a
seeded, picklable schedule of failure points that instrumented call
sites consult via :func:`maybe_fire`.  With no plan installed the
check is one module-global read, so production solves pay nothing.

Failure points (``SITE_*`` constants):

``solve.raise``
    The solve attempt (a supervised attempt, a pool task or a daemon
    solve) raises :class:`InjectedFault` before running.
``solve.hang``
    The solve attempt sleeps ``hang_seconds`` before proceeding —
    long enough to trip a supervisor timeout, short enough that the
    abandoned watchdog thread drains quickly.
``worker.exit``
    A pool worker dies via ``os._exit`` (indistinguishable from a
    SIGKILL to the parent: the pool breaks, the task result is lost).
``serve.queue_full``
    The daemon's admission controller behaves as if the high
    watermark had tripped: the request is shed with a structured
    ``overloaded`` error, without generating real load.
``serve.slow_solve``
    A serve-layer solve sleeps ``hang_seconds`` before running — long
    enough to back up the executor queue, trip per-request deadlines
    and exercise the drain path with genuinely in-flight work.
``serve.client_disconnect``
    The connection to the requesting client is aborted just before
    the response write — the server-side view of a client that died
    mid-solve (the orphan-completion path).

Scheduling is either *occurrence-keyed* (the N-th time the site is
consulted in this process fires — natural for sequential supervised
solves) or *index-keyed* (fires for specific task indices, and only on
a task's first attempt — natural for pool tasks, where retries land in
fresh worker processes whose occurrence counters restart).  Plans
travel to pool workers inside task payloads, so the schedule is
deterministic under ``fork``, ``forkserver`` and ``spawn`` alike.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Iterator

from ..obs.logsetup import get_logger
from ..obs.metrics import METRICS

logger = get_logger(__name__)

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "chaos_plan",
    "install_faults",
    "clear_faults",
    "active_plan",
    "injected_faults",
    "maybe_fire",
    "SITE_SOLVE_RAISE",
    "SITE_SOLVE_HANG",
    "SITE_WORKER_EXIT",
    "SITE_SERVE_QUEUE_FULL",
    "SITE_SERVE_SLOW_SOLVE",
    "SITE_SERVE_CLIENT_DISCONNECT",
]

SITE_SOLVE_RAISE = "solve.raise"
SITE_SOLVE_HANG = "solve.hang"
SITE_WORKER_EXIT = "worker.exit"
SITE_SERVE_QUEUE_FULL = "serve.queue_full"
SITE_SERVE_SLOW_SOLVE = "serve.slow_solve"
SITE_SERVE_CLIENT_DISCONNECT = "serve.client_disconnect"

_SITES = (
    SITE_SOLVE_RAISE,
    SITE_SOLVE_HANG,
    SITE_WORKER_EXIT,
    SITE_SERVE_QUEUE_FULL,
    SITE_SERVE_SLOW_SOLVE,
    SITE_SERVE_CLIENT_DISCONNECT,
)

#: Exit status used by injected worker deaths; tests can recognise it.
WORKER_EXIT_STATUS = 113


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure point.

    ``hits`` are the occurrence numbers (``key="occurrence"``, counted
    per process from 0) or task indices (``key="index"``) at which the
    site fires.  Index-keyed specs fire only on ``attempt == 0`` so a
    re-queued task succeeds — retries of a pool task run in fresh
    worker processes where an occurrence counter could not express
    "fire once".
    """

    site: str
    hits: frozenset[int]
    key: str = "occurrence"
    hang_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r}; pick from {_SITES}")
        if self.key not in ("occurrence", "index"):
            raise ValueError("key must be 'occurrence' or 'index'")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        object.__setattr__(self, "hits", frozenset(int(h) for h in self.hits))


@dataclass
class FaultPlan:
    """A set of :class:`FaultSpec` plus per-process occurrence counters.

    Picklable (counters reset on unpickle via ``__reduce__`` not being
    needed — workers install a fresh copy, and occurrence counters are
    deliberately process-local).
    """

    specs: tuple[FaultSpec, ...] = ()
    _occurrences: dict[str, int] = field(default_factory=dict, repr=False)

    def __getstate__(self) -> dict:
        return {"specs": self.specs}

    def __setstate__(self, state: dict) -> None:
        self.specs = state["specs"]
        self._occurrences = {}

    def spec_for(self, site: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def should_fire(self, site: str, index: int | None, attempt: int) -> FaultSpec | None:
        """Consume one consultation of ``site``; the firing spec or None."""
        spec = self.spec_for(site)
        if spec is None:
            return None
        if spec.key == "index":
            if index is None:
                return None
            return spec if (index in spec.hits and attempt == 0) else None
        occurrence = self._occurrences.get(site, 0)
        self._occurrences[site] = occurrence + 1
        return spec if occurrence in spec.hits else None


def chaos_plan(
    seed: int,
    num_tasks: int,
    hang_seconds: float = 1.0,
    kill_worker: bool = True,
    hang_solve: bool = True,
) -> FaultPlan:
    """The standard chaos schedule: one worker kill + one solver hang.

    The killed task index and the hanging solve occurrence are drawn
    deterministically from ``seed``, so a chaos run is reproducible
    bit for bit.
    """
    if num_tasks < 1:
        raise ValueError("need at least one task to schedule faults over")
    rng = Random(seed)
    specs: list[FaultSpec] = []
    if kill_worker:
        specs.append(
            FaultSpec(
                site=SITE_WORKER_EXIT,
                hits=frozenset({rng.randrange(num_tasks)}),
                key="index",
            )
        )
    if hang_solve:
        specs.append(
            FaultSpec(
                site=SITE_SOLVE_HANG,
                hits=frozenset({rng.randrange(num_tasks)}),
                key="occurrence",
                hang_seconds=hang_seconds,
            )
        )
    return FaultPlan(specs=tuple(specs))


#: The process-wide installed plan (None = injection disabled).
_ACTIVE: FaultPlan | None = None


def install_faults(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear_faults() -> None:
    """Disable fault injection in this process."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` within a scope, restoring the previous plan after."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def maybe_fire(site: str, index: int | None = None, attempt: int = 0) -> None:
    """Consult the installed plan at ``site``; act if scheduled.

    No-op (one global read) when no plan is installed.  Actions:
    ``solve.hang`` / ``serve.slow_solve`` sleep ``hang_seconds``,
    ``worker.exit`` terminates the process with
    :data:`WORKER_EXIT_STATUS` — bypassing cleanup handlers, exactly
    like a SIGKILL would — and every other site raises
    :class:`InjectedFault`.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.should_fire(site, index, attempt)
    if spec is None:
        return
    METRICS.increment(f"faults.injected.{site}")
    logger.warning(
        "injected fault at %s (index=%s, attempt=%d)", site, index, attempt
    )
    if site == SITE_WORKER_EXIT:
        os._exit(WORKER_EXIT_STATUS)
    if site in (SITE_SOLVE_HANG, SITE_SERVE_SLOW_SOLVE):
        time.sleep(spec.hang_seconds)
        return
    raise InjectedFault(f"injected fault at {site}")
