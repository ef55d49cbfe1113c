"""Tests for the deterministic fault-injection harness.

The whole value of :mod:`repro.resilience.faults` is reproducibility:
the same seed must always produce the same schedule, plans must travel
to pool workers without dragging parent-side occurrence counters with
them, and an uninstalled harness must be a no-op.
"""

import pickle

import pytest

from repro.resilience.faults import (
    SITE_SOLVE_HANG,
    SITE_SOLVE_RAISE,
    SITE_WORKER_EXIT,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    chaos_plan,
    clear_faults,
    injected_faults,
    install_faults,
    maybe_fire,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="solve.explode", hits=frozenset({0}))

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="occurrence"):
            FaultSpec(site=SITE_SOLVE_RAISE, hits=frozenset({0}), key="bogus")

    def test_rejects_nonpositive_hang(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultSpec(
                site=SITE_SOLVE_HANG, hits=frozenset({0}), hang_seconds=0.0
            )


class TestScheduling:
    def test_occurrence_keyed_fires_on_nth_consult(self):
        plan = FaultPlan(
            specs=(FaultSpec(site=SITE_SOLVE_RAISE, hits=frozenset({2})),)
        )
        fires = [
            plan.should_fire(SITE_SOLVE_RAISE, None, 0) is not None
            for _ in range(4)
        ]
        assert fires == [False, False, True, False]

    def test_index_keyed_fires_only_on_first_attempt(self):
        spec = FaultSpec(
            site=SITE_WORKER_EXIT, hits=frozenset({3}), key="index"
        )
        plan = FaultPlan(specs=(spec,))
        assert plan.should_fire(SITE_WORKER_EXIT, 3, 0) is spec
        # a re-queued task (attempt > 0) must succeed
        assert plan.should_fire(SITE_WORKER_EXIT, 3, 1) is None
        assert plan.should_fire(SITE_WORKER_EXIT, 2, 0) is None
        # index-keyed consults never advance an occurrence counter
        assert plan.should_fire(SITE_WORKER_EXIT, 3, 0) is spec

    def test_chaos_plan_is_deterministic(self):
        assert chaos_plan(42, 10).specs == chaos_plan(42, 10).specs
        assert chaos_plan(42, 10).specs != chaos_plan(43, 10).specs

    def test_chaos_plan_schedules_kill_and_hang(self):
        plan = chaos_plan(0, 8)
        sites = {spec.site for spec in plan.specs}
        assert sites == {SITE_WORKER_EXIT, SITE_SOLVE_HANG}
        kill = plan.spec_for(SITE_WORKER_EXIT)
        assert kill.key == "index"
        assert all(0 <= hit < 8 for hit in kill.hits)

    def test_chaos_plan_needs_a_task(self):
        with pytest.raises(ValueError, match="at least one task"):
            chaos_plan(0, 0)


class TestPickling:
    def test_unpickled_plan_restarts_occurrence_counters(self):
        plan = FaultPlan(
            specs=(FaultSpec(site=SITE_SOLVE_RAISE, hits=frozenset({0})),)
        )
        assert plan.should_fire(SITE_SOLVE_RAISE, None, 0) is not None
        assert plan.should_fire(SITE_SOLVE_RAISE, None, 0) is None
        clone = pickle.loads(pickle.dumps(plan))
        # the clone's occurrence 0 has not been consumed
        assert clone.should_fire(SITE_SOLVE_RAISE, None, 0) is not None
        # and the original's state is untouched by the round trip
        assert plan.should_fire(SITE_SOLVE_RAISE, None, 0) is None


class TestInstallation:
    def test_maybe_fire_is_noop_without_plan(self):
        maybe_fire(SITE_SOLVE_RAISE)
        maybe_fire(SITE_WORKER_EXIT)

    def test_maybe_fire_raises_injected_fault(self):
        plan = FaultPlan(
            specs=(FaultSpec(site=SITE_SOLVE_RAISE, hits=frozenset({0})),)
        )
        install_faults(plan)
        with pytest.raises(InjectedFault, match="solve.raise"):
            maybe_fire(SITE_SOLVE_RAISE)

    def test_context_manager_restores_previous_plan(self):
        outer = FaultPlan()
        install_faults(outer)
        inner = FaultPlan()
        with injected_faults(inner):
            assert active_plan() is inner
        assert active_plan() is outer

    def test_hang_sleeps_instead_of_raising(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=SITE_SOLVE_HANG,
                    hits=frozenset({0}),
                    hang_seconds=0.01,
                ),
            )
        )
        with injected_faults(plan):
            maybe_fire(SITE_SOLVE_HANG)  # returns after the nap
