"""Tests for hierarchical spans (repro.obs.spans) and pool stitching.

The cross-process cases are the point of the module: a pooled
``solve_batch`` under ``collecting_spans`` must
produce ONE trace whose worker-side spans parent correctly into the
dispatching span, and worker metrics deltas must merge back so the
parent's counters match a single-process run exactly — across both
``fork`` and ``forkserver`` start methods, and through a worker crash.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro import SamplingProblem, solve_batch
from repro.core.batch import solve_theta_sweep
from repro.obs import (
    Span,
    SpanRecorder,
    collecting_metrics,
    collecting_spans,
    current_span_context,
    record_span,
    render_span_tree,
    span,
    spans_active,
    summarize_spans,
    using_span_context,
)
from repro.resilience.faults import (
    SITE_WORKER_EXIT,
    FaultPlan,
    FaultSpec,
    clear_faults,
    injected_faults,
)

from conftest import make_random_problem


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


def _start_methods() -> list[str]:
    available = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "forkserver") if m in available]


def _by_name(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


class TestSpanBasics:
    def test_disabled_by_default(self):
        assert not spans_active()
        with span("noop", irrelevant=1) as scope:
            pass
        # The null span swallows set() too.
        scope.set(key="value")

    def test_nesting_parents_correctly(self):
        with collecting_spans("t") as recorder:
            with span("outer"):
                with span("inner", depth=1):
                    pass
        spans = recorder.spans
        assert [s.name for s in spans] == ["outer", "inner"]
        outer, inner = spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.trace_id == outer.trace_id == recorder.trace_id
        assert inner.attributes["depth"] == 1
        assert all(s.status == "ok" for s in spans)
        assert all(s.pid == os.getpid() for s in spans)

    def test_exception_marks_error_status(self):
        with collecting_spans("t") as recorder:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (doomed,) = recorder.spans
        assert doomed.status == "error"
        assert doomed.attributes["error"] == "ValueError"

    def test_record_span_posthoc_parents_under_open_span(self):
        with collecting_spans("t") as recorder:
            with span("parent"):
                record_span("leaf", duration_s=0.5, detail="x")
        # Note: .spans sorts by start time, and the post-hoc leaf
        # back-dates its start by its duration — look up by name.
        parent = _by_name(recorder.spans, "parent")[0]
        leaf = _by_name(recorder.spans, "leaf")[0]
        assert leaf.parent_id == parent.span_id
        assert leaf.duration_s == pytest.approx(0.5)
        assert leaf.attributes["detail"] == "x"

    def test_record_span_noop_when_disabled(self):
        record_span("nowhere", duration_s=1.0)  # must not raise

    def test_empty_recorder_still_assigns_trace_ids(self):
        # SpanRecorder defines __len__, so an empty one is falsy; the
        # live-span path must still pick up its trace id.
        with collecting_spans("t") as recorder:
            assert len(recorder) == 0
            with span("first"):
                pass
        assert recorder.spans[0].trace_id == recorder.trace_id

    def test_solver_emits_span(self):
        problem = make_random_problem(5)
        from repro.core import solve_gradient_projection

        with collecting_spans("t") as recorder:
            solve_gradient_projection(problem)
        (gp,) = _by_name(recorder.spans, "solver.gp")
        assert gp.attributes["converged"] is True
        assert gp.duration_s > 0


class TestContextPropagation:
    def test_current_context_round_trips(self):
        with collecting_spans("t") as recorder:
            with span("outer"):
                context = current_span_context()
                assert context["trace_id"] == recorder.trace_id

    def test_no_context_when_disabled(self):
        assert current_span_context() is None

    def test_using_span_context_none_is_noop(self):
        with using_span_context(None):
            assert not spans_active()

    def test_thread_reinstalled_context_parents_spans(self):
        # contextvars don't flow into threading.Thread by default; the
        # capture/reinstall pair is how the supervisor watchdog keeps
        # worker-thread spans inside the trace.
        with collecting_spans("t") as recorder:
            with span("outer"):
                context = current_span_context()

                def _target():
                    with using_span_context(context):
                        with span("threaded"):
                            pass

                worker = threading.Thread(target=_target)
                worker.start()
                worker.join()
        outer = _by_name(recorder.spans, "outer")[0]
        threaded = _by_name(recorder.spans, "threaded")[0]
        assert threaded.parent_id == outer.span_id
        assert threaded.trace_id == outer.trace_id


class TestRendering:
    def test_summarize_counts_errors_and_processes(self):
        with collecting_spans("t") as recorder:
            with span("a"):
                pass
            with pytest.raises(RuntimeError):
                with span("b"):
                    raise RuntimeError
        summary = summarize_spans(recorder.spans)
        assert summary["count"] == 2
        assert summary["errors"] == 1
        assert summary["processes"] == 1

    def test_render_tree_indents_children(self):
        with collecting_spans("t") as recorder:
            with span("parent"):
                with span("child"):
                    pass
        tree = render_span_tree(recorder.spans)
        lines = tree.splitlines()
        parent_line = next(l for l in lines if "parent" in l)
        child_line = next(l for l in lines if "child" in l)
        indent = len(child_line) - len(child_line.lstrip())
        assert indent > len(parent_line) - len(parent_line.lstrip())

    def test_render_empty(self):
        assert render_span_tree([]) == "(no spans)"

    def test_span_dict_round_trip(self):
        original = Span(
            trace_id="t1", span_id="s1", parent_id=None, name="n",
            start_s=1.0, duration_s=0.25, status="ok",
            attributes={"k": 1}, pid=123,
        )
        assert Span.from_dict(original.to_dict()) == original


class TestPoolStitching:
    @pytest.mark.parametrize("start_method", _start_methods())
    def test_pool_spans_merge_into_one_trace(self, start_method):
        problems = [make_random_problem(seed) for seed in (31, 32, 33, 34)]
        reference_counters = None
        with collecting_metrics() as registry:
            solve_batch(problems, processes=1)
            reference_counters = registry.snapshot()["counters"]
        with collecting_spans("pool") as recorder, \
                collecting_metrics() as registry:
            solutions = solve_batch(
                problems, processes=2, start_method=start_method
            )
            counters = registry.snapshot()["counters"]
        assert all(s.diagnostics.converged for s in solutions)

        spans = recorder.spans
        assert {s.trace_id for s in spans} == {recorder.trace_id}
        (root,) = _by_name(spans, "batch.solve_batch")
        tasks = _by_name(spans, "batch.task")
        assert len(tasks) == len(problems)
        assert all(t.parent_id == root.span_id for t in tasks)
        assert {t.attributes["index"] for t in tasks} == set(
            range(len(problems))
        )
        # Worker-side children (the solver spans) hang off the tasks.
        gp = _by_name(spans, "solver.gp")
        task_ids = {t.span_id for t in tasks}
        assert len(gp) == len(problems)
        assert all(s.parent_id in task_ids for s in gp)
        assert len({s.pid for s in spans}) >= 2  # parent + worker(s)

        # Metrics merge-back: pooled counters match the inline run for
        # the solver-side work.
        for key in ("solver.gp.solves", "solver.gp.iterations"):
            assert counters[key] == reference_counters[key]

    def test_pool_queue_wait_histogram_merges(self):
        problems = [make_random_problem(seed) for seed in (41, 42, 43)]
        with collecting_metrics() as registry:
            solve_batch(problems, processes=2)
            histograms = registry.snapshot()["histograms"]
        wait = histograms["batch.pool.queue_wait_seconds"]
        assert wait["count"] == len(problems)
        solve_hist = histograms["solver.gp.solve_seconds"]
        assert solve_hist["count"] == len(problems)

    def test_worker_crash_closes_span_as_error_without_double_count(self):
        problems = [make_random_problem(seed) for seed in (51, 52, 53, 54)]
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=SITE_WORKER_EXIT, hits=frozenset({1}), key="index"
                ),
            )
        )
        with injected_faults(plan), collecting_spans("crash") as recorder, \
                collecting_metrics() as registry:
            solutions = solve_batch(problems, processes=2)
            counters = registry.snapshot()["counters"]
        assert all(s.diagnostics.converged for s in solutions)
        assert counters["resilience.pool.broken"] >= 1

        errors = [s for s in recorder.spans if s.status == "error"]
        assert errors, "the lost task must close as an error span"
        assert all(s.name == "batch.task" for s in errors)
        # The requeued attempt merged its delta exactly once: the
        # crashed attempt's partial work never shipped (deltas ride
        # only on successful envelopes).
        assert counters["solver.gp.solves"] == len(problems)
        ok_tasks = [
            s
            for s in recorder.spans
            if s.name == "batch.task" and s.status == "ok"
        ]
        assert len(ok_tasks) == len(problems)


class TestSweepAndPoolSpans:
    def test_theta_sweep_emits_chain_spans(self, geant_problem):
        thetas = [20_000.0, 50_000.0, 100_000.0]
        with collecting_spans("sweep") as recorder:
            solve_theta_sweep(geant_problem, thetas)
        (sweep,) = _by_name(recorder.spans, "batch.theta_sweep")
        assert sweep.attributes["points"] == len(thetas)
        chain = _by_name(recorder.spans, "batch.chain.solve")
        assert len(chain) == len(thetas)
        assert all(c.parent_id == sweep.span_id for c in chain)

    def test_pooled_batch_stitches_under_the_callers_span(self):
        problems = [make_random_problem(seed) for seed in (61, 62, 63)]
        with collecting_spans("nested") as recorder:
            with span("caller"):
                solutions = solve_batch(problems, processes=2)
        assert all(s.diagnostics.converged for s in solutions)
        spans = recorder.spans
        assert {s.trace_id for s in spans} == {recorder.trace_id}
        (caller,) = _by_name(spans, "caller")
        (batch_root,) = _by_name(spans, "batch.solve_batch")
        assert batch_root.parent_id == caller.span_id
        assert batch_root.attributes["mode"] == "pool"
        tasks = _by_name(spans, "batch.task")
        assert len(tasks) == len(problems)
        assert all(t.parent_id == batch_root.span_id for t in tasks)
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )
        assert len({s.pid for s in spans}) >= 2
