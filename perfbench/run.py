"""The repository benchmark: seeded workloads, checked answers, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload backbone-cold --seed 1 --seconds 24 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``backbone-cold``
    Closed loop, one caller: cold ``solve(problem, presolve=True)`` on
    seeded paper-scale tasks (JANET on GEANT, GEANT under seeded
    gravity backgrounds, NSFNET and Abilene with seeded OD sets).
``stream-diurnal``
    Closed loop: ``StreamingController.step`` over a multi-day hourly
    diurnal trace with seeded anomalies on an 80-node Waxman task.
``serve-mix``
    Open loop against ``python -m repro serve`` in its own process:
    seeded Poisson arrivals at 5, 10 and 20 requests/s over two
    pipelined connections; hot-set repeats, new θ on resident tasks
    and new tasks (the tasks are a fixed set, sent in seeded order).

Closed-loop workloads run in a worker interpreter (``worker.py``) and
make a fixed number of ops per ``--seconds`` (``worker.OPS_PER_SECOND``),
so the time a run takes follows the program's speed; the daemon runs
as its own process through a schedule fixed in time.  Set-up time is
measured from interpreter launch to ready, three times per run, and
reported as the median.  Every answer is checked by ``checker.py``,
which never trusts the program's own certificate.

Op and request latencies, and the time ``ops_per_s`` divides by, are
reported at a reference machine speed.  The host is shared and its
speed drifts by up to ~1.6x in phases of seconds to minutes, which
made the same code's runs spread by 0.2-0.3 of their median.  So each
of these timings is scaled by ``REFERENCE_PROBE_S`` over the time of a
fixed probe kernel of the benchmark's own (``common.speed_probe``),
taken in the timing process next to the work: before each closed-loop
op (median over neighbouring ops), and in the serve generator while no
request is in flight (median over the probes near a request's due
time; generator and daemon share one CPU).  Each report records the
probe times or speed factors it used, and closed-loop reports the
median latency as timed.  Set-up time is reported as timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (``tracer.py``) and prints the
per-layer metrics with the tracing overhead and the share of op time
no span explains.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
report goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import (
    OUT_DIR,
    REFERENCE_PROBE_S,
    ROOT,
    SETUPS,
    SRC_DIR,
    calibrate,
    metric,
    tail_percentile,
    worker_env,
)

CLOSED_LOOP = ("backbone-cold", "stream-diurnal")
WORKLOADS = CLOSED_LOOP + ("serve-mix",)
#: Everything a run does must end inside this budget.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result (no result line is printed)."""


def _launch(args, extra: list[str]):
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    log = open(OUT_DIR / f"worker-{args.workload}.log", "w", encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(),
                                stdout=subprocess.PIPE, stderr=log, text=True)
    finally:
        log.close()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not line.startswith("READY "):
        _reap(proc, 10.0)
        raise BenchError(f"worker did not start: {_log_tail(args)}")
    return proc, ready, line.split()[1]


def _log_tail(args) -> str:
    with open(OUT_DIR / f"worker-{args.workload}.log", encoding="utf-8") as log:
        return log.read()[-3000:]


def _reap(proc, timeout: float) -> None:
    """Wait for a worker; kill it if it outlives ``timeout``."""
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        raise BenchError("worker ran past the run budget")
    finally:
        proc.stdout.close()


def run_closed_loop(args, deadline: float) -> dict:
    setups, digests = [], []
    for _ in range(SETUPS - 1):
        proc, ready, digest = _launch(args, ["--setup-only"])
        _reap(proc, deadline - time.perf_counter())
        setups.append(ready)
        digests.append(digest)
    out = OUT_DIR / f"worker-{args.workload}-s{args.seed}-t{args.trace}.json"
    proc, ready, digest = _launch(args, ["--out", str(out)])
    setups.append(ready)
    digests.append(digest)
    _reap(proc, deadline - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {_log_tail(args)}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_samples_s"] = setups
    result["digests"] = digests
    return result


def closed_loop_report(args, result: dict) -> dict:
    run = result["run"]
    latencies = run["latencies_s"]
    tail = tail_percentile(latencies)
    same_inputs = len(set(result["digests"])) == 1
    cross = run["cross_check"]
    report = {
        "planned": run["planned"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "correct": bool(same_inputs and run["wrong"] == 0
                        and cross["mismatches"] == 0),
        "same_seed_same_inputs": same_inputs,
        "digest": result["digests"][-1],
        "cross_check": cross,
        "tail": tail,
        "setup_samples_s": result["setup_samples_s"],
        "instances_covered": len(run["instances"]),
        "speed": {"raw_p50_ms": run["raw_p50_s"] * 1e3,
                  "probe_p50_ms": (run["probe_p50_s"] or 0.0) * 1e3},
    }
    if args.trace:
        report["metrics"] = result["per_layer"]
        report["layer_self_ms"] = result["layer_self_ms"]
        report["spans"] = result["spans"]
    else:
        report["metrics"] = {
            "setup_s": metric(statistics.median(result["setup_samples_s"]), "s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": metric(tail["value"] * 1e3, "ms"),
            "ops_per_s": metric(run["certified"] / run["busy_s"], "1/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    return report


def serve_report(args) -> dict:
    import serve_mix
    import tracer

    raw = serve_mix.run(args.seed, args.seconds, trace=bool(args.trace))
    if not args.trace:
        metrics, extra = serve_mix.end_to_end(raw)
        report = _serve_tally(raw, raw["steps"])
        report.update(metrics=metrics, tail=extra["tail"],
                      serve_max_rps=extra["serve_max_rps"],
                      setup_samples_s=raw["setup_samples_s"],
                      daemon_counters=raw["counters"])
        return report
    plain, traced = raw["plain"], raw["traced"]
    step_plain, step_traced = plain["steps"][0], traced["steps"][0]
    table, counts = tracer.SpanTable.load(traced["spans_path"])
    ops = step_traced["attempted"]
    client_s = sum(step_traced["latencies_s"])
    plain_s = sum(step_plain["latencies_s"])
    in_request_ms = sum(table.total_ms(name) for name in (
        "protocol.decode", "session.prepare", "cache.get", "session.execute"))
    counters = traced["counters"]
    extra = {
        "cache.evictions": counters.get("serve.cache.evicted", 0),
        "admission.shed": counters.get("serve.admission.shed", 0)
        + counters.get("serve.admission.conn_capped", 0),
        "serve.coalesced": counters.get("serve.request.coalesced", 0),
        "serve.batch_fanouts": counters.get("serve.batch.grouped", 0),
        "admission.wait_ms": max(
            0.0, step_traced["server_latency_s"] * 1e3 - in_request_ms),
        "trace.overhead_frac": (client_s / len(step_traced["latencies_s"]))
        / (plain_s / len(step_plain["latencies_s"])) - 1.0,
        "trace.unexplained_frac": max(0.0, 1.0 - table.root_ms() / 1e3
                                      / client_s) if client_s else 0.0,
    }
    report = _serve_tally(raw, [step_plain, step_traced])
    report.update(metrics=tracer.per_layer_metrics(table, counts, ops, extra),
                  layer_self_ms=table.layer_self_ms(),
                  spans=int(len(table.rows)), tail=step_traced["tail"])
    return report


def _serve_tally(raw: dict, steps: list[dict]) -> dict:
    """Attempts, failures by reason and the correctness verdict of steps."""
    failures: dict[str, int] = {}
    for step in steps:
        for reason, count in step["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    return {
        "attempted": sum(step["attempted"] for step in steps),
        "failed": sum(step["failed"] for step in steps),
        "failures": failures,
        "correct": (sum(step["wrong"] for step in steps) == 0
                    and raw["same_seed_same_inputs"]),
        "same_seed_same_inputs": raw["same_seed_same_inputs"],
        "digest": raw["digest"],
        "steps": [{k: v for k, v in step.items() if k != "latencies_s"}
                  for step in steps],
    }


def print_report(args, report: dict, calibration: dict) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"inputs digest {report['digest']} "
          f"(same seed, same inputs: {report['same_seed_same_inputs']})")
    failed_frac = report["failed"] / max(report["attempted"], 1)
    print(f"attempted {report['attempted']}  failed {report['failed']}  "
          f"failed_frac {failed_frac:.4f} frac  reasons {report['failures']}")
    if report.get("planned", 0) > report["attempted"]:
        print(f"capped: {report['attempted']} of {report['planned']} "
              "planned ops ran before the time cap")
    if "cross_check" in report and report["cross_check"]["checked"]:
        print(f"checker cross-check vs reference kernels: {report['cross_check']}")
    if not args.trace:
        tail = report["tail"]
        print(f"latency_tail_ms is p{tail['percentile']:.2f} of "
              f"{tail['samples']} samples ({tail['beyond']} beyond)")
        print(f"setup samples (s): "
              + ", ".join(f"{s:.3f}" for s in report["setup_samples_s"]))
    if report.get("speed", {}).get("probe_p50_ms"):
        print(f"machine speed: probe p50 {report['speed']['probe_p50_ms']:.4f}"
              f" ms (reference {REFERENCE_PROBE_S * 1e3:g} ms); latency p50 "
              f"as timed {report['speed']['raw_p50_ms']:.3f} ms")
    if "serve_max_rps" in report:
        print(f"serve_max_rps {report['serve_max_rps']:g} 1/s "
              f"(tail <= {500} ms, no failures, no growing backlog)")
    for step in report.get("steps", []):
        print(f"  step {step['rate']:g} rps: n={step['attempted']} "
              f"failed={step['failed']} valid={step['valid']} "
              f"p50={(step['p50_s'] or 0) * 1e3:.2f} ms "
              f"tail={(step['tail'] or {}).get('value', 0) * 1e3:.2f} ms "
              f"lateness p99/max={step['lateness_p99_ms']:.2f}/"
              f"{step['lateness_max_ms']:.2f} ms "
              f"backlog {step['backlog_start']}->{step['backlog_end']} "
              f"daemon cpu {step['daemon_cpu_s']:.2f} s "
              f"speed factor {step['speed_factor']:.3f} "
              f"classes {_shares(step['class_share'])} "
              f"cache {_shares(step['cache_share'])} "
              f"class p50 ms {_shares(step['class_p50_ms'])}")
    print(f"calibration (ungated): {calibration}")
    units = None
    if args.trace:
        import tracer
        units = tracer.PER_LAYER_UNITS
    for name, value in report["metrics"].items():
        if isinstance(value, dict):
            print(f"{name} {value['value']:.6g} {value['unit']}")
        else:
            print(f"{name} {value:.6g} {units[name]}")


def _shares(shares: dict) -> str:
    return " ".join(f"{k}={v:.2f}" for k, v in sorted(shares.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC_DIR / 'repro'} is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    # Relative paths (the daemon's Unix socket above all, whose path is
    # limited to 107 bytes) resolve against the checkout root.
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC_DIR))
    try:
        if args.workload == "serve-mix":
            report = serve_report(args)
        else:
            report = closed_loop_report(args, run_closed_loop(args, deadline))
    except RuntimeError as exc:  # BenchError, or the daemon failing
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calibration = calibrate()
    report["calibration"] = calibration
    report["seed"] = args.seed
    path = OUT_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    print_report(args, report, calibration)
    if args.trace:
        import tracer
        metrics = {name: metric(value, tracer.PER_LAYER_UNITS[name])
                   for name, value in report["metrics"].items()}
    else:
        metrics = report["metrics"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
