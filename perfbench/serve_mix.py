"""``serve-mix``: an open loop against the solver daemon in its own process.

One generator thread sends seeded Poisson arrivals over two pipelined
Unix-socket connections at a fixed ladder of rates.  The request mix
is stratified — exact class counts per rate step, in seeded order:

* ``hot``: repeats of a small hot set, answered from the result cache;
* ``warm``: a new θ near a resident task's operating point, a
  warm-chain miss;
* ``new``: a new seeded task — task build, cold solve and LRU churn.

Each request is timed from when it was due, not from when it was sent,
so a stall in the generator or the daemon counts against every request
behind it; the generator's own lateness is recorded and a step whose
generator lagged past :data:`LATENESS_P99_BOUND_S` is marked invalid.
Every answer is checked independently after the run: the answer must
be tier ``exact`` and converged, its rates must pass the checker on a
problem the benchmark built inline, and its objective must match an
inline reference solve made before the daemon starts.

Timings are scaled to the reference machine speed by speed probes the
generator takes while no request is in flight (``common.speed_probe``);
the generator and the daemon share one CPU, so the probes time the CPU
the daemon runs on.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checker
import inputs
from common import (
    OUT_DIR,
    ROOT,
    SETUPS,
    TAIL_BEYOND,
    InputDigest,
    REFERENCE_PROBE_S,
    cpu_seconds_of,
    metric,
    peak_rss_mb_of,
    speed_probe,
    tail_percentile,
    worker_env,
)
from repro import (
    GradientProjectionOptions,
    SamplingProblem,
    janet_task,
    make_task,
    solve,
)
from repro.routing import ODPair
from repro.topology import abilene_network, geant_network, nsfnet_network

#: Offered rates (requests/s) and each step's share of ``--seconds``.
RATES = (5.0, 10.0, 20.0)
STEP_SHARES = (0.1, 0.8, 0.1)
NOMINAL_RATE = 10.0
#: Request classes and their exact share of every step.  The tail
#: latency is the 11th-slowest request of the nominal step: with
#: new-task requests, the slowest class, near 10 of them the tail would
#: flip between classes from seed to seed, so they are kept well above
#: that; hot repeats stay under half so the median is a cache miss, the
#: request that does work.
MIX = (("hot", 0.45), ("warm", 0.40), ("new", 0.15))
HOT_SET = 8
#: The tail latency limit that defines ``serve_max_rps``.
TAIL_LIMIT_S = 0.5
#: A step whose generator ran later than this at p99 is not counted.
LATENESS_P99_BOUND_S = 0.02
CONNECTIONS = 2
#: Seed of the daemon's tasks, the same in every run (see
#: :func:`resident_tasks` and :func:`new_tasks`).
TASK_SEED = 1306
#: Least time between two speed probes of the generator; a probe is
#: only taken while no request is in flight, so it delays no response.
PROBE_EVERY_S = 0.2
#: A request's timing is scaled by the probes this close to its due time.
PROBE_WINDOW_S = 3.0
DAEMON_START_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# seeded schedule
# ----------------------------------------------------------------------

@dataclass
class Request:
    rid: str
    kind: str
    task: dict
    theta: float
    due: float = 0.0          # seconds after the step starts
    conn: int = 0

    def frame(self) -> bytes:
        params = dict(self.task, theta=self.theta)
        return (json.dumps({"op": "solve", "id": self.rid, "params": params},
                           sort_keys=True) + "\n").encode("utf-8")

    def key(self) -> str:
        return json.dumps([self.task, self.theta], sort_keys=True)


@dataclass
class Schedule:
    resident: list
    hot: list
    steps: list = field(default_factory=list)   # (rate, duration, [Request])

    def digest(self) -> str:
        digest = InputDigest()
        for request in self.hot:
            digest.add(request.frame())
        for rate, duration, requests in self.steps:
            digest.add([rate, duration])
            for request in requests:
                digest.add(request.frame(), [request.due, request.conn])
        return digest.hexdigest()


def _od_task(rng, topology: str, nodes: list[str], low: int, high: int) -> dict:
    """The daemon's JSON task spec of a seeded OD set on ``topology``."""
    pairs, sizes = inputs.draw_od_pairs(rng, nodes, low, high)
    return {"topology": topology,
            "od": [[a, b, round(float(pps), 3)]
                   for (a, b), pps in zip(pairs, sizes)],
            "background": 500_000.0, "seed": int(rng.integers(1 << 31))}


def resident_tasks(node_names: dict) -> tuple[list, list]:
    """The fixed resident tasks and the operating point θ of each.

    Drawn from :data:`TASK_SEED`, not from the run's seed, like
    :func:`new_tasks`: how long a warm re-solve near an operating point
    takes varies severalfold between draws, and a seed that drew a hard
    resident task moved the whole warm class, and with it the median
    and the tail.  The run's seed draws the θ of each request near
    these points.
    """
    rng = np.random.default_rng([TASK_SEED, 0])
    resident = [
        {"topology": "geant", "seed": int(rng.integers(1 << 31))},
        _od_task(rng, "nsfnet", node_names["nsfnet"], 10, 40),
        _od_task(rng, "abilene", node_names["abilene"], 10, 40),
        _od_task(rng, "geant", node_names["geant"], 10, 20),
    ]
    return resident, inputs.draw_thetas(rng, len(resident))


def new_tasks(step: int, count: int, node_names: dict) -> list:
    """The fixed new tasks of rate step ``step``: (task, θ) pairs.

    A new task is a 10-pair OD set on GEANT at θ within a factor of two
    of the paper's 100 000 packets.  They are drawn from
    :data:`TASK_SEED`, not from the run's seed: the nominal step's
    tail latency is set by its ~30 cold solves, whose times vary
    severalfold between OD draws, so per-seed draws made the runs
    compare draws rather than the daemon.  The seed still sets their
    order and arrival times, and every other request.
    """
    rng = np.random.default_rng([TASK_SEED, 1 + step])
    return [(_od_task(rng, "geant", node_names["geant"], 10, 10),
             float(1e5 * np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
            for _ in range(count)]


def _near(rng, theta: float) -> float:
    """A new θ within ±25% of a resident task's operating point."""
    return float(theta * np.exp(rng.uniform(np.log(0.75), np.log(1.25))))


def build_schedule(seed: int, seconds: float, node_names: dict) -> Schedule:
    """All requests of a run: the fixed tasks, in an order, at θ and at
    times drawn from ``seed``."""
    rng = np.random.default_rng([seed, 4])
    # Each resident task has an operating point; its hot set and its
    # warm-chain misses sit near it, as an operator re-tuning θ would.
    resident, points = resident_tasks(node_names)
    hot = [Request(f"h{i}", "hot", resident[i % len(resident)],
                   _near(rng, points[i % len(resident)]))
           for i in range(HOT_SET)]
    schedule = Schedule(resident=resident, hot=hot)
    counter = 0
    for step, (rate, share) in enumerate(zip(RATES, STEP_SHARES)):
        duration = seconds * share
        n = max(1, int(round(rate * duration)))
        counts = {kind: int(round(frac * n)) for kind, frac in MIX}
        counts["warm"] = n - counts["hot"] - counts["new"]
        kinds = [k for k, c in counts.items() for _ in range(c)]
        rng.shuffle(kinds)
        fresh = new_tasks(step, counts["new"], node_names)
        rng.shuffle(fresh)
        # A Poisson process conditioned on n arrivals in the window:
        # sorted uniform arrival times.
        dues = np.sort(rng.uniform(0.0, duration, size=n))
        requests = []
        for kind, due in zip(kinds, dues):
            counter += 1
            if kind == "hot":
                base = hot[int(rng.integers(len(hot)))]
                task, theta = base.task, base.theta
            elif kind == "warm":
                which = int(rng.integers(len(resident)))
                task, theta = resident[which], _near(rng, points[which])
            else:
                task, theta = fresh.pop()
            requests.append(Request(f"r{counter}", kind, task, theta,
                                    float(due), counter % CONNECTIONS))
        schedule.steps.append((rate, duration, requests))
    return schedule


# ----------------------------------------------------------------------
# inline references
# ----------------------------------------------------------------------

#: Reference solves run to a certified optimum: hard seeded GEANT
#: backgrounds at low θ need more than the default 2000 iterations, and
#: a reference stopped there is worse than a right answer.
REFERENCE_OPTIONS = GradientProjectionOptions(
    max_iterations=10**9, wall_clock_limit_s=60.0)


class References:
    """Inline problems and certified reference solves for every distinct
    request."""

    def __init__(self) -> None:
        self._networks = {"geant": geant_network, "nsfnet": nsfnet_network,
                          "abilene": abilene_network}
        self._tasks: dict = {}
        self.entries: dict = {}

    def node_names(self) -> dict:
        return {name: build().node_names for name, build in self._networks.items()}

    def _task(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._tasks:
            if spec.get("od"):
                network = self._networks[spec["topology"]]()
                task = make_task(
                    network, [ODPair(o, d) for o, d, _ in spec["od"]],
                    [pps for _, _, pps in spec["od"]],
                    background_pps=spec.get("background") or 0.0,
                    seed=spec.get("seed"),
                )
            else:
                task = janet_task(seed=spec.get("seed"))
            names = [link.name for link in task.network.links]
            if len(set(names)) != len(names):
                raise RuntimeError("link names are not unique")
            self._tasks[key] = (task, {n: i for i, n in enumerate(names)})
        return self._tasks[key]

    def add(self, request: Request) -> None:
        key = request.key()
        if key in self.entries:
            return
        task, index = self._task(request.task)
        problem = SamplingProblem.from_task(task, request.theta)
        reference = solve(problem, presolve=True, options=REFERENCE_OPTIONS)
        if not reference.diagnostics.converged:
            raise RuntimeError(f"reference solve of {key} did not converge")
        self.entries[key] = {
            "data": checker.ProblemData.from_problem(problem),
            "index": index,
            "objective": float(reference.objective_value),
        }


# ----------------------------------------------------------------------
# daemon lifecycle
# ----------------------------------------------------------------------

def _rpc(path: str, op: str, timeout: float = 10.0) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall((json.dumps({"op": op, "id": op}) + "\n").encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buffer += chunk
    return json.loads(buffer)


class Daemon:
    """``python -m repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, name: str, traced: bool = False) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        # Relative to the checkout root, the working directory of both
        # ends: a Unix socket path may not exceed 107 bytes.
        self.path = f"{OUT_DIR.name}/{name}.sock"
        self.spans_path = OUT_DIR / f"{name}-spans.npz"
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "serve_daemon.py"),
                    "--socket", self.path, "--spans", str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--socket", self.path]
        self.log_path = OUT_DIR / f"{name}.log"
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(),
                                         stdout=subprocess.DEVNULL, stderr=log)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited during start: "
                    + self.log_path.read_text(errors="replace")[-2000:])
            try:
                if _rpc(self.path, "ping", 2.0).get("ok"):
                    break
            except OSError:
                pass
            if time.perf_counter() - start > DAEMON_START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def stats(self) -> dict:
        return _rpc(self.path, "stats")["result"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                _rpc(self.path, "shutdown")
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# open-loop generator
# ----------------------------------------------------------------------

def _closed(path: str, requests: list[Request]) -> list[dict]:
    """Send requests one at a time (untimed warm-up); return responses."""
    out = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        reader = sock.makefile("rb")
        for request in requests:
            sock.sendall(request.frame())
            out.append(json.loads(reader.readline()))
        reader.close()
    return out


def drive(path: str, requests: list[Request], duration: float) -> dict:
    """Send ``requests`` at their due times; collect timed responses."""
    socks = []
    selector = selectors.DefaultSelector()
    for i in range(CONNECTIONS):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, i)
        socks.append(sock)
    buffers = [b""] * CONNECTIONS
    responses: dict[str, tuple[float, dict]] = {}
    lateness = []
    probes = []
    next_probe = 0.0
    sent = 0
    start = time.perf_counter()
    backlog_start = 0
    backlog_end = None
    # Requests still unanswered this long after the step are failures.
    hard_stop = start + duration + 30.0
    try:
        while len(responses) < len(requests):
            now = time.perf_counter()
            if now > hard_stop:
                break
            while sent < len(requests) and start + requests[sent].due <= now:
                request = requests[sent]
                sock = socks[request.conn]
                sock.setblocking(True)
                sock.sendall(request.frame())
                sock.setblocking(False)
                lateness.append(time.perf_counter() - start - request.due)
                sent += 1
                now = time.perf_counter()
            if backlog_end is None and now - start >= duration:
                backlog_end = sent - len(responses)
            if (now >= next_probe and sent == len(responses)
                    and (sent == len(requests)
                         or start + requests[sent].due - now > 0.005)):
                probes.append((now - start, speed_probe()))
                next_probe = now + PROBE_EVERY_S
                continue
            wait = 0.05
            if sent < len(requests):
                wait = max(0.0, min(wait, start + requests[sent].due - now))
            if backlog_end is None:
                wait = max(0.0, min(wait, start + duration - now))
            for key, _ in selector.select(wait):
                chunk = key.fileobj.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("daemon closed a connection")
                done = time.perf_counter()
                data = buffers[key.data] + chunk
                *lines, buffers[key.data] = data.split(b"\n")
                for line in lines:
                    message = json.loads(line)
                    responses[message.get("id")] = (done, message)
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    if backlog_end is None:
        backlog_end = 0
    # Timings at the reference machine speed (see ``common.speed_probe``):
    # a request's factor comes from the probes taken near its due time.
    when = np.array([t for t, _ in probes] or [0.0])
    took = np.array([v for _, v in probes] or [speed_probe()])
    results = []
    for request in requests:
        done, message = responses.get(request.rid, (None, None))
        near = took[np.abs(when - request.due) <= PROBE_WINDOW_S]
        factor = REFERENCE_PROBE_S / np.median(near if near.size else took)
        results.append({
            "request": request,
            "latency_s": None if done is None
            else (done - start - request.due) * factor,
            "response": message,
        })
    late = sorted(lateness) or [0.0]
    return {
        "speed_factor": REFERENCE_PROBE_S / float(np.median(took)),
        "results": results,
        "lateness_p99_s": late[min(len(late) - 1, int(0.99 * len(late)))],
        "lateness_max_s": late[-1],
        "backlog_start": backlog_start,
        "backlog_end": backlog_end,
    }


# ----------------------------------------------------------------------
# checking and metrics
# ----------------------------------------------------------------------

def check_result(item: dict, refs: References) -> str:
    """``ok`` or the reason this answer counts as failed."""
    message = item["response"]
    if message is None:
        return "no-response"
    if not message.get("ok"):
        return f"refused:{message.get('kind')}"
    result = message["result"]
    if result.get("tier") != "exact":
        return f"tier:{result.get('tier')}"
    if not result.get("converged"):
        return "uncertified"
    entry = refs.entries[item["request"].key()]
    rates = np.zeros(len(entry["index"]))
    for name, rate in result["monitors"].items():
        rates[entry["index"][name]] = rate
    verdict = checker.check(entry["data"], rates)
    if not verdict.ok:
        return f"wrong:{verdict.reason}"
    if not checker.objectives_agree(result["objective"], entry["objective"]):
        return "wrong:objective"
    return "ok"


def step_summary(rate: float, duration: float, outcome: dict,
                 refs: References) -> dict:
    verdicts = [check_result(item, refs) for item in outcome["results"]]
    factor = outcome["speed_factor"]
    latencies = [item["latency_s"] for item in outcome["results"]
                 if item["latency_s"] is not None]
    tally: dict[str, int] = {}
    for verdict in verdicts:
        if verdict != "ok":
            tally[verdict] = tally.get(verdict, 0) + 1
    classes: dict[str, int] = {}
    cache_states: dict[str, int] = {}
    server_latency = 0.0
    for item in outcome["results"]:
        classes[item["request"].kind] = classes.get(item["request"].kind, 0) + 1
        message = item["response"] or {}
        state = message.get("cache", "error")
        cache_states[state] = cache_states.get(state, 0) + 1
        server_latency += float(message.get("latency_s", 0.0))
    by_class: dict[str, list] = {}
    for item in outcome["results"]:
        if item["latency_s"] is not None:
            by_class.setdefault(item["request"].kind, []).append(
                item["latency_s"])
    n = len(verdicts)
    ok = verdicts.count("ok")
    tail = tail_percentile(latencies) if latencies else None
    valid = outcome["lateness_p99_s"] <= LATENESS_P99_BOUND_S
    growing = outcome["backlog_end"] - outcome["backlog_start"] > 0.5 * rate
    return {
        "rate": rate,
        "duration_s": duration,
        "attempted": n,
        "certified": ok,
        "failed": n - ok,
        "failures": tally,
        "wrong": sum(v.startswith("wrong") for v in verdicts),
        "p50_s": float(np.median(latencies)) if latencies else None,
        "tail": tail,
        "daemon_cpu_s": outcome["daemon_cpu_s"] * factor,
        "speed_factor": factor,
        "class_share": {k: v / n for k, v in classes.items()},
        "class_p50_ms": {k: float(np.median(v)) * 1e3
                         for k, v in by_class.items()},
        "cache_share": {k: v / n for k, v in cache_states.items()},
        "lateness_p99_ms": outcome["lateness_p99_s"] * 1e3,
        "lateness_max_ms": outcome["lateness_max_s"] * 1e3,
        "backlog_start": outcome["backlog_start"],
        "backlog_end": outcome["backlog_end"],
        "growing_backlog": bool(growing),
        "valid": bool(valid),
        "server_latency_s": server_latency,
        "latencies_s": latencies,
        "slowest": [
            {"ms": item["latency_s"] * 1e3,
             "kind": item["request"].kind,
             "topology": item["request"].task["topology"],
             "cache": (item["response"] or {}).get("cache"),
             "due_s": item["request"].due}
            for item in sorted(
                (i for i in outcome["results"] if i["latency_s"] is not None),
                key=lambda i: -i["latency_s"])[:TAIL_BEYOND + 5]
        ],
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One ``serve-mix`` run; returns the report dict for ``run.py``."""
    # The generator and the daemon it starts share one CPU, so the
    # generator's speed probes time the CPU the daemon runs on: the
    # host's slow phases hit its CPUs unevenly.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    refs = References()
    names = refs.node_names()
    schedule = build_schedule(seed, seconds, names)
    digest = schedule.digest()
    same_inputs = digest == build_schedule(seed, seconds, names).digest()
    if trace:
        # Tracing overhead: the nominal step, untraced then traced.
        nominal = next(s for s in schedule.steps if s[0] == NOMINAL_RATE)
        half = Schedule(schedule.resident, schedule.hot)
        rate, duration, requests = nominal
        keep = [r for r in requests if r.due < duration / 2]
        half.steps = [(rate, duration / 2, keep)]
        schedule = half
    for request in schedule.hot:
        refs.add(request)
    for _rate, _duration, requests in schedule.steps:
        for request in requests:
            refs.add(request)

    report: dict = {"digest": digest, "same_seed_same_inputs": same_inputs}
    if trace:
        plain = _serve_steps("plain", schedule, refs, traced=False)
        traced = _serve_steps("traced", schedule, refs, traced=True)
        report["plain"], report["traced"] = plain, traced
        return report
    setup = []
    for probe in range(SETUPS - 1):
        daemon = Daemon(f"probe{probe}-{seed}")
        setup.append(daemon.setup_s)
        daemon.stop()
    main = _serve_steps(f"serve-{seed}", schedule, refs, traced=False)
    setup.append(main["setup_s"])
    report.update(main)
    report["setup_samples_s"] = setup
    return report


def _serve_steps(name: str, schedule: Schedule, refs: References,
                 traced: bool) -> dict:
    daemon = Daemon(name, traced=traced)
    try:
        warm = _closed(daemon.path, schedule.hot)
        warm_ok = sum(bool(m.get("ok")) for m in warm)
        before = daemon.stats()
        if traced:
            daemon.proc.send_signal(signal.SIGUSR1)  # drop warm-up spans
            time.sleep(0.05)
        steps = []
        for rate, duration, requests in schedule.steps:
            cpu = cpu_seconds_of(daemon.proc.pid)
            outcome = drive(daemon.path, requests, duration)
            outcome["daemon_cpu_s"] = cpu_seconds_of(daemon.proc.pid) - cpu
            steps.append(step_summary(rate, duration, outcome, refs))
        after = daemon.stats()
        peak = peak_rss_mb_of(daemon.proc.pid)
    finally:
        daemon.stop()
    counters = {}
    for name_ in set(after["counters"]) | set(before["counters"]):
        counters[name_] = (after["counters"].get(name_, 0)
                           - before["counters"].get(name_, 0))
    return {
        "setup_s": daemon.setup_s,
        "warmup_ok": warm_ok,
        "steps": steps,
        "counters": counters,
        "peak_rss_mb": peak,
        "spans_path": str(daemon.spans_path) if traced else None,
    }


def end_to_end(report: dict) -> tuple[dict, dict]:
    """(metrics, extra report fields) of an untraced run."""
    steps = report["steps"]
    nominal = next(s for s in steps if s["rate"] == NOMINAL_RATE)
    if not nominal["valid"]:
        raise RuntimeError(
            f"generator lagged at the nominal rate "
            f"(p99 {nominal['lateness_p99_ms']:.1f} ms)")
    max_rps = 0.0
    for step in steps:
        if (step["valid"] and step["failed"] == 0 and step["tail"]
                and step["tail"]["value"] <= TAIL_LIMIT_S
                and not step["growing_backlog"]):
            max_rps = max(max_rps, step["rate"])
    setup = float(np.median(report["setup_samples_s"]))
    metrics = {
        "setup_s": metric(setup, "s"),
        "latency_p50_ms": metric(nominal["p50_s"] * 1e3, "ms"),
        "latency_tail_ms": metric(nominal["tail"]["value"] * 1e3, "ms"),
        # Certified answers per second of daemon CPU (its pool workers
        # included) over the valid steps: the open loop fixes how many
        # answers a step delivers, so the daemon's cost per answer is
        # what its throughput can show.
        "ops_per_s": metric(
            sum(s["certified"] for s in steps if s["valid"])
            / sum(s["daemon_cpu_s"] for s in steps if s["valid"]), "1/s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
    }
    extra = {"serve_max_rps": max_rps, "tail": nominal["tail"]}
    return metrics, extra
