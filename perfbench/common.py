"""Helpers shared by ``run.py`` and its worker processes.

Nothing here imports the ``repro`` package: statistics, input digests,
the machine-calibration microbenchmark, the speed probe that scales
timings to a reference speed and process-memory readings work the same
in ``run.py``, in a worker and in the tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

#: Repository root of the checkout the benchmark runs from.
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their reports, span dumps and daemon sockets.
OUT_DIR = ROOT / ".perfbench-out"
#: The package under test, built from source in the checkout.
SRC_DIR = ROOT / "src"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: Timings per figure of the calibration microbenchmark.
CALIBRATION_REPEATS = 5


def tail_percentile(samples) -> dict:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples, the ``k``-th smallest (1-based) has
    ``n - k`` samples above it, so the highest admissible ``k`` is
    ``n - TAIL_BEYOND`` and its percentile is ``100 (n - 10) / n``.
    With ``n <= TAIL_BEYOND`` no percentile qualifies; the maximum is
    reported instead, labelled with percentile 100 and 0 samples beyond.
    """
    values = sorted(float(v) for v in samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return {"value": values[-1], "percentile": 100.0, "samples": n,
                "beyond": 0}
    k = n - TAIL_BEYOND
    return {"value": values[k - 1], "percentile": 100.0 * k / n,
            "samples": n, "beyond": TAIL_BEYOND}


class InputDigest:
    """Order-sensitive digest of everything a workload hands the program."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                array = np.ascontiguousarray(part)
                self._hash.update(str(array.dtype).encode())
                self._hash.update(str(array.shape).encode())
                self._hash.update(array.tobytes())
            elif isinstance(part, (bytes, bytearray)):
                self._hash.update(part)
            else:
                self._hash.update(
                    json.dumps(part, sort_keys=True).encode("utf-8")
                )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def calibrate() -> dict:
    """A fixed reference microbenchmark, recorded in every report.

    Reports from machines of different speed can be normalized by it:
    a pure-Python loop (interpreter-bound, like the solver's iteration
    overhead) and a dense numpy matvec (memory-bound, like the sparse
    kernels).  Each figure is the median of
    :data:`CALIBRATION_REPEATS` timings.
    """
    loop_n = 200_000
    python_ns = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter_ns()
        total = 0
        for i in range(loop_n):
            total += i * i
        python_ns.append((time.perf_counter_ns() - start) / loop_n)
    rng = np.random.default_rng(0)
    matrix = rng.random((512, 512))
    vector = rng.random(512)
    calls = 200
    matvec_us = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter_ns()
        for _ in range(calls):
            vector = matrix @ vector
            vector /= vector.max()
        matvec_us.append((time.perf_counter_ns() - start) / calls / 1e3)
    return {
        "python_loop_ns_per_iter": statistics.median(python_ns),
        "numpy_matvec_512_us": statistics.median(matvec_us),
    }


#: Thread CPU time of one :func:`speed_probe` at the reference speed:
#: about its median on the 2-vCPU Xeon VM the benchmark was defined on.
REFERENCE_PROBE_S = 1.5e-3
#: Probes on each side of an op whose median gives its speed factor.
SPEED_WINDOW = 15


def _probe_inputs():
    rng = np.random.default_rng(2006)
    return rng.random((40, 60)), rng.random(40)


_PROBE_A, _PROBE_B = _probe_inputs()


def speed_probe() -> float:
    """Thread CPU time of a fixed ~1.5 ms kernel, in seconds.

    The kernel is a small projected-gradient loop of the benchmark's
    own — matvecs, clipping, a backtracking line search, a sort and
    some dict and string work — so it runs the same mix of interpreter
    dispatch and small numpy calls the solver's iterations spend their
    time on.  The host this benchmark runs on is shared, and its speed
    drifts by up to ~1.6x in phases of seconds to minutes; this
    kernel's time tracks the solver's through those phases (window
    correlation ~0.96, log slope ~0.93), so timings can be scaled to
    :data:`REFERENCE_PROBE_S`.  Thread CPU time, not wall time: a
    thread the program leaves running cannot slow the probe down by
    holding the GIL.
    """
    start = time.thread_time()
    a, b = _PROBE_A, _PROBE_B
    x = np.full(a.shape[1], 0.5)
    picked: dict[int, int] = {}
    for _ in range(25):
        r = a @ x - b
        g = a.T @ r
        for j in np.argsort(g)[:10].tolist():
            picked[j] = picked.get(j, 0) + 1
        step, fx = 0.01, float(r @ r)
        while True:
            y = np.clip(x - step * g, 0.0, 1.0)
            ry = a @ y - b
            if float(ry @ ry) <= fx or step < 1e-6:
                break
            step *= 0.5
        x = y
        str(sorted(picked.items(), key=lambda kv: -kv[1])[:5])
    return time.thread_time() - start


def speed_factors(probes) -> np.ndarray:
    """Per-op factors that scale timings to the reference speed.

    ``probes[i]`` is the :func:`speed_probe` taken just before op ``i``;
    the op's factor is :data:`REFERENCE_PROBE_S` over the median of the
    probes within :data:`SPEED_WINDOW` ops of it, so one disturbed
    probe does not move it.
    """
    probes = np.asarray(probes, dtype=float)
    n = len(probes)
    return np.array([
        REFERENCE_PROBE_S / np.median(
            probes[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        for i in range(n)
    ])


def peak_rss_mb_self() -> float:
    """Peak resident set size of the calling process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float | None:
    """Peak resident set size of a running process (``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def cpu_seconds_of(pid: int) -> float:
    """CPU time (user + system) of a process and its reaped children, in s."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # Fields after the parenthesised command name start at ``state``
    # (field 3); utime, stime, cutime and cstime are fields 14-17.
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = sum(int(fields[k - 3]) for k in (14, 15, 16, 17))
    return ticks / os.sysconf("SC_CLK_TCK")


def worker_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
