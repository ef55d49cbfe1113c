"""Seeded inputs of the closed-loop workloads, built with ``repro``'s public API.

Every instance, θ draw and trace comes from ``--seed`` through one
``numpy`` generator per workload; the program under test receives only
the finished problems and traces.  Each of these functions feeds an
:class:`~common.InputDigest`, so two builds from one seed can be
compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from common import InputDigest

from repro import (
    ODPair,
    SamplingProblem,
    abilene_network,
    janet_task,
    make_task,
)
from repro.topology import nsfnet_network, random_waxman_network
from repro.traffic import TraceEvent, generate_trace

#: The capacity range of the paper's Figure 2 (packets per interval).
THETA_RANGE = (5_000.0, 2_000_000.0)


@dataclass(frozen=True)
class Instance:
    """One problem, kept as raw data so every op can build a fresh object.

    A fresh :class:`SamplingProblem` per op keeps each solve cold: the
    operators' cached transposes and the problem's cached candidate
    slice never carry over from an earlier op.
    """

    label: str
    routing: object
    loads: np.ndarray
    theta: float
    utilities: list
    alpha: object
    interval: float

    @classmethod
    def of(cls, label: str, problem: SamplingProblem) -> "Instance":
        routing = problem.routing_op.tosparse()
        if routing is None:
            routing = problem.routing_op.toarray()
        return cls(label, routing.copy(), np.array(problem.link_loads_pps),
                   problem.theta_packets, list(problem.utilities),
                   np.array(problem.alpha), problem.interval_seconds)

    def fresh(self) -> SamplingProblem:
        return SamplingProblem(
            self.routing.copy(), self.loads, self.theta, self.utilities,
            alpha=self.alpha, interval_seconds=self.interval,
        )

    def feed(self, digest: InputDigest) -> None:
        routing = self.routing
        if hasattr(routing, "indptr"):
            digest.add(routing.indptr, routing.indices, routing.data)
        else:
            digest.add(np.asarray(routing))
        digest.add(self.label, self.loads, float(self.theta),
                   np.asarray(self.alpha), float(self.interval),
                   np.array([u.mean_inverse_size for u in self.utilities]))


def draw_thetas(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` log-uniform θ draws, one per equal-width stratum, shuffled.

    Stratifying keeps every seed's draw spread over the whole range, so
    a run's mix of easy and hard capacities varies little between seeds.
    """
    lo, hi = np.log(THETA_RANGE[0]), np.log(THETA_RANGE[1])
    u = (np.arange(n) + rng.random(n)) / n
    thetas = np.exp(lo + u * (hi - lo))
    rng.shuffle(thetas)
    return [float(t) for t in thetas]


def draw_od_pairs(rng, names, low: int, high: int):
    """``low``-``high`` distinct (origin, destination) pairs of ``names``
    with uniform sizes (pkt/s), as name tuples and an array of sizes."""
    count = int(rng.integers(low, high + 1))
    if count > len(names) * (len(names) - 1):
        raise ValueError(f"too few nodes for {count} OD pairs")
    chosen: list[tuple[str, str]] = []
    while len(chosen) < count:
        a, b = rng.choice(len(names), size=2, replace=False)
        key = (names[int(a)], names[int(b)])
        if key not in chosen:
            chosen.append(key)
    sizes = rng.uniform(100.0, 30_000.0, size=count)
    return chosen, sizes


def _od_set(rng, network, low: int, high: int):
    """A seeded set of distinct OD pairs of ``network`` and their sizes."""
    chosen, sizes = draw_od_pairs(rng, network.node_names, low, high)
    return [ODPair(a, b) for a, b in chosen], sizes


def _seed(rng) -> int:
    return int(rng.integers(1 << 31))


def backbone_instances(seed: int, per_family: int = 75) -> list[Instance]:
    """Paper-scale tasks, ``per_family`` of each family, in seeded order.

    Hardness is heavy-tailed (70 to ~1950 GP iterations), so a run
    solves all of these distinct instances once rather than cycling a
    few: its median, tail and throughput then describe the families,
    not the handful of hard draws one seed happened to make.

    * ``janet``: the paper's JANET-on-GEANT task at seeded θ;
    * ``geant-gravity``: the same task over a seeded gravity background;
    * ``nsfnet`` / ``abilene``: seeded OD sets over a seeded background.
    """
    rng = np.random.default_rng([seed, 1])
    instances: list[Instance] = []
    base = janet_task()
    for theta in draw_thetas(rng, per_family):
        problem = SamplingProblem.from_task(base, theta).clamped()
        instances.append(Instance.of("janet", problem))
    for theta in draw_thetas(rng, per_family):
        task = janet_task(seed=_seed(rng))
        problem = SamplingProblem.from_task(task, theta).clamped()
        instances.append(Instance.of("geant-gravity", problem))
    for label, network in (("nsfnet", nsfnet_network()),
                           ("abilene", abilene_network())):
        for theta in draw_thetas(rng, per_family):
            pairs, sizes = _od_set(rng, network, 10, 40)
            task = make_task(network, pairs, sizes, background_pps=500_000.0,
                             seed=_seed(rng))
            problem = SamplingProblem.from_task(task, theta).clamped()
            instances.append(Instance.of(label, problem))
    order = rng.permutation(len(instances))
    return [instances[i] for i in order]


def waxman_task(rng, num_nodes: int, num_od: int, interval: float = 300.0):
    """A seeded Waxman WAN with ``num_od`` OD pairs over a gravity background."""
    network = random_waxman_network(num_nodes, seed=_seed(rng))
    pairs, sizes = _od_set(rng, network, num_od, num_od)
    task = make_task(network, pairs, sizes, background_pps=500_000.0,
                     interval_seconds=interval, seed=_seed(rng))
    theta = 0.002 * float(task.link_loads_pps.sum()) * task.interval_seconds
    return task, theta


#: Seed of the one Waxman task every ``stream-diurnal`` trace runs on.
STREAM_TASK_SEED = 42


@dataclass
class StreamInputs:
    theta: float
    intervals: list          # TraceInterval objects, in trace order
    events: list             # the seeded anomaly events


def stream_inputs(seed: int, num_intervals: int) -> StreamInputs:
    """A multi-day hourly diurnal trace with seeded anomalies.

    The task is fixed — the mid-size Waxman WAN of the hot-path bench
    (80 nodes, 1200 OD pairs, drawn from :data:`STREAM_TASK_SEED`) — and
    the trace starts at midnight, so runs differ only in what the seed
    draws: 2% log-normal noise per OD pair and interval, and on the first
    and third day one 4x anomaly on a random OD pair for 3-5 hours from a
    random hour between 08:00 and 16:00.  Fixing the anomalies' number
    and size keeps the change points of a run — onset and end of each
    anomaly — and with them the cold re-solves, the same from seed to
    seed and for any run longer than three days: about five slow
    intervals, well clear of the ten the tail latency keeps beyond it.
    Stronger noise makes the tracker fire at random.
    """
    task, theta = waxman_task(np.random.default_rng(STREAM_TASK_SEED), 80,
                              1200, interval=3600.0)
    rng = np.random.default_rng([seed, 3])
    events = [
        TraceEvent(
            kind="anomaly",
            start_interval=start + int(rng.integers(8, 17)),
            duration_intervals=int(rng.integers(3, 6)),
            od_index=int(rng.integers(task.num_od_pairs)),
            magnitude=4.0,
        )
        for start in (0, 48)
    ]
    intervals = list(generate_trace(
        task, num_intervals, start_hour=0.0, noise_sigma=0.02, trough=0.4,
        events=events, seed=_seed(rng),
    ))
    return StreamInputs(theta=theta, intervals=intervals, events=events)


def digest_instances(instances) -> str:
    digest = InputDigest()
    for instance in instances:
        instance.feed(digest)
    return digest.hexdigest()


def digest_stream(inputs: StreamInputs) -> str:
    digest = InputDigest()
    digest.add(float(inputs.theta))
    for event in inputs.events:
        digest.add([event.start_interval, event.duration_intervals,
                    event.od_index, event.magnitude])
    for interval in inputs.intervals:
        digest.add(interval.task.od_sizes_pps, interval.task.link_loads_pps)
    return digest.hexdigest()
