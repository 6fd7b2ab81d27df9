"""Experiment runner: config validation, metrics, sweeps, CSV export.

A run is described by a plain-data ExperimentConfig, so configs can come
from code, from a config file, or from command-line flags without three
different shapes.  run_experiment builds the task and, for a scheduled
run, its one Layout, drives the simulator, verifies the recorded trace
against the configured lag bound, and packs everything, the layout
included, into Metrics.  Runs are deterministic per seed: identical
configs produce byte-identical CSV and trace exports.

Round snapshots are evaluated EVAL_BATCH at a time.  When the held-out
set is large (rows * features at least objectives.EVAL_THREAD_MIN), each
batch goes to one worker thread created for the run, and the simulation
keeps stepping while the batch is evaluated: a batch is one matrix product
and one pass of numpy calls over the whole chunk, each of which releases
the GIL, so the worker takes the GIL back from the stepping thread once
per call of that pass, not once per call per model.  Results are
collected in submission order, so the curves are the same bytes either
way.  Smaller held-out sets are evaluated inline, where a batch is bound
by Python overhead and a thread would only add GIL handoffs.  The final
models are evaluated on the calling thread while the worker finishes its
last batches.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import consistency
from .baselines import ThresholdNode, default_threshold_schedules
from .node import ComputeNode, Layout
from .objectives import (
    EVAL_BATCH,
    EVAL_THREAD_MIN,
    Logistic,
    MeanQuadratic,
    gaussian_cloud,
    load_idx,
    synthetic_blobs,
)
from .rngs import SAMPLE_STREAM, eval_seed, stream
from .schedules import (
    parse_sample_schedule,
    parse_step_schedule,
    round_plan,
    step_size,
)
from .simnet import DelayModel, Simulation, Trace
from .topology import Topology, complete, is_connected, line, load_edge_list, neighbors, ring

# sweep axis -> (the type of its values, the config fields that one value of it sets)
_SWEEP_FIELDS = {
    "n": (int, lambda v: {"n": v}),
    "d": (int, lambda v: {"max_lag": v}),
    "K": (int, lambda v: {"iterations": v, "total_iterations": None}),
    "constant-s": (int, lambda v: {"sample_schedule": f"const:{v}"}),
    "threshold-coeff": (float, lambda v: {"algorithm": "threshold", "threshold_coeff": v}),
}
# sweep axis -> the type of its values
SWEEP_AXES = {axis: kind for axis, (kind, _) in _SWEEP_FIELDS.items()}

CSV_COLUMNS = "experiment,node,round,iter,loss,accuracy,rounds_total,messages,duration_ms,speedup"


class ConfigError(ValueError):
    """Raised when an ExperimentConfig fails validation."""


@dataclass
class ExperimentConfig:
    """Everything one run needs, as plain data."""

    name: str = "run"
    topology: str = "ring"
    n: int = 5
    objective: str = "blobs"
    samples: int = 2000
    dim: int = 2
    classes: int = 2
    separation: float = 10.0
    center: tuple[float, ...] | None = None
    spread: float = 1.0
    l2: float = 0.0
    idx_images: str | None = None
    idx_labels: str | None = None
    sample_schedule: str = "linear:10,1,0"
    step_schedule: str = "diminishing:0.01,0.01"
    max_lag: int = 1
    iterations: int | None = None
    total_iterations: int | None = None
    algorithm: str = "scheduled"
    threshold_coeff: float = 0.2
    compute_range: tuple[float, float] = (0.1, 1.0)
    network_range: tuple[float, float] = (0.1, 1.5)
    stragglers: dict[int, float] = field(default_factory=dict)
    seed: int = 0
    eval_every: int = 1
    eval_samples: int = 1000

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if (self.iterations is None) == (self.total_iterations is None):
            raise ConfigError("set exactly one of iterations / total_iterations")
        k = self.iterations if self.iterations is not None else self.total_iterations
        if k < 0:
            raise ConfigError(f"iteration budget must be >= 0, got {k}")
        if self.algorithm not in ("scheduled", "threshold"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.objective not in ("blobs", "quadratic", "idx"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.objective == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("objective 'idx' needs idx_images and idx_labels paths")
        if self.center is not None and len(self.center) != self.dim:
            raise ConfigError(
                f"center must have dim={self.dim} coordinates, got {len(self.center)}"
            )
        if not self.max_lag >= 0:
            raise ConfigError(f"max_lag must be >= 0, got {self.max_lag}")
        if not 0 < self.threshold_coeff <= 1:
            raise ConfigError(f"threshold_coeff must be in (0, 1], got {self.threshold_coeff}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.eval_samples < 1:
            raise ConfigError(f"eval_samples must be >= 1, got {self.eval_samples}")
        for node, factor in self.stragglers.items():
            if not (0 <= node < self.n):
                raise ConfigError(f"straggler node {node} out of range for n={self.n}")
            if not 1 <= factor < math.inf:  # NaN fails too
                raise ConfigError(f"straggler factor must be a finite number >= 1, got {factor}")
        DelayModel(self.compute_range, self.network_range)
        parse_sample_schedule(self.sample_schedule)
        parse_step_schedule(self.step_schedule)

    @property
    def per_node_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return math.ceil(self.total_iterations / self.n)


@dataclass
class NodeMetrics:
    node: int
    rounds: int
    iterations: int
    final_loss: float
    final_accuracy: float | None
    finish_ms: float
    final_w: np.ndarray
    curve: list[tuple[int, int, float, float | None]] = field(default_factory=list)


@dataclass
class Metrics:
    config: ExperimentConfig
    nodes: list[NodeMetrics]
    rounds_total: int
    broadcasts_total: int
    messages: int
    duration_ms: float
    mean_finish_ms: float
    speedup: float | None
    connected: bool
    delay_check_ok: bool | None
    trace: Trace | None = None
    # the budgets, step sizes and slot layout of a scheduled run; None for threshold runs
    layout: Layout | None = None


def build_topology(cfg: ExperimentConfig) -> Topology:
    kind = cfg.topology
    if kind == "ring":
        return ring(cfg.n)
    if kind == "line":
        return line(cfg.n)
    if kind == "complete":
        return complete(cfg.n)
    return load_edge_list(kind, cfg.n)


def build_task(cfg: ExperimentConfig):
    """Construct (objective, train set, eval set) for a config.

    Synthetic tasks get a disjoint eval set drawn from the same
    distribution under a derived seed; IDX tasks evaluate on the training
    set itself since no second file pair is configured.
    """
    if cfg.objective == "blobs":
        train = synthetic_blobs(cfg.seed, cfg.samples, cfg.dim, cfg.classes, cfg.separation)
        held = synthetic_blobs(
            eval_seed(cfg.seed), cfg.eval_samples, cfg.dim, cfg.classes, cfg.separation
        )
        return Logistic(cfg.dim, cfg.classes, cfg.l2), train, held
    if cfg.objective == "quadratic":
        center = cfg.center if cfg.center is not None else (0.0,) * cfg.dim
        train = gaussian_cloud(cfg.seed, cfg.samples, cfg.dim, center, cfg.spread)
        held = gaussian_cloud(eval_seed(cfg.seed), cfg.eval_samples, cfg.dim, center, cfg.spread)
        return MeanQuadratic(cfg.dim), train, held
    train = load_idx(cfg.idx_images, cfg.idx_labels)
    classes = int(train.labels.max()) + 1
    if classes < 2:
        raise ConfigError(f"{cfg.idx_labels}: every label is 0, a classifier needs two classes")
    return Logistic(train.dim, classes, cfg.l2), train, train


def planned_budgets(cfg: ExperimentConfig) -> Layout:
    """The Layout of a scheduled run: every node gets the same budgets and step sizes.

    The budgets are round_plan's sizes for the per-node iteration count;
    each round's step size is the step schedule evaluated at round_plan's
    start, the node's own step count when the round begins.  It is not the
    round's first global iteration: on a ring of 5 nodes under
    linear:10,1,0, round 1's rate is read at step 10, while the layout puts
    that round's first step, node 0's, at global iteration 50.
    """
    sample_sched = parse_sample_schedule(cfg.sample_schedule)
    step_sched = parse_step_schedule(cfg.step_schedule)
    budgets, starts = round_plan(sample_sched, cfg.per_node_iterations)
    etas = [step_size(step_sched, s) for s in starts]
    return Layout((budgets,) * cfg.n, (etas,) * cfg.n)


def run_experiment(cfg: ExperimentConfig, *, keep_trace: bool = False) -> Metrics:
    """Run one configured experiment and collect its metrics.

    A scheduled run builds its Layout once, gives each node its lists,
    asserts that every node completed its layout's rounds, verifies the
    recorded trace against the configured lag bound, and returns the
    layout in Metrics.layout; a verification failure is a defect,
    surfaced in delay_check_ok rather than raised.
    """
    cfg.validate()
    topo = build_topology(cfg)
    objective, train, held = build_task(cfg)
    k = cfg.per_node_iterations

    if cfg.algorithm == "scheduled":
        layout = planned_budgets(cfg)
        nodes = [
            ComputeNode(
                i,
                objective,
                train,
                layout.budgets[i],
                layout.etas[i],
                neighbors(topo, i),
                cfg.max_lag,
                stream(cfg.seed, SAMPLE_STREAM, i),
            )
            for i in range(cfg.n)
        ]
    else:
        layout = None
        alpha, beta = default_threshold_schedules()
        nodes = [
            ThresholdNode(
                i,
                objective,
                train,
                k,
                alpha,
                beta,
                neighbors(topo, i),
                stream(cfg.seed, SAMPLE_STREAM, i),
                coeff=cfg.threshold_coeff,
            )
            for i in range(cfg.n)
        ]

    curves: dict[int, list[tuple[int, int, float, float | None]]] = {
        i: [] for i in range(cfg.n)
    }

    # round snapshots wait here and are evaluated EVAL_BATCH at a time
    pending: list[tuple[int, int, int, np.ndarray]] = []
    # batches handed to the worker: their (node, round, iteration) rows and futures
    in_flight: deque = deque()
    worker = None

    def record(rows, results):
        for (node_id, rnd, done), (loss, acc) in zip(rows, results):
            curves[node_id].append((rnd, done, loss, acc))

    def collect(keep):
        # oldest first, so the curves fill in snapshot order
        while len(in_flight) > keep:
            rows, future = in_flight.popleft()
            record(rows, future.result())

    def flush():
        rows = [snap[:3] for snap in pending]
        ws = [snap[3] for snap in pending]
        pending.clear()
        if worker is None:
            record(rows, objective.evaluate_many(ws, held))
        else:
            in_flight.append((rows, worker.submit(objective.evaluate_many, ws, held)))
            # the run waits only while more than two batches are on the
            # worker, which bounds the snapshot copies alive at once
            collect(2)

    def round_hook(node, rnd, now):
        if (rnd + 1) % cfg.eval_every != 0:
            return
        pending.append((node.node_id, rnd, node.t, node.w.copy()))
        if len(pending) == EVAL_BATCH:
            flush()

    sim = Simulation(nodes, topo, DelayModel(cfg.compute_range, cfg.network_range), cfg.seed)
    for node_id, factor in sorted(cfg.stragglers.items()):
        sim.set_straggler(node_id, factor)
    if held.m * held.dim >= EVAL_THREAD_MIN:
        # imported here, so inline runs do not load concurrent.futures and the
        # logging module under it: at module level that cost the 1000 x 2 blob
        # task about 0.5 MiB of peak RSS and a fifth of its set-up time
        from concurrent.futures import ThreadPoolExecutor

        worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="etsgd-eval")
    try:
        # eval_every 0 disables the curves, so the engine gets no hook to call
        result = sim.run(round_hook if cfg.eval_every else None)
        flush()
        # the final models are evaluated while the worker drains its batches
        finals = objective.evaluate_many([node.w for node in nodes], held)
        collect(0)
    finally:
        if worker is not None:
            # batches still queued when the run raised are dropped
            worker.shutdown(cancel_futures=True)

    delay_ok = None
    if layout is not None:
        for i, (done, budgets) in enumerate(zip(result.rounds_completed, layout.budgets)):
            if done != len(budgets):
                raise RuntimeError(
                    f"node {i} completed {done} rounds, schedule demands {len(budgets)}"
                )
        delay_ok = consistency.verify_round_delay(result.trace, cfg.max_lag).ok

    node_metrics = []
    for i, (node, (loss, acc)) in enumerate(zip(nodes, finals)):
        node_metrics.append(
            NodeMetrics(
                node=i,
                rounds=result.rounds_completed[i],
                iterations=k,
                final_loss=loss,
                final_accuracy=acc,
                finish_ms=result.node_finish_ms[i],
                final_w=node.w.copy(),
                curve=curves[i],
            )
        )

    return Metrics(
        config=cfg,
        nodes=node_metrics,
        rounds_total=max(result.rounds_completed, default=0),
        broadcasts_total=sum(result.rounds_completed),
        messages=result.messages_sent,
        duration_ms=result.duration_ms,
        mean_finish_ms=result.mean_finish_ms,
        speedup=1.0 if cfg.n == 1 else None,
        connected=is_connected(topo),
        delay_check_ok=delay_ok,
        trace=result.trace if keep_trace else None,
        layout=layout,
    )


def run_timeline(cfg: ExperimentConfig) -> consistency.TimelineMap:
    """The global iteration labeling of a scheduled run of this config."""
    return consistency.TimelineMap(planned_budgets(cfg))


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[Metrics]:
    """One run per axis value, sharing the base config and seed, in order.

    Every point is built and validated before the first run.  Sweeping n
    with a total iteration budget reproduces the node-scaling layout; once
    the runs are done, each point's speedup is set against the first n=1
    point, when there is one: its duration over the point's.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {', '.join(SWEEP_AXES)}")
    kind, fields = _SWEEP_FIELDS[axis]
    points = []
    for v in values:
        name = f"{cfg.name}[{axis}={v}]"
        if isinstance(v, bool):
            raise ConfigError(f"sweep axis {axis!r} takes numbers, got {v!r}")
        if not isinstance(v, numbers.Integral if kind is int else numbers.Real):
            kinds = "integers" if kind is int else "real numbers"
            raise ConfigError(f"sweep axis {axis!r} takes {kinds}, got {v!r}")
        points.append(replace(cfg, name=name, **fields(kind(v))))
    for point in points:
        point.validate()

    out = [run_experiment(point) for point in points]
    ref = next((m for point, m in zip(points, out) if point.n == 1), None)
    return [
        m if ref is None or point.n == 1
        else replace(m, speedup=ref.duration_ms / m.duration_ms if m.duration_ms else None)
        for point, m in zip(points, out)
    ]


def export_csv(metrics, path: str | Path) -> None:
    """Write metrics (one or a list) as CSV with a fixed column order.

    Each node contributes its evaluation-curve rows, or a single final
    row when no curve was recorded.  The csv module writes the fields:
    floats as repr, None as an empty field, and an experiment name holding
    a comma, quote or line break quoted.  Output is deterministic byte for
    byte given equal metrics.
    """
    if isinstance(metrics, Metrics):
        metrics = [metrics]
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(CSV_COLUMNS.split(","))
        for m in metrics:
            for nm in m.nodes:
                rows = nm.curve or [(nm.rounds - 1, nm.iterations, nm.final_loss, nm.final_accuracy)]
                out.writerows(
                    (m.config.name, nm.node, rnd, it, loss, acc, nm.rounds,
                     m.messages, m.duration_ms, m.speedup)
                    for rnd, it, loss, acc in rows
                )
