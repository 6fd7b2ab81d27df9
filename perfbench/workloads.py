"""The four pinned workloads: their configs, generated inputs and correctness gates.

Every workload is an ExperimentConfig run through harness.run_experiment.
The workload seed becomes the config seed (measure.py derives more config
seeds from it) and, for idx784-ring, the seed of the generated IDX pair,
so one seed always gives the same inputs.  Import this module with the
program's src directory on sys.path.

Why these four:

- blobs-ring: small-dim logistic on a ring; Python overhead per step
  (gradient oracle and lag gate) dominates, messages are few.
- idx784-ring: 784-feature, 10-class logistic read from IDX files; numpy
  FLOPs dominate, both in gradients and in the per-round evaluation.
- const1-complete: one round per step on a complete graph with a
  straggler and a wide network range; messaging, the lag gate and trace
  verification dominate, and deliveries are overtaken, which exposes the
  known lag-rule defect to the iteration-level verifier.
- threshold-ring: the drift-threshold baseline on the blobs-ring task;
  the only workload that runs the baselines layer, and it bypasses the
  lag gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from etsgd.harness import ExperimentConfig, build_task
from etsgd.objectives import Dataset, write_idx

# The criterion-3 accuracy bar of the acceptance suite.
BLOBS_ACCURACY_BAR = 0.95
# idx784-ring has 10 classes; chance is 0.1.
IDX_ACCURACY_BAR = 0.9

IDX_CLASSES = 10
IDX_PIXELS = 784
IDX_SAMPLES = 3000
IDX_IMAGES = "images.idx"
IDX_LABELS = "labels.idx"
# Pixel noise added to the class prototypes.
IDX_NOISE = 0.5
# A quadratic node's held-out loss may exceed the optimum's by this factor.
QUADRATIC_LOSS_SLACK = 1.05


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, directory of generated inputs) -> ExperimentConfig
    make_config: Callable
    # (metrics) -> list of gate failures, empty when the run is correct
    gate: Callable
    size: str
    # (seed, directory) -> None; writes the files make_config refers to
    make_inputs: Callable | None = None


def write_prototype_idx(seed: int, workdir: Path) -> None:
    """Write a learnable 784-feature, 10-class IDX pair.

    Each class has a prototype that lights its own block of pixels, the
    blocks drawn as disjoint slices of a random pixel permutation; a sample
    is its class prototype plus Gaussian pixel noise, clipped to [0, 1] and
    quantized to bytes by write_idx.  Classes are exactly balanced.  Every
    seed thus gives the same problem up to a pixel permutation, which
    logistic regression is blind to, so the seed moves only the noise and
    the sample order.
    """
    rng = np.random.default_rng([seed, IDX_PIXELS])
    block = IDX_PIXELS // IDX_CLASSES
    order = rng.permutation(IDX_PIXELS)
    protos = np.zeros((IDX_CLASSES, IDX_PIXELS))
    for c, row in enumerate(protos):
        row[order[c * block:(c + 1) * block]] = 1.0
    y = rng.permutation(np.arange(IDX_SAMPLES) % IDX_CLASSES)
    x = np.clip(protos[y] + IDX_NOISE * rng.standard_normal((IDX_SAMPLES, IDX_PIXELS)), 0.0, 1.0)
    write_idx(workdir / IDX_IMAGES, workdir / IDX_LABELS, Dataset(x, y.astype(np.int64)))


def _logistic_gate(bar: float, scheduled: bool):
    def gate(m) -> list[str]:
        problems = []
        if scheduled and m.delay_check_ok is not True:
            problems.append(f"delay_check_ok is {m.delay_check_ok}")
        acc = min(nm.final_accuracy for nm in m.nodes)
        if not acc >= bar:
            problems.append(f"min node accuracy {acc:.4f} below {bar}")
        return problems

    return gate


def _quadratic_gate(m) -> list[str]:
    problems = []
    if m.delay_check_ok is not True:
        problems.append(f"delay_check_ok is {m.delay_check_ok}")
    objective, train, held = build_task(m.config)
    bar = QUADRATIC_LOSS_SLACK * objective.loss(objective.optimum(train), held)
    worst = max(nm.final_loss for nm in m.nodes)
    if not worst <= bar:
        problems.append(f"node loss {worst:.4f} above {bar:.4f}")
    return problems


def _blobs(seed, _workdir, **overrides):
    base = dict(
        name="blobs-ring",
        topology="ring",
        n=5,
        objective="blobs",
        dim=2,
        classes=2,
        sample_schedule="linear:10,1,0",
        max_lag=1,
        iterations=5000,
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _idx(seed, workdir):
    return ExperimentConfig(
        name="idx784-ring",
        topology="ring",
        n=5,
        objective="idx",
        idx_images=str(workdir / IDX_IMAGES),
        idx_labels=str(workdir / IDX_LABELS),
        sample_schedule="linear:10,1,0",
        # 784 un-centred features need a smaller rate than the 2-d default
        step_schedule="diminishing:0.001,0.01",
        max_lag=1,
        iterations=1500,
        seed=seed,
    )


def _const1(seed, _workdir):
    return ExperimentConfig(
        name="const1-complete",
        topology="complete",
        n=8,
        objective="quadratic",
        dim=2,
        center=(5.0, -3.0),
        eval_samples=10000,
        sample_schedule="const:1",
        max_lag=2,
        iterations=1000,
        stragglers={0: 2.0},
        network_range=(0.1, 5.0),
        eval_every=0,
        seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blobs-ring",
            _blobs,
            _logistic_gate(BLOBS_ACCURACY_BAR, scheduled=True),
            "ring n=5, blobs dim 2 / 2 classes, linear:10,1,0, d=1, 5000 iter/node",
        ),
        Workload(
            "idx784-ring",
            _idx,
            _logistic_gate(IDX_ACCURACY_BAR, scheduled=True),
            f"ring n=5, IDX m={IDX_SAMPLES} x {IDX_PIXELS} / {IDX_CLASSES} classes, "
            "linear:10,1,0, d=1, 1500 iter/node, eval every round on the training set",
            write_prototype_idx,
        ),
        Workload(
            "const1-complete",
            _const1,
            _quadratic_gate,
            "complete n=8, quadratic dim 2, const:1, d=2, straggler x2, network (0.1, 5), "
            "1000 iter/node, eval off",
        ),
        Workload(
            "threshold-ring",
            lambda seed, workdir: _blobs(
                seed, workdir, name="threshold-ring", algorithm="threshold"
            ),
            _logistic_gate(BLOBS_ACCURACY_BAR, scheduled=False),
            "ring n=5, blobs dim 2 / 2 classes, threshold coeff 0.2, 5000 iter/node",
        ),
    )
}
