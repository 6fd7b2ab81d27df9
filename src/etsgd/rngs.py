"""Seed derivation for the independent random streams used in a run.

Each concern (compute latency, network latency, per-node data sampling,
dataset generation, slot assignment) draws from its own numpy Generator,
derived from the experiment seed plus a stream tag.  Adding draws on one
stream never perturbs another, which keeps runs reproducible when a knob
such as a straggler factor is toggled.

Draws are taken from a stream in blocks of BLOCK values per numpy call.
For PCG64, integers(m, size=k) yields the values of k integers(m) calls
and leaves the same state behind, and uniform(lo, hi, size=k) the floats
of k uniform(lo, hi) calls, so blocking changes only the cost of a draw.
"""
from __future__ import annotations

import numpy as np

COMPUTE_STREAM = 1
NETWORK_STREAM = 2
SAMPLE_STREAM = 3
DATA_STREAM = 4
SETUP_STREAM = 5

# values per numpy call in uniform_draws and sample_draws
BLOCK = 1024

# XOR'd into the experiment seed to derive the held-out evaluation set.
EVAL_SEED_XOR = 0x9E3779B9


def stream(seed: int, tag: int, *extra: int) -> np.random.Generator:
    """Generator for one concern; extra sub-keys (e.g. a node id) split further."""
    return np.random.default_rng([seed, tag, *extra])


def eval_seed(seed: int) -> int:
    """Seed for evaluation data, disjoint from the training stream."""
    return seed ^ EVAL_SEED_XOR


def uniform_draws(rng: np.random.Generator, lo: float, hi: float):
    """Endless rng.uniform(lo, hi) floats, drawn BLOCK at a time."""
    while True:
        yield from rng.uniform(lo, hi, size=BLOCK).tolist()


def sample_draws(rng: np.random.Generator, m: int, total: int):
    """rng.integers(m) as ints, total times, drawn BLOCK at a time.

    The last block is cut to what is left, so the stream ends in the state
    total single draws leave.
    """
    for start in range(0, total, BLOCK):
        yield from rng.integers(m, size=min(BLOCK, total - start)).tolist()
