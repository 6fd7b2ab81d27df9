"""Loss and gradient oracles over in-memory datasets, plus dataset creation and IDX ingestion.

Two objective kinds are provided.  MeanQuadratic is the analytic sanity
check: its minimizer is the dataset mean, so simulator output can be
compared against a closed form.  Logistic is multinomial softmax
regression with an optional L2 term, enough to train on image data or on
synthetic Gaussian blobs.  Both share one surface: grad(w, ds, idx) at one
sample, evaluate_many(ws, ds), one (loss, accuracy) pair per model over a
whole dataset, and stepper(w, grad_sum, ds), which hands a compute node
the object that runs its SGD steps in place: step(idx, eta) takes one
step, w -= eta * g and grad_sum += g, and flush() makes w and grad_sum
show every step taken.  A stepper's second method, mix_step(idx, eta,
scale, shift), is the threshold baseline's step: w <- scale * w + shift -
eta * g at once, after any pending steps have landed, with grad_sum left
alone.

MeanQuadratic's stepper applies each step at once.  Logistic has two
steppers, chosen by the model's size.  A model of at most FLOAT_STEP_MAX
parameters gets FloatLogisticStepper, which takes the plain dense step in
Python floats: between flushes it holds w and grad_sum as lists, and a
step makes no numpy call but the copy of its sample row (the first step
after a flush also reads both arrays).  Each numpy call costs about half
a microsecond whatever its length, and on a small model it moves only a
few floats, so the float step is the faster one there; its loops cost
per parameter, and without L2 the two steppers' steps cross between 18
and 20 parameters, their mix_steps at 16 (timings in CHANGES.md).  Its
logits are each class's products summed left to right, where the dense
reference lets the BLAS sum them, so its weights differ from
Logistic.grad's steps in the last bits; everything after the logits is
the dense step's arithmetic.

A larger model gets LogisticStepper, which defers the steps, STEP_BLOCK
at a time.  At one sample the softmax gradient is the rank-1 p x^T (x with
the bias input 1 appended), and a step reads the model only through W x,
so a pending step's logits are W x less eta times the pending rows' P^T
(X x), and a flush lands the block with one matrix product D = P^T X:
grad_sum += D, W -= eta * D.  An L2 term multiplies W by rho = 1 - eta *
l2 at every step; the pending steps then weigh their coefficients by
powers of rho, and the flush scales W by rho^k.  In exact arithmetic this
is the dense step; in floating point the updates are summed in another
order, so its weights differ from one-step-at-a-time updates in the last
bits, and depend on the BLAS kernel chosen for the block's product, as
evaluate_many's do (see EVAL_BATCH).  Its mix_step folds eta * l2 into
the scale and eta into the coefficients, and lands the rank-1 part with
one product of the (classes x 1) coefficient column and the (1 x
features+1) sample row; the float stepper's mix_step does the same
arithmetic element by element.

A block step keeps numpy for the work whose length is the feature count:
the sample-row copy, W x and the pending overlaps X x.  Both steppers run
the work whose length is the class count in Python floats: the softmax
and label subtract (_coefficients), with math.exp and a left-to-right
sum, and in the block step also the L2 scale and the pending correction.
Against numpy's softmax this moves the last bits: the C library's exp
differs from numpy's for some arguments, and from 8 classes on numpy sums
the normalizer in 8 partial sums.  So Logistic weights also depend on the
C library's exp; traces do not.  From about 15 classes up this softmax is
slower than numpy's (timings in CHANGES.md); no workload, golden or CLI
default has more than 10 classes.  Logistic.grad, the dense reference,
keeps the numpy softmax.
"""
from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rngs import DATA_STREAM, stream

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# models per matrix product in Logistic.evaluate_many, which bounds the
# product's memory.  A model keeps the bits of its one-model product only
# where the BLAS picks agreeing kernels for both widths, so evaluated
# values may move in the last place with the batch (CHANGES.md)
EVAL_BATCH = 16

# the most parameters, classes * (features + 1), of a Logistic model whose
# steps run in Python floats (FloatLogisticStepper); larger models land
# their steps in blocks (LogisticStepper).  Without L2, the float step
# crossed the block step between 18 and 20 parameters and the float
# mix_step at 16, so 16 is the largest size at which neither is slower;
# with L2 the block step costs more and its crossing comes later
# (CHANGES.md)
FLOAT_STEP_MAX = 16

# pending Logistic steps a stepper lands with one matrix product: a longer
# block shares one product among more steps, but each step's pending
# correction grows with it; 8 was fastest on 784 x 10 (CHANGES.md)
STEP_BLOCK = 8


class ObjectiveError(ValueError):
    """Raised for shape mismatches and unsupported objective operations."""


class IdxError(ValueError):
    """Base class for IDX file problems."""


class BadMagicError(IdxError):
    pass


class TruncatedError(IdxError):
    pass


class CountMismatchError(IdxError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m, dim) with optional integer labels of length m."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ObjectiveError(
                f"features must be a non-empty 2-D array, got shape {self.features.shape}"
            )
        if self.labels is not None:
            if self.labels.shape != (self.features.shape[0],):
                raise ObjectiveError(
                    f"labels shape {self.labels.shape} does not match m={self.features.shape[0]}"
                )
            if not np.issubdtype(self.labels.dtype, np.integer):
                raise ObjectiveError(f"labels must be integers, got dtype {self.labels.dtype}")
            if self.labels.min() < 0:
                raise ObjectiveError("labels must be non-negative integers")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class MeanQuadratic:
    """f(w; x) = 0.5*||w - x||^2, averaged over the dataset; minimized by the mean.

    evaluate_many(ws, ds) returns (loss, None) for each model in a list:
    accuracy is undefined for a quadratic target.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ObjectiveError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._w_shape = (dim,)

    def grad(self, w: np.ndarray, ds: Dataset, idx: int) -> np.ndarray:
        features = ds.features
        if not (
            w.shape == self._w_shape and features.shape[1] == self.dim
            and 0 <= idx < features.shape[0]
        ):
            self._check(w, ds, idx)
        return w - features[idx]

    def stepper(self, w: np.ndarray, grad_sum: np.ndarray, ds: Dataset) -> "QuadraticStepper":
        return QuadraticStepper(self, w, grad_sum, ds)

    def evaluate_many(self, ws: list[np.ndarray], ds: Dataset) -> list[tuple[float, None]]:
        out = []
        # a diverged model's loss is inf or NaN, which is the right answer: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            for w in ws:
                self._check(w, ds, 0)
                diff = w[None, :] - ds.features
                out.append((0.5 * float(np.mean(np.sum(diff * diff, axis=1))), None))
        return out

    def loss(self, w: np.ndarray, ds: Dataset) -> float:
        return self.evaluate_many([w], ds)[0][0]

    def optimum(self, ds: Dataset) -> np.ndarray:
        return ds.features.mean(axis=0)

    def _check(self, w, ds, idx):
        if w.shape != (self.dim,):
            raise ObjectiveError(f"model shape {w.shape} != ({self.dim},)")
        if ds.dim != self.dim:
            raise ObjectiveError(f"dataset dim {ds.dim} != model dim {self.dim}")
        if not (0 <= idx < ds.m):
            raise ObjectiveError(f"sample index {idx} out of range for m={ds.m}")


class Logistic:
    """Multinomial softmax regression on a flat (classes * (features_dim + 1)) vector.

    The trailing column of the reshaped weight matrix is the bias.  The L2
    term, when nonzero, applies to the full parameter vector.  Predicted
    class is the argmax of the logits; ties resolve to the lowest class id.

    evaluate_many(ws, ds) returns (loss, accuracy) for each model in a
    list, from one pass of the logits over the dataset: per EVAL_BATCH
    models, one matrix product and one run of numpy calls over the chunk's
    (m, models, classes) logits.  Labels are checked against the class
    count once per call.  loss() and accuracy() each take their
    half of it for one model, so a caller that needs both should call
    evaluate_many once.
    """

    def __init__(self, features_dim: int, classes: int, l2: float = 0.0):
        if features_dim < 1 or classes < 2:
            raise ObjectiveError("need features_dim >= 1 and classes >= 2")
        if not 0 <= l2 < math.inf:  # NaN fails too
            raise ObjectiveError(f"l2 must be a finite number >= 0, got {l2}")
        self.features_dim = features_dim
        self.classes = classes
        self.l2 = l2
        self.dim = classes * (features_dim + 1)
        self._W_shape = (classes, features_dim + 1)

    def grad(self, w: np.ndarray, ds: Dataset, idx: int) -> np.ndarray:
        """The gradient at one sample, as a new array: the plain dense reference.

        No run calls it; the tests hold LogisticStepper to it.
        """
        self._check(w, ds, idx)
        y = int(ds.labels[idx])
        if y >= self.classes:
            raise ObjectiveError(f"label {y} out of range for {self.classes} classes")
        W = w.reshape(self._W_shape)
        xt = np.append(ds.features[idx], 1.0)
        z = W @ xt
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        p[y] -= 1.0
        g = np.outer(p, xt)
        if self.l2:
            g += self.l2 * W
        return g.ravel()

    def stepper(self, w: np.ndarray, grad_sum: np.ndarray,
                ds: Dataset) -> "FloatLogisticStepper | LogisticStepper":
        if self.dim <= FLOAT_STEP_MAX:
            return FloatLogisticStepper(self, w, grad_sum, ds)
        return LogisticStepper(self, w, grad_sum, ds)

    def evaluate_many(self, ws: list[np.ndarray], ds: Dataset) -> list[tuple[float, float]]:
        for w in ws:
            self._check(w, ds, 0)
        if not ws:
            return []
        labels = ds.labels
        if labels.max() >= self.classes:
            bad = labels[np.argmax(labels >= self.classes)]
            raise ObjectiveError(f"label {bad} out of range for {self.classes} classes")
        m = ds.m
        # (m, 1, 1): each row's label, broadcast over a chunk's models
        label_index = labels[:, None, None]
        out = []
        # a diverged model's loss is inf or NaN, which is the right answer: no warning
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, len(ws), EVAL_BATCH):
                chunk = ws[first : first + EVAL_BATCH]
                Ws = [w.reshape(self._W_shape) for w in chunk]
                # one GEMM per chunk: model b owns columns b*classes.. of the
                # product, so with the biases added the product is the chunk's
                # logits, viewed as (m, models, classes)
                z = ds.features @ np.concatenate([W[:, :-1] for W in Ws]).T
                z += np.concatenate([W[:, -1] for W in Ws])
                z = z.reshape(m, len(chunk), self.classes)
                # every step below runs once over the chunk and is elementwise, or
                # reduces the contiguous class axis, so each model gets the bits its
                # own (m, classes) logits would
                top = z.argmax(axis=2)[:, :, None]
                zmax = np.take_along_axis(z, top, axis=2)
                # log-sum-exp with the max term split out through log1p, and the
                # (zmax - picked) cancellation done before adding the small term, so
                # confidently-correct samples keep full relative precision
                ce = zmax - np.take_along_axis(z, label_index, axis=2)
                # the logits turn into the exp terms in place, so a chunk holds
                # one (m, models, classes) array
                z -= zmax
                np.exp(z, out=z)
                np.put_along_axis(z, top, 0.0, axis=2)
                rest = z.sum(axis=2)
                ce = ce[:, :, 0]
                ce += np.log1p(rest, out=rest)
                # each model's mean over a contiguous row, which sums in the
                # order np.mean of that model's (m,) vector does
                losses = np.ascontiguousarray(ce.T).mean(axis=1).tolist()
                hits = (top[:, :, 0] == labels[:, None]).sum(axis=0).tolist()
                for w, loss, hit in zip(chunk, losses, hits):
                    if self.l2:
                        loss += 0.5 * self.l2 * float(w @ w)
                    out.append((loss, hit / m))
        return out

    def loss(self, w: np.ndarray, ds: Dataset) -> float:
        return self.evaluate_many([w], ds)[0][0]

    def accuracy(self, w: np.ndarray, ds: Dataset) -> float:
        return self.evaluate_many([w], ds)[0][1]

    def _check(self, w, ds, idx):
        if w.shape != (self.dim,):
            raise ObjectiveError(f"model shape {w.shape} != ({self.dim},)")
        if ds.dim != self.features_dim:
            raise ObjectiveError(f"dataset dim {ds.dim} != features_dim {self.features_dim}")
        if ds.labels is None:
            raise ObjectiveError("logistic objective needs a labeled dataset")
        if not (0 <= idx < ds.m):
            raise ObjectiveError(f"sample index {idx} out of range for m={ds.m}")


class QuadraticStepper:
    """MeanQuadratic's steps, applied one at a time; flush has nothing to do."""

    def __init__(self, objective: MeanQuadratic, w: np.ndarray, grad_sum: np.ndarray,
                 ds: Dataset):
        self.objective = objective
        self.w = w
        self.grad_sum = grad_sum
        self.data = ds

    def step(self, idx: int, eta: float) -> None:
        g = self.objective.grad(self.w, self.data, idx)
        self.w -= eta * g
        self.grad_sum += g

    def mix_step(self, idx: int, eta: float, scale: float, shift: np.ndarray) -> None:
        """w <- scale * w + shift - eta * g(w), with g at sample idx; grad_sum stays."""
        g = self.objective.grad(self.w, self.data, idx)
        w = self.w
        w *= scale
        w += shift
        w -= eta * g

    def flush(self) -> None:
        pass


class LogisticStepper:
    """Logistic's steps on one model, landed STEP_BLOCK at a time (module docstring).

    Pending step j keeps its sample row x_j, bias input 1 appended, as row j
    of X, and its softmax coefficients p_j (the label's entry less 1) as row
    j of P.  A block shares one step size: a step with another step size
    flushes the block first.  w and grad_sum are updated in place, and show
    every step only after flush().  The shapes of the model and the dataset
    are checked once, here; the sample index and its label on every step.
    """

    def __init__(self, objective: Logistic, w: np.ndarray, grad_sum: np.ndarray,
                 ds: Dataset):
        objective._check(w, ds, 0)
        # views: the steps land in the caller's arrays
        self._w = w
        self._W = w.reshape(objective._W_shape)
        self._G = grad_sum.reshape(objective._W_shape)
        # Python ints, so a step reads its label without a numpy scalar
        self._features, self._labels, self._m = ds.features, ds.labels.tolist(), ds.m
        self._classes = objective.classes
        self._l2 = objective.l2
        block = STEP_BLOCK
        self._block = block
        X = np.ones((block, objective.features_dim + 1))
        P = np.empty((block, objective.classes))
        self._P = P
        # P's first row as a (classes x 1) column, for mix_step's rank-1 product
        self._column = P[:1].T
        # views by pending count, so a step indexes a list instead of slicing
        self._rows = list(X)
        self._Xk = [X[:k] for k in range(block + 1)]
        self._Pk = [P[:k] for k in range(block + 1)]
        self._k = 0
        self._eta = math.nan
        # with an L2 term, rho**j for j = 0..block
        self._rho = None

    def step(self, idx: int, eta: float) -> None:
        if not 0 <= idx < self._m:
            raise ObjectiveError(f"sample index {idx} out of range for m={self._m}")
        k = self._k
        if eta != self._eta:
            if k:
                self.flush()
                k = 0
            self._eta = eta
            if self._l2:
                self._rho = (1.0 - eta * self._l2) ** np.arange(self._block + 1.0)
        x = self._rows[k]
        x[:-1] = self._features[idx]
        # the logits of the model with the k pending steps applied; under L2, pending
        # step j enters step k weighed by rho**(k-1-j), and the block's start by rho**k
        z = np.dot(self._W, x).tolist()
        if self._l2:
            scale = float(self._rho[k])
            z = [v * scale for v in z]
        if k:
            overlap = np.dot(self._Xk[k], x)
            if self._l2:
                overlap *= self._rho[k - 1 :: -1]
            corr = np.dot(overlap, self._Pk[k]).tolist()
            z = [v - eta * c for v, c in zip(z, corr)]
        self._P[k] = _coefficients(z, self._labels[idx], self._classes)
        self._k = k = k + 1
        if k == self._block:
            self.flush()

    def mix_step(self, idx: int, eta: float, scale: float, shift: np.ndarray) -> None:
        """w <- scale * w + shift - eta * g(w) at once, with g at sample idx; grad_sum stays.

        The pending steps land first.  The L2 part of eta * g, eta * l2 * w,
        folds into the scale, and eta into the coefficients, so the rank-1
        part lands as one product of the (classes x 1) coefficient column and
        the (1 x features+1) sample row.
        """
        if not 0 <= idx < self._m:
            raise ObjectiveError(f"sample index {idx} out of range for m={self._m}")
        if self._k:
            self.flush()
        x = self._rows[0]
        x[:-1] = self._features[idx]
        p = _coefficients(np.dot(self._W, x).tolist(), self._labels[idx], self._classes)
        self._P[0] = [-eta * v for v in p]
        w = self._w
        w *= scale - eta * self._l2
        w += shift
        self._W += np.dot(self._column, self._Xk[1])

    def flush(self) -> None:
        """Land the pending steps: one product D of their coefficients and rows."""
        k = self._k
        if not k:
            return
        self._k = 0
        W, G, eta = self._W, self._G, self._eta
        P = self._Pk[k]
        if self._l2:
            rho = self._rho
            P = P * rho[k - 1 :: -1, None]
            # the decay terms l2 * W_t of the k steps sum to l2 * sum(rho**t) * W_0
            G += (self._l2 * float(np.add.reduce(rho[:k]))) * W
            W *= rho[k]
        D = np.dot(P.T, self._Xk[k])
        G += D
        D *= eta
        W -= D


class FloatLogisticStepper:
    """Logistic's steps on a small model, one at a time in Python floats (module docstring).

    Between flushes the model and the gradient sum live in two lists of
    Python floats, in the order of w, read from w and grad_sum by the first
    step after a flush; flush() writes them back and drops them.  So w and
    grad_sum show no step until flush(), and whatever the caller does to
    them between a flush and the next step, the next step sees.  The
    shapes of the model and the dataset are checked once, here; the sample
    index and its label on every step.
    """

    def __init__(self, objective: Logistic, w: np.ndarray, grad_sum: np.ndarray,
                 ds: Dataset):
        objective._check(w, ds, 0)
        self._w, self._grad_sum = w, grad_sum
        # Python ints, so a step reads its label without a numpy scalar
        self._features, self._labels, self._m = ds.features, ds.labels.tolist(), ds.m
        self._classes = objective.classes
        self._l2 = objective.l2
        # the lists of w and grad_sum, None while the arrays show every step
        self._W = self._G = None

    def step(self, idx: int, eta: float) -> None:
        """The dense step, g = p x^T (+ l2 W), W -= eta * g and G += g, on the lists in place."""
        if not 0 <= idx < self._m:
            raise ObjectiveError(f"sample index {idx} out of range for m={self._m}")
        W, G = self._W, self._G
        if W is None:
            self._W = W = self._w.tolist()
            self._G = G = self._grad_sum.tolist()
        x = self._features[idx].tolist()
        x.append(1.0)
        p = _coefficients(self._logits(W, x), self._labels[idx], self._classes)
        l2 = self._l2
        # one pass over the parameters, class by class; a loop that updates the
        # lists in place costs less than new lists from comprehensions
        i = 0
        for c in p:
            for v in x:
                g = c * v
                if l2:
                    g += l2 * W[i]
                W[i] -= eta * g
                G[i] += g
                i += 1

    def mix_step(self, idx: int, eta: float, scale: float, shift: np.ndarray) -> None:
        """w <- scale * w + shift - eta * g(w) at once, with g at sample idx; grad_sum stays.

        The pending steps land first, then w is read once and written once,
        with LogisticStepper.mix_step's arithmetic: eta * l2 folded into the
        scale, and the rank-1 part from the coefficients times -eta.
        """
        if not 0 <= idx < self._m:
            raise ObjectiveError(f"sample index {idx} out of range for m={self._m}")
        self.flush()
        w = self._w.tolist()
        x = self._features[idx].tolist()
        x.append(1.0)
        p = _coefficients(self._logits(w, x), self._labels[idx], self._classes)
        factor = scale - eta * self._l2
        shift = shift.tolist()
        i = 0
        for c in p:
            c *= -eta
            for v in x:
                w[i] = w[i] * factor + shift[i] + c * v
                i += 1
        self._w[:] = w

    def _logits(self, W: list, x: list) -> list:
        """W x, each class's products summed left to right."""
        z = []
        i = 0
        for _ in range(self._classes):
            total = 0.0
            for v in x:
                total += W[i] * v
                i += 1
            z.append(total)
        return z

    def flush(self) -> None:
        """Write the lists back into w and grad_sum and drop them."""
        if self._W is None:
            return
        self._w[:] = self._W
        self._grad_sum[:] = self._G
        self._W = self._G = None


def _coefficients(z: list, y: int, classes: int) -> list:
    """The softmax of the logits z less 1 at label y, in Python floats."""
    if y >= classes:
        raise ObjectiveError(f"label {y} out of range for {classes} classes")
    # exp never gets a positive argument, and a NaN logit makes every
    # coefficient NaN.  The loop sums left to right on every Python; sum()
    # compensates from 3.12 on
    top = max(z)
    total = 0.0
    e = []
    for v in z:
        v = math.exp(v - top)
        e.append(v)
        total += v
    p = [v / total for v in e]
    p[y] -= 1.0
    return p


def synthetic_blobs(seed: int, m: int, dim: int, classes: int, separation: float) -> Dataset:
    """Unit-variance Gaussian clusters with centers on a circle of the given radius.

    Labels are drawn uniformly, so classes are balanced in expectation.
    separation=0 collapses every center to the origin (chance-level task).
    """
    if classes < 2:
        raise ObjectiveError(f"need classes >= 2, got {classes}")
    if m < classes:
        raise ObjectiveError(f"need m >= classes, got m={m}, classes={classes}")
    if dim < 1:
        raise ObjectiveError(f"need dim >= 1, got {dim}")
    if not math.isfinite(separation):
        raise ObjectiveError(f"separation must be finite, got {separation}")
    rng = stream(seed, DATA_STREAM)
    centers = np.zeros((classes, dim))
    for k in range(classes):
        angle = 2.0 * math.pi * k / classes
        centers[k, 0] = separation * math.cos(angle)
        if dim > 1:
            centers[k, 1] = separation * math.sin(angle)
    labels = rng.integers(0, classes, size=m)
    features = centers[labels] + rng.standard_normal((m, dim))
    return Dataset(features, labels.astype(np.int64))


def gaussian_cloud(seed: int, m: int, dim: int, center, spread: float = 1.0) -> Dataset:
    """Single unlabeled Gaussian cluster, for quadratic targets."""
    if m < 1 or dim < 1:
        raise ObjectiveError(f"need m >= 1 and dim >= 1, got m={m}, dim={dim}")
    if not 0 <= spread < math.inf:  # NaN fails too
        raise ObjectiveError(f"spread must be a finite number >= 0, got {spread}")
    mu = np.asarray(center, dtype=float)
    if mu.shape not in ((), (dim,)):
        raise ObjectiveError(f"center must be one number or {dim} numbers, got {center}")
    if not np.isfinite(mu).all():
        raise ObjectiveError(f"center must be finite, got {center}")
    rng = stream(seed, DATA_STREAM)
    return Dataset(mu + spread * rng.standard_normal((m, dim)))


def _read_bytes(path: str | Path) -> bytes:
    p = Path(path)
    if p.suffix != ".gz":
        with open(p, "rb") as fh:
            return fh.read()
    try:
        with gzip.open(p, "rb") as fh:
            return fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise IdxError(f"{path}: not a valid gzip file: {exc}") from None


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Read an images/labels IDX pair into a Dataset with pixels scaled to [0, 1].

    Both files are big-endian: a 32-bit magic, 32-bit dimension sizes, then
    raw unsigned bytes.  Paths ending in .gz are decompressed transparently.
    """
    img, head = _read_idx(images_path, "images")
    count, rows, cols = head["count"], head["rows"], head["cols"]
    if count < 1 or rows * cols < 1:
        raise IdxError(f"{images_path}: {count} images of {rows}x{cols} pixels hold no data")
    lbl, head = _read_idx(labels_path, "labels")
    if head["count"] != count:
        raise CountMismatchError(
            f"{count} images in {images_path} but {head['count']} labels in {labels_path}"
        )

    # one pass from bytes to scaled floats, with no float copy of the raw bytes
    features = np.divide(np.frombuffer(img, dtype=np.uint8, offset=16), 255.0, dtype=np.float64)
    labels = np.frombuffer(lbl, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(features.reshape(count, rows * cols), labels)


def write_idx(images_path: str | Path, labels_path: str | Path, ds: Dataset) -> None:
    """Write a labeled dataset as an IDX pair, quantizing features to bytes.

    Features are min-max scaled to 0..255, so the round trip through
    load_idx is lossy for general floats but exact for byte-valued data.
    """
    if ds.labels is None:
        raise ObjectiveError("writing IDX needs a labeled dataset")
    top = int(ds.labels.max())
    if top > 255:
        raise ObjectiveError(f"IDX labels are bytes, at most 255; the largest label is {top}")
    lo = ds.features.min()
    hi = ds.features.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    # the same arithmetic as np.floor((features - lo) * scale + 0.5), in one
    # temporary instead of two
    pixels = ds.features - lo
    pixels *= scale
    pixels += 0.5
    np.floor(pixels, out=pixels)
    pixels = pixels.astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, ds.m, 1, ds.dim))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, ds.m))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def read_idx_header(path: str | Path) -> dict:
    """Header summary for one IDX file: kind, count, and payload geometry."""
    return _read_idx(path)[1]


def _read_idx(path: str | Path, kind: str | None = None) -> tuple[bytes, dict]:
    """An IDX file's bytes and header; given a kind, the file must hold it and its full payload."""
    data = _read_bytes(path)
    if len(data) < 8:
        raise TruncatedError(f"{path}: header needs at least 8 bytes, file has {len(data)}")
    magic, count = struct.unpack(">II", data[:8])
    head = {"magic": magic, "count": count}
    if magic == IMAGES_MAGIC:
        if len(data) < 16:
            raise TruncatedError(f"{path}: image header needs 16 bytes, file has {len(data)}")
        rows, cols = struct.unpack(">II", data[8:16])
        head.update(kind="images", rows=rows, cols=cols, payload_bytes=len(data) - 16)
    elif magic == LABELS_MAGIC:
        head.update(kind="labels", payload_bytes=len(data) - 8)
    else:
        raise BadMagicError(f"{path}: magic {magic:#010x} is neither images nor labels")
    if kind is None:
        return data, head
    if head["kind"] != kind:
        raise BadMagicError(f"{path}: magic {magic:#010x} marks {head['kind']}, not {kind}")
    expected = count * head.get("rows", 1) * head.get("cols", 1)
    if head["payload_bytes"] != expected:
        raise TruncatedError(
            f"{path}: payload is {head['payload_bytes']} bytes, expected {expected}"
        )
    return data, head
