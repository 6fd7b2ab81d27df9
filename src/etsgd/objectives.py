"""Loss and gradient oracles over in-memory datasets, plus dataset creation and IDX ingestion.

Two objective kinds are provided.  MeanQuadratic is the analytic sanity
check: its minimizer is the dataset mean, so simulator output can be
compared against a closed form.  Logistic is multinomial softmax
regression with an optional L2 term, enough to train on image data or on
synthetic Gaussian blobs.  Both share one surface: grad(w, ds, idx) at one
sample, and evaluate_many(ws, ds), one (loss, accuracy) pair per model
over a whole dataset.
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

# models per matrix product in Logistic.evaluate_many; 16 ten-class models
# on 3000 samples make a 3.7 MiB product.  A model keeps the bits of its
# one-model product only where the BLAS picks agreeing kernels for both
# widths: with OpenBLAS 0.3 (Haswell) up to 20 ten-class models do, while
# 2 or 3 classes over 784 features move in the last place
EVAL_BATCH = 16

# held-out rows * features from which the harness evaluates round snapshot
# batches on a worker thread while the simulation keeps stepping.  The worker
# gains only where a batch's GEMM and ufunc loops, which release the GIL,
# outweigh the GIL handoffs of its Python-level steps.  Measured on a 2-core
# host (ring n=5, 10 classes, eval every round, one BLAS thread, 10 paired
# runs each): 1000 x 784 ran 1.08x faster on the worker and 3000 x 784 1.25x,
# each in 9 of 10 pairs; from 300 x 784 to 700 x 784 the outcome went either
# way with the shape (0.90x to 1.10x), and 1000 x 2 blob sets were at parity
EVAL_THREAD_MIN = 750_000


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

    def grad(self, w: np.ndarray, ds: Dataset, idx: int) -> np.ndarray:
        self._check(w, ds, idx)
        return w - ds.features[idx]

    def evaluate_many(self, ws: list[np.ndarray], ds: Dataset) -> list[tuple[float, None]]:
        out = []
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
    list, from one pass of the logits over the dataset, with one matrix
    product per EVAL_BATCH models.  loss() and accuracy() each take their
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
        self._w_shape = (self.dim,)
        self._W_shape = (classes, features_dim + 1)
        # grad's sample row with the bias input 1 after it
        self._xt = np.ones(features_dim + 1)

    def grad(self, w: np.ndarray, ds: Dataset, idx: int) -> np.ndarray:
        """The gradient at one sample, as a new array.

        The sample row is copied into a buffer this object keeps, so grad
        must not be called from two threads at once.
        """
        features, labels = ds.features, ds.labels
        if not (
            w.shape == self._w_shape and labels is not None
            and features.shape[1] == self.features_dim and 0 <= idx < features.shape[0]
        ):
            self._check(w, ds, idx)
        y = int(labels[idx])
        if y >= self.classes:
            raise ObjectiveError(f"label {y} out of range for {self.classes} classes")
        W = w.reshape(self._W_shape)
        xt = self._xt
        xt[:-1] = features[idx]
        z = np.dot(W, xt)
        # the max np.maximum.reduce gives, for less overhead; a NaN logit makes
        # every p NaN either way
        p = np.exp(z - max(z.tolist()))
        # the ufunc reduction .sum() wraps, without the wrapper's cost
        p /= np.add.reduce(p)
        p[y] -= 1.0
        g = p[:, None] * xt
        if self.l2:
            g = g + self.l2 * W
        return g.ravel()

    def evaluate_many(self, ws: list[np.ndarray], ds: Dataset) -> list[tuple[float, float]]:
        for w in ws:
            self._check(w, ds, 0)
        rows = np.arange(ds.m)
        out = []
        for first in range(0, len(ws), EVAL_BATCH):
            chunk = ws[first : first + EVAL_BATCH]
            Ws = [w.reshape(self.classes, self.features_dim + 1) for w in chunk]
            # one GEMM per chunk: model b owns columns b*classes.. of the
            # product, and adding its bias copies them out as the C-ordered
            # (m, classes) array a one-model product gives
            stacked = ds.features @ np.concatenate([W[:, :-1] for W in Ws]).T
            for b, (w, W) in enumerate(zip(chunk, Ws)):
                logits = stacked[:, b * self.classes : (b + 1) * self.classes] + W[:, -1]
                top = logits.argmax(axis=1)
                zmax = logits[rows, top]
                # log-sum-exp with the max term split out through log1p, and the
                # (zmax - picked) cancellation done before adding the small term, so
                # confidently-correct samples keep full relative precision
                rest = np.exp(logits - zmax[:, None])
                rest[rows, top] = 0.0
                picked = logits[rows, ds.labels]
                ce = float(np.mean((zmax - picked) + np.log1p(rest.sum(axis=1))))
                if self.l2:
                    ce += 0.5 * self.l2 * float(w @ w)
                out.append((ce, float(np.mean(top == ds.labels))))
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
    img = _read_bytes(images_path)
    if len(img) < 16:
        raise TruncatedError(f"{images_path}: header needs 16 bytes, file has {len(img)}")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IMAGES_MAGIC:
        raise BadMagicError(f"{images_path}: magic {magic:#010x} != {IMAGES_MAGIC:#010x}")
    if count < 1 or rows * cols < 1:
        raise IdxError(f"{images_path}: {count} images of {rows}x{cols} pixels hold no data")
    expected = count * rows * cols
    if len(img) - 16 != expected:
        raise TruncatedError(
            f"{images_path}: payload is {len(img) - 16} bytes, expected {expected}"
        )

    lbl = _read_bytes(labels_path)
    if len(lbl) < 8:
        raise TruncatedError(f"{labels_path}: header needs 8 bytes, file has {len(lbl)}")
    lmagic, lcount = struct.unpack(">II", lbl[:8])
    if lmagic != LABELS_MAGIC:
        raise BadMagicError(f"{labels_path}: magic {lmagic:#010x} != {LABELS_MAGIC:#010x}")
    if len(lbl) - 8 != lcount:
        raise TruncatedError(f"{labels_path}: payload is {len(lbl) - 8} bytes, expected {lcount}")
    if lcount != count:
        raise CountMismatchError(
            f"{count} images in {images_path} but {lcount} labels in {labels_path}"
        )

    features = np.frombuffer(img, dtype=np.uint8, offset=16).astype(np.float64) / 255.0
    labels = np.frombuffer(lbl, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(features.reshape(count, rows * cols), labels)


def write_idx(images_path: str | Path, labels_path: str | Path, ds: Dataset) -> None:
    """Write a labeled dataset as an IDX pair, quantizing features to bytes.

    Features are min-max scaled to 0..255, so the round trip through
    load_idx is lossy for general floats but exact for byte-valued data.
    """
    if ds.labels is None:
        raise ObjectiveError("writing IDX needs a labeled dataset")
    lo = ds.features.min()
    hi = ds.features.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.floor((ds.features - lo) * scale + 0.5).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, ds.m, 1, ds.dim))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, ds.m))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def read_idx_header(path: str | Path) -> dict:
    """Header summary for one IDX file: kind, count, and payload geometry."""
    data = _read_bytes(path)
    if len(data) < 8:
        raise TruncatedError(f"{path}: header needs at least 8 bytes, file has {len(data)}")
    magic = struct.unpack(">I", data[:4])[0]
    if magic == IMAGES_MAGIC:
        if len(data) < 16:
            raise TruncatedError(f"{path}: image header needs 16 bytes, file has {len(data)}")
        _, count, rows, cols = struct.unpack(">IIII", data[:16])
        return {
            "kind": "images",
            "magic": magic,
            "count": count,
            "rows": rows,
            "cols": cols,
            "payload_bytes": len(data) - 16,
        }
    if magic == LABELS_MAGIC:
        count = struct.unpack(">I", data[4:8])[0]
        return {"kind": "labels", "magic": magic, "count": count, "payload_bytes": len(data) - 8}
    raise BadMagicError(f"{path}: magic {magic:#010x} is neither images nor labels")
