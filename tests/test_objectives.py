"""Loss/gradient oracles, synthetic data generators, and IDX round trips."""
import gzip
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etsgd import objectives
from etsgd.objectives import (
    EVAL_BATCH,
    FLOAT_STEP_MAX,
    BadMagicError,
    CountMismatchError,
    Dataset,
    FloatLogisticStepper,
    IMAGES_MAGIC,
    IdxError,
    LABELS_MAGIC,
    Logistic,
    LogisticStepper,
    MeanQuadratic,
    ObjectiveError,
    TruncatedError,
    gaussian_cloud,
    load_idx,
    read_idx_header,
    synthetic_blobs,
    write_idx,
)
from test_node import assert_close_to_dense


def one_sample(ds: Dataset, idx: int) -> Dataset:
    labels = None if ds.labels is None else ds.labels[idx:idx + 1]
    return Dataset(ds.features[idx:idx + 1], labels)


def reference_grad(obj: Logistic, w, ds: Dataset, idx: int) -> np.ndarray:
    """Logistic.grad in its plain formulation: a fresh bias-augmented row by
    np.concatenate, the logits by @, and the max by np.maximum.reduce."""
    W = w.reshape(obj.classes, obj.features_dim + 1)
    xt = np.concatenate((ds.features[idx], np.ones(1)))
    z = W @ xt
    z -= np.maximum.reduce(z)
    p = np.exp(z)
    p /= np.add.reduce(p)
    p[int(ds.labels[idx])] -= 1.0
    g = p[:, None] * xt
    if obj.l2:
        g = g + obj.l2 * W
    return g.ravel()


def reference_evaluate_many(obj: Logistic, ws, ds: Dataset) -> list:
    """Logistic.evaluate_many one model at a time: the same GEMM per EVAL_BATCH
    chunk, then each model's loss and accuracy from its own columns."""
    rows = np.arange(ds.m)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(ws), EVAL_BATCH):
            chunk = ws[first : first + EVAL_BATCH]
            Ws = [w.reshape(obj.classes, obj.features_dim + 1) for w in chunk]
            stacked = ds.features @ np.concatenate([W[:, :-1] for W in Ws]).T
            for b, (w, W) in enumerate(zip(chunk, Ws)):
                logits = stacked[:, b * obj.classes : (b + 1) * obj.classes] + W[:, -1]
                top = logits.argmax(axis=1)
                zmax = logits[rows, top]
                rest = np.exp(logits - zmax[:, None])
                rest[rows, top] = 0.0
                picked = logits[rows, ds.labels]
                ce = float(np.mean((zmax - picked) + np.log1p(rest.sum(axis=1))))
                if obj.l2:
                    ce += 0.5 * obj.l2 * float(w @ w)
                out.append((ce, float(np.mean(top == ds.labels))))
    return out


def bits(results) -> list:
    """(loss, accuracy) pairs as their float64 bytes, so NaN equals NaN."""
    return [(np.float64(loss).tobytes(), np.float64(acc).tobytes()) for loss, acc in results]


class TestDataset:
    def test_shape_checks(self):
        with pytest.raises(ObjectiveError):
            Dataset(np.zeros(3))  # not 2-D
        with pytest.raises(ObjectiveError):
            Dataset(np.zeros((0, 2)))
        with pytest.raises(ObjectiveError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ObjectiveError):
            Dataset(np.zeros((2, 2)), np.array([-1, 0]))

    @pytest.mark.parametrize("labels", [np.array([0.5, 1, 1, 1]), np.ones(4), np.ones(4, bool)])
    def test_labels_must_be_integers(self, labels):
        # a float label would reach evaluate_many's index arrays; a whole-valued
        # float or a bool is refused too, by dtype
        with pytest.raises(ObjectiveError, match=f"labels must be integers, got dtype {labels.dtype}"):
            Dataset(np.zeros((4, 2)), labels)

    def test_properties(self):
        ds = Dataset(np.zeros((4, 3)))
        assert (ds.m, ds.dim) == (4, 3)


class TestMeanQuadratic:
    def test_gradient_is_displacement(self):
        obj = MeanQuadratic(2)
        ds = Dataset(np.array([[3.0, 5.0]]))
        g = obj.grad(np.array([1.0, 1.0]), ds, 0)
        assert np.array_equal(g, [-2.0, -4.0])

    def test_optimum_is_mean(self):
        ds = gaussian_cloud(3, 40, 4, (1.0, -2.0, 0.0, 5.0), 2.0)
        obj = MeanQuadratic(4)
        opt = obj.optimum(ds)
        assert np.allclose(opt, ds.features.mean(axis=0))
        # the mean is a strict minimizer
        for shift in np.eye(4):
            assert obj.loss(opt + 0.1 * shift, ds) > obj.loss(opt, ds)

    def test_loss_zero_on_matching_point(self):
        obj = MeanQuadratic(3)
        w = np.array([1.0, 2.0, 3.0])
        assert obj.loss(w, Dataset(w[None, :])) == 0.0

    def test_accuracy_undefined(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert MeanQuadratic(2).evaluate_many([np.zeros(2)], ds) == [(3.5, None)]

    def test_index_bounds(self):
        obj = MeanQuadratic(2)
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ObjectiveError):
            obj.grad(np.zeros(2), ds, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ObjectiveError):
            MeanQuadratic(2).loss(np.zeros(2), Dataset(np.zeros((1, 3))))

    def test_bad_construction(self):
        with pytest.raises(ObjectiveError, match="^dim must be >= 1, got 0$"):
            MeanQuadratic(0)


class TestLogistic:
    def test_parameter_count(self):
        assert Logistic(2, 2).dim == 6
        assert Logistic(784, 10).dim == 7850

    def test_gradient_matches_finite_differences(self):
        obj = Logistic(3, 4, 0.05)
        ds = synthetic_blobs(9, 30, 3, 4, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(0, 1, obj.dim)
            idx = int(rng.integers(ds.m))
            g = obj.grad(w, ds, idx)
            probe = one_sample(ds, idx)
            eps = 1e-6
            fd = np.empty_like(g)
            for j in range(obj.dim):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd[j] = (obj.loss(wp, probe) - obj.loss(wm, probe)) / (2 * eps)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_gradient_matches_outer_product_reference(self):
        # reference formulation with np.append and np.outer: the same
        # products and sums, so the oracle must equal it bit for bit
        obj = Logistic(3, 4, 0.05)
        ds = synthetic_blobs(9, 30, 3, 4, 2.0)
        w = np.random.default_rng(6).normal(0, 1, obj.dim)
        W = w.reshape(4, 4)
        for idx in range(ds.m):
            xt = np.append(ds.features[idx], 1.0)
            z = W @ xt
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            p[ds.labels[idx]] -= 1.0
            ref = (np.outer(p, xt) + obj.l2 * W).ravel()
            assert np.array_equal(obj.grad(w, ds, idx), ref)

    def test_evaluate_gives_loss_and_accuracy(self):
        obj = Logistic(3, 4, 0.05)
        ds = synthetic_blobs(2, 40, 3, 4, 2.0)
        w = np.random.default_rng(3).normal(0, 1, obj.dim)
        W = w.reshape(4, 4)
        z = ds.features @ W[:, :-1].T + W[:, -1]
        ce = np.log(np.exp(z).sum(axis=1)) - z[np.arange(ds.m), ds.labels]
        [(loss, acc)] = obj.evaluate_many([w], ds)
        assert loss == pytest.approx(ce.mean() + 0.5 * 0.05 * float(w @ w), rel=1e-12)
        assert acc == float(np.mean(z.argmax(axis=1) == ds.labels))

    def test_uniform_loss_at_zero(self):
        obj = Logistic(2, 4)
        ds = synthetic_blobs(0, 100, 2, 4, 3.0)
        assert obj.loss(np.zeros(obj.dim), ds) == pytest.approx(np.log(4))

    def test_argmax_ties_pick_lowest_class(self):
        obj = Logistic(2, 3)
        ds = Dataset(np.array([[0.5, -0.5], [1.0, 2.0]]), np.array([0, 2]))
        # zero weights leave all logits equal, so every prediction is class 0
        assert obj.accuracy(np.zeros(obj.dim), ds) == 0.5

    def test_loss_invariant_to_row_order(self):
        obj = Logistic(2, 2)
        ds = synthetic_blobs(4, 50, 2, 2, 1.0)
        perm = np.random.default_rng(0).permutation(50)
        shuffled = Dataset(ds.features[perm], ds.labels[perm])
        w = np.random.default_rng(1).normal(0, 1, obj.dim)
        assert obj.loss(w, ds) == pytest.approx(obj.loss(w, shuffled), rel=1e-12)

    def test_l2_raises_loss_for_nonzero_weights(self):
        ds = synthetic_blobs(4, 50, 2, 2, 1.0)
        w = np.ones(6)
        plain = Logistic(2, 2, 0.0).loss(w, ds)
        penalized = Logistic(2, 2, 0.1).loss(w, ds)
        assert penalized == pytest.approx(plain + 0.05 * float(w @ w))

    def test_needs_labels(self):
        with pytest.raises(ObjectiveError):
            Logistic(2, 2).loss(np.zeros(6), Dataset(np.zeros((2, 2))))

    def test_label_out_of_range(self):
        obj = Logistic(2, 2)
        ds = Dataset(np.zeros((1, 2)), np.array([5]))
        with pytest.raises(ObjectiveError):
            obj.grad(np.zeros(6), ds, 0)
        # evaluate_many checks all labels once per call and names the first bad one
        ds = Dataset(np.zeros((5, 2)), np.array([0, 1, 5, 1, 9]))
        with pytest.raises(ObjectiveError, match="label 5 out of range for 2 classes"):
            obj.evaluate_many([np.zeros(6)], ds)
        # a label equal to the class count is out as well
        ds = Dataset(np.zeros((2, 2)), np.array([1, 2], dtype=np.uint8))
        with pytest.raises(ObjectiveError, match="label 2 out of range for 2 classes"):
            obj.evaluate_many([np.zeros(6), np.ones(6)], ds)

    @pytest.mark.parametrize(
        "w, ds, idx",
        [
            (np.zeros(7), Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int)), 0),
            (np.zeros((2, 3)), Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int)), 0),
            (np.zeros(6), Dataset(np.zeros((3, 3)), np.zeros(3, dtype=int)), 0),
            (np.zeros(6), Dataset(np.zeros((3, 2))), 0),
            (np.zeros(6), Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int)), -1),
            (np.zeros(6), Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int)), 3),
        ],
        ids=["w-length", "w-matrix", "dataset-dim", "unlabeled", "idx-1", "idx-m"],
    )
    def test_grad_rejects_bad_input(self, w, ds, idx):
        with pytest.raises(ObjectiveError):
            Logistic(2, 2).grad(w, ds, idx)

    @given(st.data())
    def test_grad_matches_plain_formulation(self, data):
        # 2 to 12 classes crosses the 8 terms from which np.add.reduce sums pairwise
        features_dim = data.draw(st.integers(1, 40), label="features_dim")
        classes = data.draw(st.integers(2, 12), label="classes")
        obj = Logistic(features_dim, classes, data.draw(st.sampled_from([0.0, 0.05])))
        m = data.draw(st.integers(1, 4), label="m")
        features = data.draw(arrays(np.float64, (m, features_dim), elements=st.floats(-1, 1)))
        labels = data.draw(arrays(np.int64, m, elements=st.integers(0, classes - 1)))
        ds = Dataset(features, labels)
        # every logit within +-50
        bound = 50.0 / (features_dim + 1)
        w = data.draw(arrays(np.float64, obj.dim, elements=st.floats(-bound, bound)))
        idx = data.draw(st.integers(0, m - 1), label="idx")
        g = obj.grad(w, ds, idx)
        assert np.array_equal(g, reference_grad(obj, w, ds, idx))
        kept = g.copy()
        obj.grad(-w, ds, m - 1 - idx)
        assert np.array_equal(g, kept)

    def test_bad_construction(self):
        with pytest.raises(ObjectiveError):
            Logistic(0, 2)
        with pytest.raises(ObjectiveError):
            Logistic(2, 1)
        for l2 in (-0.1, math.nan, math.inf):
            with pytest.raises(ObjectiveError, match="^l2 must"):
                Logistic(2, 2, l2)


STEPPERS = {"float": FloatLogisticStepper, "block": LogisticStepper}


def logistic_on(path, features=2, classes=2, l2=0.0) -> Logistic:
    """Logistic(features, classes, l2), with classes raised past FLOAT_STEP_MAX for the block path."""
    if path == "block":
        classes = max(classes, FLOAT_STEP_MAX // (features + 1) + 1)
    obj = Logistic(features, classes, l2)
    assert (obj.dim <= FLOAT_STEP_MAX) == (path == "float")
    return obj


@pytest.mark.parametrize("path", list(STEPPERS))
class TestLogisticStepper:
    @pytest.mark.parametrize("case", ["w-length", "w-matrix", "dataset-dim", "unlabeled"])
    def test_build_checks_shapes_once(self, path, case):
        obj = logistic_on(path)
        w, ds = np.zeros(obj.dim), Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int))
        if case == "w-length":
            w = np.zeros(obj.dim + 1)
        elif case == "w-matrix":
            w = np.zeros(obj._W_shape)
        elif case == "dataset-dim":
            ds = Dataset(np.zeros((3, 3)), np.zeros(3, dtype=int))
        else:
            ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ObjectiveError):
            obj.stepper(w, np.zeros(w.shape), ds)

    @pytest.mark.parametrize("idx", [-1, 3])
    def test_step_checks_index(self, path, idx):
        obj = logistic_on(path)
        ds = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int))
        stepper = obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)
        assert isinstance(stepper, STEPPERS[path])
        with pytest.raises(ObjectiveError, match=f"sample index {idx} out of range for m=3"):
            stepper.step(idx, 0.1)

    def test_step_checks_label(self, path):
        obj = logistic_on(path)
        k = obj.classes
        ds = Dataset(np.zeros((2, 2)), np.array([0, k]))
        stepper = obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)
        stepper.step(0, 0.1)
        with pytest.raises(ObjectiveError, match=f"label {k} out of range for {k} classes"):
            stepper.step(1, 0.1)

    def test_mix_step_checks_index_and_label(self, path):
        obj = logistic_on(path)
        k = obj.classes
        ds = Dataset(np.zeros((2, 2)), np.array([0, k]))
        stepper = obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)
        with pytest.raises(ObjectiveError, match="sample index 2 out of range for m=2"):
            stepper.mix_step(2, 0.1, 1.0, np.zeros(obj.dim))
        with pytest.raises(ObjectiveError, match=f"label {k} out of range for {k} classes"):
            stepper.mix_step(1, 0.1, 1.0, np.zeros(obj.dim))

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_mix_step_lands_the_block_first_and_keeps_grad_sum(self, path, l2):
        # scale * w + shift - eta * g(w), with g read at the model the pending steps reach
        obj = logistic_on(path, features=3, classes=4, l2=l2)
        ds = synthetic_blobs(2, 30, 3, obj.classes, 2.0)
        w, grad_sum = np.zeros(obj.dim), np.zeros(obj.dim)
        stepper = obj.stepper(w, grad_sum, ds)
        w_dense, sum_dense = np.zeros(obj.dim), np.zeros(obj.dim)
        shift = np.linspace(-0.3, 0.3, obj.dim)
        for idx in range(3):
            stepper.step(idx, 0.2)
            g = obj.grad(w_dense, ds, idx)
            w_dense -= 0.2 * g
            sum_dense += g
        stepper.mix_step(3, 0.1, 0.9, shift)
        w_dense = 0.9 * w_dense + shift - 0.1 * obj.grad(w_dense, ds, 3)
        assert_close_to_dense(w, w_dense)
        assert_close_to_dense(grad_sum, sum_dense)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_label_list_keeps_range_check(self, path, dtype):
        # the stepper reads labels from a list of Python ints made when it is built;
        # a caller-built Dataset may hold any integer label dtype, unsigned ones included,
        # and a label equal to the class count is out
        obj = logistic_on(path)
        k = obj.classes
        ds = Dataset(np.zeros((3, 2)), np.array([1, 0, k], dtype=dtype))
        stepper = obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)
        stepper.step(0, 0.1)
        stepper.step(1, 0.1)
        with pytest.raises(ObjectiveError, match=f"label {k} out of range for {k} classes"):
            stepper.step(2, 0.1)

    @pytest.mark.parametrize(
        "logits",
        [(math.inf, 0.0), (-math.inf, -math.inf), (math.inf, -math.inf), (math.nan, 0.0),
         (0.0, math.nan), (1.0, math.nan, -math.inf)],
    )
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_non_finite_logits_make_every_coefficient_nan(self, path, logits, l2):
        # the softmax's max shift keeps every exp argument <= 0 or NaN, so no overflow
        # is raised, and the coefficients turn NaN as Logistic.grad's do
        obj = logistic_on(path, classes=len(logits), l2=l2)
        # the block path's extra classes repeat the last logit, which keeps the case
        logits += logits[-1:] * (obj.classes - len(logits))
        ds = Dataset(np.array([[0.5, -1.0], [2.0, 0.0]]), np.array([1, 0]))
        w = np.zeros(obj.dim)
        w.reshape(obj._W_shape)[:, -1] = logits  # the bias column: z = W x = logits
        w_dense = w.copy()
        grad_sum = np.zeros(obj.dim)
        stepper = obj.stepper(w, grad_sum, ds)
        stepper.step(0, 0.1)
        stepper.flush()
        with np.errstate(invalid="ignore"):  # numpy warns of inf - inf; the stepper does not
            g = obj.grad(w_dense, ds, 0)
        w_dense -= 0.1 * g
        assert np.isnan(g).all() and np.isnan(w_dense).all()
        assert np.isnan(grad_sum).all() and np.isnan(w).all()

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_new_step_size_lands_the_block_first(self, path, l2):
        # a block holds the steps of one step size; the node closes a round, and so
        # flushes, before its step size changes, but a stepper does not rely on it
        obj = logistic_on(path, features=3, classes=4, l2=l2)
        ds = synthetic_blobs(2, 30, 3, obj.classes, 2.0)
        w, grad_sum = np.zeros(obj.dim), np.zeros(obj.dim)
        stepper = obj.stepper(w, grad_sum, ds)
        w_dense, sum_dense = np.zeros(obj.dim), np.zeros(obj.dim)
        for idx, eta in enumerate([0.1, 0.1, 0.3, 0.3, 0.3, 0.05, 0.05]):
            stepper.step(idx, eta)
            g = obj.grad(w_dense, ds, idx)
            w_dense -= eta * g
            sum_dense += g
        stepper.flush()
        assert_close_to_dense(w, w_dense)
        assert_close_to_dense(grad_sum, sum_dense)


def test_stepper_kind_switches_past_float_step_max(monkeypatch):
    # FLOAT_STEP_MAX parameters still step in floats, one more lands blocks
    obj = Logistic(3, 4)
    ds = Dataset(np.zeros((1, 3)), np.zeros(1, dtype=int))
    for limit, kind in ((obj.dim, FloatLogisticStepper), (obj.dim - 1, LogisticStepper)):
        monkeypatch.setattr(objectives, "FLOAT_STEP_MAX", limit)
        assert type(obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)) is kind
    monkeypatch.undo()
    # the blobs workloads' 2 x 3 model steps in floats, the 784-pixel IDX one in blocks
    for features, classes, kind in ((2, 2, FloatLogisticStepper), (784, 10, LogisticStepper)):
        obj = Logistic(features, classes)
        ds = Dataset(np.zeros((1, features)), np.zeros(1, dtype=int))
        assert type(obj.stepper(np.zeros(obj.dim), np.zeros(obj.dim), ds)) is kind


def test_float_stepper_holds_its_steps_until_flush_and_rereads_after():
    # w and grad_sum keep their values until flush(); what the caller does to them
    # after a flush, as a node subtracting a delivery, the next step starts from
    obj = Logistic(2, 3, 0.05)
    ds = synthetic_blobs(4, 20, 2, 3, 2.0)
    w, grad_sum = np.zeros(obj.dim), np.zeros(obj.dim)
    stepper = obj.stepper(w, grad_sum, ds)
    assert isinstance(stepper, FloatLogisticStepper)
    w_dense, sum_dense = np.zeros(obj.dim), np.zeros(obj.dim)

    def both_step(idx):
        stepper.step(idx, 0.2)
        g = obj.grad(w_dense, ds, idx)
        w_dense[:] -= 0.2 * g
        sum_dense[:] += g

    for idx in range(3):
        both_step(idx)
        assert not w.any() and not grad_sum.any()
    stepper.flush()
    assert_close_to_dense(w, w_dense)
    assert_close_to_dense(grad_sum, sum_dense)
    payload = np.linspace(-1.0, 1.0, obj.dim)
    for a in (w, w_dense):
        a -= payload
    grad_sum.fill(0.0)
    sum_dense.fill(0.0)
    both_step(3)
    assert np.array_equal(grad_sum, np.zeros(obj.dim))
    stepper.flush()
    assert_close_to_dense(w, w_dense)
    assert_close_to_dense(grad_sum, sum_dense)


class TestEvaluateMany:
    """A model evaluated in a batch gets exactly what it gets evaluated alone."""

    @staticmethod
    def idx_shaped(rng, labeled=True):
        pixels = rng.integers(0, 256, (300, 784)) / 255.0
        return Dataset(pixels, rng.integers(0, 10, 300) if labeled else None)

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_logistic_matches_evaluate(self, l2):
        rng = np.random.default_rng(9)
        ds = self.idx_shaped(rng)
        obj = Logistic(784, 10, l2)
        # two full chunks and a partial one
        ws = [rng.normal(0, 0.05, obj.dim) for _ in range(2 * EVAL_BATCH + 3)]
        assert obj.evaluate_many(ws, ds) == [obj.evaluate_many([w], ds)[0] for w in ws]

    @given(st.data())
    def test_chunk_pass_matches_one_model_at_a_time(self, data):
        # bit for bit against the loop over models, with non-finite and huge
        # entries; an all-zero model ties every logit, so its top class is 0
        if data.draw(st.booleans(), label="idx shape"):
            features_dim, classes, m = 784, 10, 40
        else:
            features_dim = data.draw(st.integers(1, 12), label="features_dim")
            classes = data.draw(st.integers(2, 10), label="classes")
            m = data.draw(st.integers(1, 30), label="m")
        obj = Logistic(features_dim, classes, data.draw(st.sampled_from([0.0, 1e-3, 0.5])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        special = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0])

        def sprinkle(a):
            # a few entries set to drawn values, at drawn flat positions
            for _ in range(data.draw(st.integers(0, 3))):
                a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(special)
            return a

        features = sprinkle(rng.normal(0, 1, (m, features_dim)))
        labels = rng.integers(0, classes, m)
        ws = []
        for _ in range(data.draw(st.integers(0, 2 * EVAL_BATCH + 3), label="models")):
            scale = data.draw(st.sampled_from([0.0, 0.05, 1.0, 100.0]))
            ws.append(sprinkle(rng.normal(0, 1, obj.dim) * scale))
        ds = Dataset(features, labels)
        assert bits(obj.evaluate_many(ws, ds)) == bits(reference_evaluate_many(obj, ws, ds))

    def test_quadratic_matches_evaluate(self):
        rng = np.random.default_rng(10)
        ds = self.idx_shaped(rng, labeled=False)
        obj = MeanQuadratic(784)
        ws = [rng.random(784) for _ in range(2 * EVAL_BATCH + 3)]
        assert obj.evaluate_many(ws, ds) == [obj.evaluate_many([w], ds)[0] for w in ws]

    def test_empty_and_bad_models(self):
        ds = synthetic_blobs(0, 20, 2, 3, 3.0)
        obj = Logistic(2, 3)
        assert obj.evaluate_many([], ds) == []
        assert MeanQuadratic(2).evaluate_many([], ds) == []
        with pytest.raises(ObjectiveError):
            obj.evaluate_many([np.zeros(obj.dim), np.zeros(obj.dim + 1)], ds)


class TestGenerators:
    def test_blobs_deterministic_per_seed(self):
        a = synthetic_blobs(7, 100, 2, 3, 4.0)
        b = synthetic_blobs(7, 100, 2, 3, 4.0)
        c = synthetic_blobs(8, 100, 2, 3, 4.0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_blobs_zero_separation_collapses_centers(self):
        ds = synthetic_blobs(0, 500, 2, 2, 0.0)
        by_class = [ds.features[ds.labels == k].mean(axis=0) for k in (0, 1)]
        assert np.linalg.norm(by_class[0] - by_class[1]) < 0.5

    def test_blobs_separation_spreads_centers(self):
        ds = synthetic_blobs(0, 500, 2, 2, 10.0)
        by_class = [ds.features[ds.labels == k].mean(axis=0) for k in (0, 1)]
        assert np.linalg.norm(by_class[0] - by_class[1]) > 15.0

    def test_blobs_validation(self):
        with pytest.raises(ObjectiveError):
            synthetic_blobs(0, 1, 2, 2, 1.0)  # m < classes
        with pytest.raises(ObjectiveError):
            synthetic_blobs(0, 10, 0, 2, 1.0)
        with pytest.raises(ObjectiveError):
            synthetic_blobs(0, 10, 2, 1, 1.0)
        for separation in (math.nan, -math.inf):
            with pytest.raises(ObjectiveError, match="^separation must"):
                synthetic_blobs(0, 10, 2, 2, separation)

    def test_gaussian_cloud_center_and_spread(self):
        ds = gaussian_cloud(2, 2000, 2, (5.0, -1.0), 0.5)
        assert np.allclose(ds.features.mean(axis=0), [5.0, -1.0], atol=0.1)
        assert ds.labels is None
        exact = gaussian_cloud(2, 3, 2, (1.0, 2.0), 0.0)
        assert np.array_equal(exact.features, [[1.0, 2.0]] * 3)

    def test_gaussian_cloud_validation(self):
        for spread in (-1.0, math.nan, math.inf):
            with pytest.raises(ObjectiveError, match="^spread must"):
                gaussian_cloud(0, 10, 2, (0.0, 0.0), spread)
        for center in ((0.0, math.nan), (1.0, 2.0, 3.0), ()):
            with pytest.raises(ObjectiveError, match="^center must"):
                gaussian_cloud(0, 10, 2, center, 1.0)


def images_bytes(count=1, rows=1, cols=1, payload=b"\xff", magic=IMAGES_MAGIC) -> bytes:
    return struct.pack(">IIII", magic, count, rows, cols) + payload


def labels_bytes(count=1, payload=b"\x01", magic=LABELS_MAGIC) -> bytes:
    return struct.pack(">II", magic, count) + payload


class TestIdx:
    def test_minimal_pair(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(images_bytes())
        lbl.write_bytes(labels_bytes())
        ds = load_idx(img, lbl)
        assert ds.features.shape == (1, 1)
        assert ds.features[0, 0] == 1.0  # 255/255
        assert ds.labels.tolist() == [1]

    def test_bad_magic(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(images_bytes(magic=0xDEADBEEF))
        lbl.write_bytes(labels_bytes())
        with pytest.raises(BadMagicError):
            load_idx(img, lbl)
        img.write_bytes(images_bytes())
        lbl.write_bytes(labels_bytes(magic=0x00000017))
        with pytest.raises(BadMagicError):
            load_idx(img, lbl)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(images_bytes(count=2, payload=b"\x00"))  # 1 byte short
        lbl.write_bytes(labels_bytes(count=2, payload=b"\x00\x01"))
        with pytest.raises(TruncatedError):
            load_idx(img, lbl)
        img.write_bytes(b"\x00\x00")  # shorter than any header
        with pytest.raises(TruncatedError):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(images_bytes(count=2, payload=b"\x00\x01"))
        lbl.write_bytes(labels_bytes(count=3, payload=b"\x00\x01\x02"))
        with pytest.raises(CountMismatchError):
            load_idx(img, lbl)

    def test_error_types_are_distinct(self):
        assert issubclass(BadMagicError, IdxError)
        assert issubclass(TruncatedError, IdxError)
        assert issubclass(CountMismatchError, IdxError)
        assert not issubclass(BadMagicError, TruncatedError)

    def test_write_read_round_trip(self, tmp_path):
        # byte-valued features survive the min-max quantization exactly
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(20, 5)).astype(np.float64)
        pixels[0, 0], pixels[1, 0] = 0.0, 255.0  # pin the min-max range
        ds = Dataset(pixels / 255.0, rng.integers(0, 4, size=20))
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        write_idx(img, lbl, ds)
        back = load_idx(img, lbl)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_gzip_transparent(self, tmp_path):
        img = tmp_path / "img.idx.gz"
        lbl = tmp_path / "lbl.idx.gz"
        with gzip.open(img, "wb") as fh:
            fh.write(images_bytes())
        with gzip.open(lbl, "wb") as fh:
            fh.write(labels_bytes())
        ds = load_idx(img, lbl)
        assert ds.features[0, 0] == 1.0

    def test_header_summary(self, tmp_path):
        img = tmp_path / "img.idx"
        img.write_bytes(images_bytes(count=3, rows=2, cols=2, payload=bytes(12)))
        info = read_idx_header(img)
        assert info["kind"] == "images"
        assert (info["count"], info["rows"], info["cols"]) == (3, 2, 2)
        assert info["payload_bytes"] == 12
        lbl = tmp_path / "lbl.idx"
        lbl.write_bytes(labels_bytes(count=3, payload=bytes(3)))
        assert read_idx_header(lbl)["kind"] == "labels"
        junk = tmp_path / "junk.idx"
        junk.write_bytes(b"\x01\x02\x03\x04\x05\x06\x07\x08")
        with pytest.raises(BadMagicError):
            read_idx_header(junk)

    def test_write_quantizes_in_one_temporary(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((400, 100)), rng.integers(0, 10, size=400))
        features = ds.features
        lo, hi = features.min(), features.max()
        expected = np.floor((features - lo) * (255.0 / (hi - lo)) + 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            write_idx(tmp_path / "img.idx", tmp_path / "lbl.idx", ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float temporary and the bytes, where the expression above holds two floats
        assert peak <= 1.25 * features.nbytes
        assert (tmp_path / "img.idx").read_bytes()[16:] == expected.tobytes()

    def test_write_rejects_labels_above_a_byte(self, tmp_path):
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx(img, lbl, Dataset(np.zeros((3, 1)), np.array([0, 255, 7])))
        assert load_idx(img, lbl).labels.tolist() == [0, 255, 7]
        img.unlink()
        with pytest.raises(ObjectiveError, match="largest label is 256$"):
            write_idx(img, lbl, Dataset(np.zeros((3, 1)), np.array([0, 256, 7])))
        assert not img.exists()

    def test_write_requires_labels(self, tmp_path):
        with pytest.raises(ObjectiveError):
            write_idx(tmp_path / "a", tmp_path / "b", Dataset(np.zeros((1, 1))))
