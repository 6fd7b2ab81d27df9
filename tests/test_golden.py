"""Golden digests: the bytes five small runs produce are pinned.

Each config's final weights, written trace and exported CSV are hashed
with sha256 and compared against digests recorded from a known-good
build.  A hot-path change that claims to be bit-identical must leave all
of them unchanged; a change that alters semantics on purpose says so and
re-pins them.  The digests assume IEEE double arithmetic with the
summation order of the numpy/BLAS build the suite runs on.  The weights
and CSVs of the Logistic configs depend on the C library's exp, which a
stepper's softmax calls through math.exp.  The two blobs configs have 6
parameters, at most objectives.FLOAT_STEP_MAX, so their steppers step in
Python floats and sum each logit left to right; the two IDX configs have
21 and 130, so theirs land blocks of STEP_BLOCK steps, and their weights
and CSVs also depend on the BLAS kernel chosen for the block's product,
as the EVAL_BATCH note says of evaluation.  No trace depends on any of
this, since virtual time and the lag gate never read model values.  The
threshold config's stepper lands each step with its mix_step; its trace
reads the model values only through the drift gate, so it keeps its bytes
unless a broadcast sits at an exact tie.
"""
import hashlib
import threading

import pytest

from etsgd import harness, objectives
from etsgd.harness import ExperimentConfig, export_csv, run_experiment
from etsgd.objectives import EVAL_BATCH, STEP_BLOCK, Logistic, synthetic_blobs, write_idx
from test_node import assert_close_to_dense


def blobs_ring(_tmp_path):
    return ExperimentConfig(
        name="golden-blobs", topology="ring", n=4, objective="blobs", samples=300,
        dim=2, classes=2, eval_samples=200, sample_schedule="linear:5,1,0",
        max_lag=1, iterations=150, seed=11,
    )


def idx_logistic(tmp_path):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(images, labels, synthetic_blobs(5, 120, 6, 3, 4.0))
    return ExperimentConfig(
        name="golden-idx", topology="ring", n=3, objective="idx",
        idx_images=str(images), idx_labels=str(labels),
        sample_schedule="linear:4,1,0", step_schedule="diminishing:0.01,0.01",
        max_lag=1, iterations=80, eval_every=1, seed=3,
    )


def idx_ten_classes(tmp_path):
    # the class count of the 784-pixel IDX workload, past the 8 classes from
    # which numpy sums the softmax normalizer pairwise; with an L2 term
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(images, labels, synthetic_blobs(8, 200, 12, 10, 20.0))
    return ExperimentConfig(
        name="golden-idx10", topology="ring", n=4, objective="idx",
        idx_images=str(images), idx_labels=str(labels), l2=0.01,
        sample_schedule="linear:4,1,0", max_lag=1, iterations=120, eval_every=1, seed=5,
    )


def const1_complete(_tmp_path):
    return ExperimentConfig(
        name="golden-const1", topology="complete", n=4, objective="quadratic",
        samples=100, dim=2, center=(5.0, -3.0), eval_samples=100,
        sample_schedule="const:1", max_lag=2, iterations=60,
        stragglers={0: 2.0}, network_range=(0.1, 5.0), eval_every=0, seed=7,
    )


def threshold_ring(_tmp_path):
    return ExperimentConfig(
        name="golden-threshold", topology="ring", n=4, objective="blobs", samples=300,
        dim=2, classes=2, eval_samples=200, algorithm="threshold",
        iterations=150, seed=13,
    )


# config -> (weights, trace, csv) sha256
GOLDEN = {
    blobs_ring: (
        "ed28fae176af5e724bfd839f8df286c926fc9d0151dbc8642b82c4f594ffed38",
        "2c2dbb663c11bfc23afdb51455a74fa78475a7f8572f85cf5ea3384e52a72219",
        "f1f9043bade8183c849024db86627827a45bf336827570f90cbb2e595ccdab8d",
    ),
    idx_logistic: (
        "3b3e99425690b9d2ae1ccf5ab93cba350e8759b4aa5edc90c3c9d890f2d1c85b",
        "e762a6f3f9d6d96e368f8ba6f3c4dc9173c0f9ae673413c97ac6731a134b1256",
        "a1d5a3d36b0b331dd52d8472b2db4ce288fcbfd3905ab24e3f3e2b3d2e4db1d7",
    ),
    idx_ten_classes: (
        "7c543b11d3589b1bf04567642f4205038d4f16272a6b56a822c291232fb19d1a",
        "2e15867a0973c60db18535c456bc59be92976def89cfa6005f4d406121ca54f6",
        "ff952b50c4615edec2e7c46334cf0eca84dbdc248aa7bb86a4722bc2d1a4ae69",
    ),
    const1_complete: (
        "898c5d06aabf64efd630b0e5198524f8cd618d53f0fdc3c27818185054fe241b",
        "fec903b048a82f11eb8784b5e4d9a8eef0e673eb4b10038e9cfb46431581047f",
        "49a3cb6affdd1703eee4eb04f30611873be3cb49a2000edaf8c834493c6610f7",
    ),
    threshold_ring: (
        "76033086ad23f083507ccbd89625445e4d5041f0b19d6028ed1751129006f1c6",
        "50c440d5eda5b4c34087ced3d0c7071547b3c93bade86539123535d6c13f3922",
        "a432ef82f2a6c9d03d040aa95b26b476e8587564c34ba0c80f5e3362eef3699a",
    ),
}


def digests(cfg, tmp_path):
    m = run_experiment(cfg, keep_trace=True)
    weights = hashlib.sha256()
    for w in [nm.final_w for nm in m.nodes]:
        weights.update(w.tobytes())
    trace_path, csv_path = tmp_path / "run.trace", tmp_path / "run.csv"
    m.trace.write(trace_path)
    export_csv(m, csv_path)
    return (
        weights.hexdigest(),
        hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("make_config", list(GOLDEN), ids=lambda f: f.__name__)
def test_golden_digests(make_config, tmp_path):
    assert digests(make_config(tmp_path), tmp_path) == GOLDEN[make_config]


@pytest.mark.parametrize("make_config", list(GOLDEN), ids=lambda f: f.__name__)
def test_golden_digests_with_snapshots_on_worker(make_config, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "EVAL_THREAD_MIN", 0)
    assert digests(make_config(tmp_path), tmp_path) == GOLDEN[make_config]


def test_eval_batch_leaves_csv_unchanged(tmp_path, monkeypatch):
    cfg = idx_logistic(tmp_path)
    sizes = []
    evaluate_many = Logistic.evaluate_many

    def counted(self, ws, ds):
        sizes.append(len(ws))
        return evaluate_many(self, ws, ds)

    monkeypatch.setattr(Logistic, "evaluate_many", counted)
    csvs = {}
    for batch in (1, EVAL_BATCH):
        monkeypatch.setattr(harness, "EVAL_BATCH", batch)
        sizes.clear()
        path = tmp_path / f"batch{batch}.csv"
        export_csv(run_experiment(cfg), path)
        csvs[batch] = path.read_bytes()
        # round snapshots come in full batches, then one partial flush,
        # then one evaluation of the final models
        *full, partial, final = sizes
        assert set(full) == {batch} and 0 <= partial < batch and final == cfg.n
    assert 0 < partial < EVAL_BATCH
    assert csvs[1] == csvs[EVAL_BATCH]


def test_worker_thread_leaves_csv_unchanged(tmp_path, monkeypatch):
    cfg = idx_logistic(tmp_path)
    threads = []
    evaluate_many = Logistic.evaluate_many

    def recorded(self, ws, ds):
        threads.append(threading.current_thread())
        return evaluate_many(self, ws, ds)

    monkeypatch.setattr(Logistic, "evaluate_many", recorded)
    csvs = {}
    for mode, least_size in (("worker", 0), ("inline", 10**18)):
        monkeypatch.setattr(harness, "EVAL_THREAD_MIN", least_size)
        threads.clear()
        path = tmp_path / f"{mode}.csv"
        export_csv(run_experiment(cfg), path)
        csvs[mode] = path.read_bytes()
        # every snapshot batch, the partial one too, and the final models, which the
        # main thread evaluates while the worker drains the batches
        on_main = [t is threading.main_thread() for t in threads]
        assert len(threads) >= 3
        assert sum(on_main) == (1 if mode == "worker" else len(threads))
    assert csvs["worker"] == csvs["inline"]


def test_step_block_leaves_trace_unchanged(tmp_path, monkeypatch):
    # a block of 1 lands every step as it is taken, as the dense step does; the
    # config's model is past FLOAT_STEP_MAX, so its steps land in blocks
    cfg = idx_ten_classes(tmp_path)
    assert Logistic(12, 10).dim > objectives.FLOAT_STEP_MAX
    runs = {}
    for block in (1, STEP_BLOCK):
        monkeypatch.setattr(objectives, "STEP_BLOCK", block)
        m = run_experiment(cfg, keep_trace=True)
        path = tmp_path / f"block{block}.trace"
        m.trace.write(path)
        runs[block] = path.read_bytes(), [nm.final_w for nm in m.nodes]
    assert runs[1][0] == runs[STEP_BLOCK][0]
    for w_block, w_single in zip(runs[STEP_BLOCK][1], runs[1][1]):
        assert_close_to_dense(w_block, w_single)
