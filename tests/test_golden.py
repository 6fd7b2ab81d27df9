"""Golden digests: the bytes four small runs produce are pinned.

Each config's final weights, written trace and exported CSV are hashed
with sha256 and compared against digests recorded from a known-good
build.  A hot-path change that claims to be bit-identical must leave all
of them unchanged; a change that alters semantics on purpose says so and
re-pins them.  The digests assume IEEE double arithmetic with the
summation order of the numpy/BLAS build the suite runs on.
"""
import hashlib
import threading

import pytest

from etsgd import harness
from etsgd.harness import ExperimentConfig, export_csv, run_experiment
from etsgd.objectives import EVAL_BATCH, Logistic, synthetic_blobs, write_idx


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
        "2e5cb321bf4f14670a959df3f9257a5eb1668cbd4df07373376ced09bc6f4df4",
        "2c2dbb663c11bfc23afdb51455a74fa78475a7f8572f85cf5ea3384e52a72219",
        "f1f9043bade8183c849024db86627827a45bf336827570f90cbb2e595ccdab8d",
    ),
    idx_logistic: (
        "0132ccfbf2e3eae529527a80198b3cf6c51385764edf54c2d0bd32ec60351da2",
        "e762a6f3f9d6d96e368f8ba6f3c4dc9173c0f9ae673413c97ac6731a134b1256",
        "459a5583e2205cb2ff1c374b8e01fe63205debb5550687382c32c26ab783c8c3",
    ),
    const1_complete: (
        "898c5d06aabf64efd630b0e5198524f8cd618d53f0fdc3c27818185054fe241b",
        "fec903b048a82f11eb8784b5e4d9a8eef0e673eb4b10038e9cfb46431581047f",
        "49a3cb6affdd1703eee4eb04f30611873be3cb49a2000edaf8c834493c6610f7",
    ),
    threshold_ring: (
        "abb22a7a554bdc84a3d498b1e875fa2aadd47131005838eaf083ba0d3e43f432",
        "50c440d5eda5b4c34087ced3d0c7071547b3c93bade86539123535d6c13f3922",
        "38d56cd85dc81a091647706a87b824301a95c3cf5be1f3907164b5deccfe8f58",
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
        # every snapshot batch, the partial one too, then the final models
        *batches, final = threads
        assert len(batches) >= 2 and final is threading.main_thread()
        off_main = {t is not threading.main_thread() for t in batches}
        assert off_main == {mode == "worker"}
    assert csvs["worker"] == csvs["inline"]
