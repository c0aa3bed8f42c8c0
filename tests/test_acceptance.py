"""Acceptance suite: exact math oracles plus the headline continual-learning
findings at desk scale.

The expensive fixture trains, per seed, one base model and six continual
runs (naive, ewc, ewc-fbn and the dynamic-memory strategy at three memory
sizes) plus a full-training upper bound on the default 32x32 corpus. All
directional criteria are evaluated on means over the five default seeds.
The runs are spread over the usable cores by `map_seeds`. With
OPENBLAS_NUM_THREADS=1 (Python 3.11, numpy 2.4 with OpenBLAS) they took
447 s in series on one core and 217 s on two; with OpenBLAS left at its
default thread count, 210 s on two.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from dynmem import evaluation as ev
from dynmem.cli import main
from dynmem.data import TASKS, CorpusConfig, build_corpus, emit_stream
from dynmem.gram import gram_distance, gram_matrix, signatures
from dynmem.memory import DynamicMemory
from dynmem.model import ConvNetClassifier
from dynmem.experiment import (ExperimentConfig, map_seeds, run_base_training, run_continual,
                               run_full_training)
from gradcheck import gradient_check

MEMORY_SIZES = (16, 32, 128)


@pytest.fixture(scope="module")
def suite():
    """Every training run the directional criteria share, computed once.

    The runs go through `map_seeds` in two rounds of independent jobs: first
    the full-training runs (the longest, so they start first) and the base
    models, then the six continual runs of every seed from its base model.
    """
    corpus = build_corpus(CorpusConfig(), seed=100)
    cfg = ExperimentConfig()

    def first(job):
        kind, seed = job
        if kind == "full":
            return run_full_training(corpus, cfg, seed)
        return run_base_training(corpus, cfg, seed)[0]

    jobs = [(kind, seed) for kind in ("full", "base") for seed in cfg.seeds()]
    runs = dict(zip(jobs, map_seeds(first, jobs)))
    bases = {seed: runs.pop(("base", seed)) for seed in cfg.seeds()}

    def continual(job):
        label, seed = job
        if label.startswith("dm"):
            return run_continual(corpus, bases[seed], "dm",
                                 replace(cfg, memory_size=int(label[2:])), seed)
        return run_continual(corpus, bases[seed], label, cfg, seed)

    jobs = [(label, seed) for seed in cfg.seeds()
            for label in ["naive", "ewc", "ewc-fbn"] + [f"dm{m}" for m in MEMORY_SIZES]]
    runs.update(zip(jobs, map_seeds(continual, jobs)))  # (strategy label, seed) -> RunResult
    # the checkpoints follow from the task counts; the rng only orders the stream
    _, checkpoints = emit_stream(corpus.continuous, corpus.config.ramp_fraction,
                                 np.random.default_rng(0))
    after_b_step = checkpoints["B"] // cfg.input_batch_size + 1
    return {"cfg": cfg, "corpus": corpus, "runs": runs, "after_b": after_b_step}


def mean_of(suite, label, key):
    cfg = suite["cfg"]
    return float(np.mean([suite["runs"][(label, s)].summary[key]
                          for s in cfg.seeds()]))


def task_b_drop(result):
    """Task-B test-accuracy drop from its own checkpoint (end of B's pure
    segment) to the end of the stream: the B term of bwt, negated."""
    b, rmatrix = TASKS.index("B"), result.summary["rmatrix"]
    return rmatrix[ev.R_ROWS.index("after_B")][b] - rmatrix[ev.R_ROWS.index("after_C")][b]


def learning_curve_area(result, task, after_step):
    """Mean validation accuracy on `task` over the probes after `after_step`
    (learning-curve area, Chaudhry et al. 2019): higher is faster adaptation."""
    return float(np.mean([float(r["value"]) for r in result.rows
                          if r["task"] == task and r["split"] == "val"
                          and r["metric"] == "accuracy" and int(r["step"]) > after_step]))


def non_decreasing(values, slack):
    """True when the sequence rises, allowing at most one inversion <= slack."""
    drops = [a - b for a, b in zip(values, values[1:]) if a > b]
    return len(drops) <= 1 and all(d <= slack for d in drops)


# -- gradient fidelity -----------------------------------------------------

def test_analytic_gradients_match_finite_differences_on_full_model():
    model = ConvNetClassifier(random_state=0)
    rng = np.random.default_rng(0)
    X = rng.random((2, 1, 32, 32)).astype(np.float32)
    y = np.array([0, 1])
    start = time.monotonic()
    err = gradient_check(model, X, y, n_coords=50, rng=rng)
    assert err < 1e-4
    assert time.monotonic() - start < 60.0


# -- gram oracle -----------------------------------------------------------

def test_gram_matrix_and_distance_match_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n, h, w = (int(rng.integers(1, 6)) for _ in range(3))
        f = rng.standard_normal((n, h + 1, w + 1))
        g = gram_matrix(f)
        flat = f.reshape(n, -1)
        brute = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                brute[i, j] = float(flat[i] @ flat[j]) / (n * flat.shape[1])
        np.testing.assert_allclose(g, brute, atol=1e-6)

    a = [rng.standard_normal((3, 3)) for _ in range(4)]
    b = [m + rng.standard_normal(m.shape) for m in a]
    expected = sum(((x - y) ** 2).sum() / x.size for x, y in zip(a, b))
    np.testing.assert_allclose(gram_distance(a, b), expected, atol=1e-6)


def test_gram_distance_is_a_premetric_on_real_signatures():
    model = ConvNetClassifier(random_state=0)
    corpus = build_corpus(CorpusConfig(base_count=8, continuous_counts=(8, 8, 8),
                                       eval_count=8), seed=9)
    images = corpus.test.images
    stacks = signatures(model, images)
    sigs = [[g[i] for g in stacks] for i in range(len(images))]
    for i, a in enumerate(sigs):
        assert gram_distance(a, a) == 0.0
        for b in sigs[i + 1:]:
            d = gram_distance(a, b)
            assert d >= 0.0
            assert d == gram_distance(b, a)


# -- memory oracle ---------------------------------------------------------

def test_memory_replacement_matches_exhaustive_argmin_at_scale():
    rng = np.random.default_rng(2)
    inserts_done = 0
    for capacity in (4, 16, 60, 160):
        mem = DynamicMemory(capacity)
        stored = []  # (label, signature) of items[i], kept apart from mem.grams
        for step in range(2500):
            label = int(rng.integers(0, 2))
            sig = [rng.standard_normal((2, 2))]
            if np.count_nonzero(mem.items.label == label) >= mem.quota:
                expected = min(
                    ((gram_distance(sig, s), i)
                     for i, (lab, s) in enumerate(stored) if lab == label),
                    key=lambda t: (t[0], t[1]))[1]
                [outcome] = mem.insert_batch(np.zeros((1, 1, 2, 2)), [label], [sig[0][None]],
                                             step)
                assert outcome.kind == "replaced" and outcome.index == expected
                stored[outcome.index] = (label, sig)
            else:
                [outcome] = mem.insert_batch(np.zeros((1, 1, 2, 2)), [label], [sig[0][None]],
                                             step)
                assert outcome.kind == "appended" and outcome.index == len(stored)
                stored.append((label, sig))
            np.testing.assert_array_equal(mem.grams[0][outcome.index], sig[0])
            assert [it.label for it in mem.items] == [lab for lab, _ in stored]
            assert len(mem) <= capacity
            assert max(np.count_nonzero(mem.items.label == k) for k in (0, 1)) <= mem.quota
            inserts_done += 1
    assert inserts_done == 10000


# -- transfer-metric oracle ------------------------------------------------

def test_transfer_metrics_match_independent_recomputation():
    R = np.zeros((4, 3))
    R[1, 0] = R[2, 1] = 0.9
    R[3] = [0.5, 0.7, 1.0]
    np.testing.assert_allclose(ev.bwt(R), -0.3, atol=1e-15)

    rng = np.random.default_rng(3)
    for _ in range(300):
        R = rng.uniform(0.0, 1.0, (4, 3))
        base = rng.uniform(0.0, 1.0, 3)
        expected_bwt = ((R[3, 0] - R[1, 0]) + (R[3, 1] - R[2, 1])) / 2.0
        expected_fwt = ((R[1, 1] - base[1]) + (R[2, 2] - base[2])) / 2.0
        assert abs(ev.bwt(R) - expected_bwt) < 1e-12
        assert abs(ev.fwt(R, base) - expected_fwt) < 1e-12


# -- directional findings --------------------------------------------------

def test_rehearsal_beats_naive_on_forgetting(suite):
    assert mean_of(suite, "dm32", "bwt") >= mean_of(suite, "naive", "bwt") + 0.05
    assert mean_of(suite, "dm32", "acc_A") >= mean_of(suite, "naive", "acc_A") + 0.10


def test_frozen_norm_rescues_ewc_task_a_accuracy(suite):
    assert mean_of(suite, "ewc-fbn", "acc_A") >= mean_of(suite, "ewc", "acc_A") + 0.05


def test_ewc_fbn_forgets_task_b_more_than_rehearsal(suite):
    cfg = suite["cfg"]
    drops = {name: float(np.mean([task_b_drop(suite["runs"][(name, s)])
                                  for s in cfg.seeds()]))
             for name in ("ewc-fbn", "dm32")}
    assert drops["ewc-fbn"] >= drops["dm32"] + 0.05, drops


def test_memory_size_trades_retention_against_adaptation_speed(suite):
    cfg, after_b = suite["cfg"], suite["after_b"]
    acc_a = [mean_of(suite, f"dm{m}", "acc_A") for m in MEMORY_SIZES]
    assert non_decreasing(acc_a, slack=0.02)
    # adaptation speed to task C must not rise with M
    area_c = [float(np.mean([learning_curve_area(suite["runs"][(f"dm{m}", s)], "C", after_b)
                             for s in cfg.seeds()]))
              for m in MEMORY_SIZES]
    assert non_decreasing(area_c[::-1], slack=0.02), area_c


def test_full_training_dominates_every_continual_strategy(suite):
    labels = ["naive", "ewc", "ewc-fbn"] + [f"dm{m}" for m in MEMORY_SIZES]
    for key in ("acc_A", "acc_B", "acc_C"):
        full = mean_of(suite, "full", key)
        for label in labels:
            assert full >= mean_of(suite, label, key) - 0.03, (key, label)


# -- determinism -----------------------------------------------------------

def test_cli_reruns_are_byte_identical(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--seed", "5",
                 "--base-n", "24", "--cont-a", "24", "--cont-b", "16",
                 "--cont-c", "24", "--eval-n", "8"]) == 0
    outputs = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        assert main(["train-base", "--corpus", str(corpus), "--out", str(out),
                     "--seed", "0", "--seeds", "1", "--base-epochs", "1"]) == 0
        assert main(["continual", "--corpus", str(corpus), "--out", str(out),
                     "--seed", "0", "--seeds", "1", "--probe-every", "5",
                     "--strategy", "dm", "--memory", "8"]) == 0
        outputs.append((
            (out / "metrics_base_seed0.csv").read_bytes(),
            (out / "dm_M8" / "seed0" / "metrics.csv").read_bytes(),
            (out / "dm_M8" / "seed0" / "memory_dump.txt").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
