"""Tests for accuracy, BWT/FWT metrics, probe cadence and the metrics CSV."""
import hashlib

import numpy as np
import pytest

from dynmem import evaluation as ev
from dynmem import nn
from dynmem.data import CorpusConfig, build_corpus
from dynmem.model import ConvNetClassifier
from dynmem.validation import ConfigError, ShapeError


class ConstantModel:
    """Predicts a fixed label for every sample."""

    def __init__(self, label):
        self.label = label

    def predict(self, X):
        return np.full(len(X), self.label, dtype=np.int64)


def random_rmatrix(rng):
    return rng.uniform(0.0, 1.0, (4, 3))


# -- accuracy --------------------------------------------------------------

def test_accuracy_all_ones_on_balanced_set():
    X = np.zeros((10, 1, 4, 4))
    y = np.array([0, 1] * 5)
    assert ev.accuracy(ConstantModel(1), X, y) == 0.5


def test_accuracy_perfect_model():
    y = np.ones(6, dtype=np.int64)
    assert ev.accuracy(ConstantModel(1), np.zeros((6, 1, 4, 4)), y) == 1.0


def test_accuracy_matches_recount_oracle():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 300)
    model = ConstantModel(1)
    expected = np.sum(y == 1) / len(y)
    assert ev.accuracy(model, np.zeros((300, 1, 4, 4)), y, batch_size=64) == expected


def test_eval_blocks_keep_the_logit_bits_of_one_whole_forward():
    """`accuracy` forwards EVAL_BLOCK images at a time. As a multiple of the
    conv's block it groups the GEMMs as one forward of all the images does, so
    the logits, and with them every prediction, keep their bits."""
    assert ev.EVAL_BLOCK % nn.CONV_BLOCK == 0
    split = build_corpus(CorpusConfig(base_count=150, continuous_counts=(2, 2, 2),
                                      eval_count=2), seed=0).base
    model = ConvNetClassifier(random_state=3)
    model.fit_norm_statistics(split.images)
    whole = model.decision_function(split.images)
    blocks = [model.decision_function(split.images[b : b + ev.EVAL_BLOCK])
              for b in range(0, len(split), ev.EVAL_BLOCK)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert ev.accuracy(model, split.images, split.labels) == np.mean(
        (whole > 0) == split.labels)


def test_accuracy_empty_dataset_raises():
    with pytest.raises(ConfigError):
        ev.accuracy(ConstantModel(0), np.zeros((0, 1, 4, 4)), np.zeros(0))


# -- BWT / FWT -------------------------------------------------------------

def test_bwt_no_forgetting_is_zero():
    R = np.full((4, 3), 0.8)
    assert ev.bwt(R) == 0.0


def test_bwt_hand_case():
    R = np.zeros((4, 3))
    R[1, 0] = 0.9  # task A at the end of its own segment
    R[2, 1] = 0.9  # task B at the end of its own segment
    R[3] = [0.5, 0.7, 1.0]
    np.testing.assert_allclose(ev.bwt(R), -0.3, atol=1e-15)


def test_fwt_hand_case():
    R = np.zeros((4, 3))
    R[1, 1] = 0.6   # accuracy on B just before its segment
    R[2, 2] = 0.55  # accuracy on C just before its segment
    baseline = [0.9, 0.5, 0.5]
    np.testing.assert_allclose(ev.fwt(R, baseline), 0.075, atol=1e-15)


def test_bwt_fwt_match_independent_recomputation():
    """Spreadsheet-style recomputation agrees to 1e-12 on random matrices."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        R = random_rmatrix(rng)
        baseline = rng.uniform(0.0, 1.0, 3)
        expected_bwt = ((R[3, 0] - R[1, 0]) + (R[3, 1] - R[2, 1])) / 2.0
        expected_fwt = ((R[1, 1] - baseline[1]) + (R[2, 2] - baseline[2])) / 2.0
        assert abs(ev.bwt(R) - expected_bwt) < 1e-12
        assert abs(ev.fwt(R, baseline) - expected_fwt) < 1e-12


def test_rmatrix_shape_is_enforced():
    with pytest.raises(ShapeError):
        ev.bwt(np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        ev.fwt(np.zeros((4, 3)), np.zeros(2))


# -- probes ----------------------------------------------------------------

def test_probe_cadence_for_250_steps():
    steps = ev.probe_steps(250, every=30)
    assert steps == [0, 30, 60, 90, 120, 150, 180, 210, 240, 250]


def test_probe_cadence_final_step_never_duplicated():
    assert ev.probe_steps(60, every=30) == [0, 30, 60]


def test_validation_probe_rows_and_purity():
    cfg = CorpusConfig(base_count=20, continuous_counts=(10, 10, 10), eval_count=10)
    corpus = build_corpus(cfg, seed=0)
    model = ConvNetClassifier(channels=(2, 2, 2, 2), random_state=0)

    def state_hash():
        h = hashlib.sha256()
        for n in sorted(model.named_params()):
            h.update(model.named_params()[n].tobytes())
        for n in sorted(model.running_stats()):
            h.update(model.running_stats()[n].tobytes())
        return h.hexdigest()

    before = state_hash()
    rows = ev.validation_probe(model, corpus.validation, 7, "naive", 0)
    assert state_hash() == before
    assert [r["task"] for r in rows] == ["A", "B", "C"]
    assert all(r["step"] == 7 and r["split"] == "val" for r in rows)


# -- CSV and aggregation ---------------------------------------------------

def test_rows_to_csv_deterministic_bytes():
    rows = [{"step": 1, "strategy": "dm", "seed": 0, "task": "A", "split": "val",
             "metric": "accuracy", "value": 0.5}]
    text = ev.rows_to_csv(rows)
    assert text == ev.rows_to_csv(rows)
    assert text.splitlines()[0] == "step,strategy,seed,task,split,metric,value"
    assert "\r" not in text


def test_read_metrics_csv_round_trip(tmp_path):
    rows = [{"step": s, "strategy": "naive", "seed": 1, "task": "B", "split": "val",
             "metric": "accuracy", "value": 0.25 * s} for s in range(3)]
    path = tmp_path / "metrics.csv"
    path.write_text(ev.rows_to_csv(rows))
    back = ev.read_metrics_csv(path)
    assert len(back) == 3
    assert back[2]["value"] == "0.5"


def test_aggregate_mean_and_sample_sd():
    agg = ev.aggregate_summaries([{"bwt": 0.2}, {"bwt": 0.4}, {"bwt": 0.6}], ("bwt",))
    np.testing.assert_allclose(agg["bwt"]["mean"], 0.4)
    np.testing.assert_allclose(agg["bwt"]["sd"], np.std([0.2, 0.4, 0.6], ddof=1))
    assert ev.aggregate_summaries([{"bwt": 0.7}], ("bwt",)) == {"bwt": {"mean": 0.7, "sd": 0.0}}


def test_aggregate_summaries_skips_missing_metrics():
    summaries = [{"bwt": -0.1, "fwt": None}, {"bwt": -0.3, "fwt": None}]
    agg = ev.aggregate_summaries(summaries, ("bwt", "fwt"))
    np.testing.assert_allclose(agg["bwt"]["mean"], -0.2)
    assert agg["fwt"] is None


def test_learning_curve_area_averages_the_task_probes_after_the_step():
    rows = [{"step": s, "task": t, "split": "val", "metric": "accuracy", "value": v}
            for s, t, v in [(0, "C", 0.5), (30, "C", 0.6), (60, "C", 0.8), (90, "C", 1.0),
                            (60, "B", 0.0)]]
    rows.append({"step": 90, "task": "C", "split": "train", "metric": "loss", "value": 9.0})
    assert ev.learning_curve_area(rows, "C", after_step=30) == pytest.approx(0.9)
