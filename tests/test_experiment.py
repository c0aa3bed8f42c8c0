"""Tests for the experiment driver: config validation, run reproducibility,
stream invariance across strategies and result schemas.
"""
import ctypes
import json
import multiprocessing
import os
import re
import time
from dataclasses import fields

import numpy as np
import pytest

from dynmem import evaluation as ev
from dynmem import experiment
from dynmem.data import CorpusConfig, build_corpus
from dynmem.evaluation import R_ROWS
from dynmem.experiment import (ExperimentConfig, RunResult, map_seeds, run_base_training,
                               run_continual, run_full_training, usable_cores)
from dynmem.strategies import DMStrategy, EWCStrategy, NaiveStrategy
from dynmem.validation import ConfigError

TINY = CorpusConfig(base_count=40, continuous_counts=(40, 24, 40), eval_count=16)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(TINY, seed=3)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(seed=0, n_seeds=1, base_epochs=1, full_epochs=1,
                            probe_every=5, memory_size=8)


@pytest.fixture(scope="module")
def base_model(corpus, cfg):
    model, _ = run_base_training(corpus, cfg, seed=0)
    return model


# -- configuration ---------------------------------------------------------



def test_config_rejects_tiny_memory():
    with pytest.raises(ConfigError):
        ExperimentConfig(memory_size=1)


@pytest.mark.parametrize("field, value, message", [
    ("memory_size", 33, "memory size M must be an even integer >= 2, got 33"),
    ("learning_rate", 0.0, "learning_rate must be positive and finite, got 0.0"),
    ("learning_rate", float("inf"), "learning_rate must be positive and finite, got inf"),
    ("stream_learning_rate", -0.01, "stream_learning_rate must be positive and finite"),
    ("stream_learning_rate", float("nan"), "stream_learning_rate must be positive and finite"),
    ("ewc_lambda", -1.0, "ewc_lambda must be non-negative and finite, got -1.0"),
    ("ewc_lambda", float("nan"), "ewc_lambda must be non-negative and finite"),
])
def test_config_rejects_nonsensical_rates_weights_and_memory_sizes(field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("n_seeds", 1.5), ("probe_every", 2.5), ("memory_size", 32.0), ("seed", 100.0),
    ("base_epochs", "6"),
])
def test_config_rejects_a_count_that_is_not_an_integer_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        ExperimentConfig(**{field: value})
    numpy_int = ExperimentConfig(**{field: np.int64(int(value))})
    assert numpy_int.config_hash() == ExperimentConfig(**{field: int(value)}).config_hash()


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        ExperimentConfig(seed=-1)
    assert ExperimentConfig(seed=0).seeds()[0] == 0


def test_config_seed_list_and_hash_stability():
    cfg = ExperimentConfig(seed=10, n_seeds=3)
    assert cfg.seeds() == [10, 11, 12]
    assert cfg.config_hash() == ExperimentConfig(seed=10, n_seeds=3).config_hash()
    assert cfg.config_hash() != ExperimentConfig(seed=11, n_seeds=3).config_hash()


# -- base training ---------------------------------------------------------

def test_base_training_rows_and_ewc_state(corpus, cfg, base_model):
    model, rows = run_base_training(corpus, cfg, seed=0)
    assert model.fisher is not None and model.anchor is not None
    losses = [r for r in rows if r["metric"] == "epoch_loss"]
    assert len(losses) == cfg.base_epochs
    vals = [r for r in rows if r["metric"] == "accuracy"]
    assert [r["task"] for r in vals] == ["A", "B", "C"]
    # same seed twice yields the same weights
    for n, p in model.named_params().items():
        np.testing.assert_array_equal(p, base_model.named_params()[n])


def test_base_training_without_ewc_leaves_no_anchor(corpus, cfg):
    model, _ = run_base_training(corpus, cfg, seed=0, with_ewc=False)
    assert model.fisher is None and model.anchor is None


# -- continual runs --------------------------------------------------------

def test_run_continual_is_deterministic(corpus, cfg, base_model):
    a = run_continual(corpus, base_model, "dm", cfg, seed=0)
    b = run_continual(corpus, base_model, "dm", cfg, seed=0)
    assert a.rows == b.rows
    assert a.summary == b.summary
    assert a.memory_dump == b.memory_dump


def test_stream_order_is_strategy_independent(corpus, cfg, base_model, monkeypatch):
    batches = {}  # strategy name -> the batches its `step` received
    for cls in (NaiveStrategy, EWCStrategy, DMStrategy):
        def recording_step(self, images, labels, tasks=None, rng=None, _step=cls.step):
            batches.setdefault(self.name, []).append(
                (images.tobytes(), labels.tobytes(), tasks.tolist()))
            return _step(self, images, labels, tasks, rng=rng)
        monkeypatch.setattr(cls, "step", recording_step)
    for name in ("naive", "ewc", "dm"):
        run_continual(corpus, base_model, name, cfg, seed=0)
    assert len(batches["naive"]) == (40 + 24 + 40) // cfg.input_batch_size
    assert batches["naive"] == batches["ewc"] == batches["dm"]


def test_run_continual_result_schema(corpus, cfg, base_model):
    result = run_continual(corpus, base_model, "ewc-fbn", cfg, seed=0)
    assert [f.name for f in fields(RunResult)] == ["rows", "summary", "memory_dump"]
    rmatrix = np.array(result.summary["rmatrix"])
    assert rmatrix.shape == (len(R_ROWS), 3)
    assert np.all(np.isfinite(rmatrix))
    for key in ("strategy", "seed", "acc_A", "acc_B", "acc_C", "bwt", "fwt", "config_hash"):
        assert key in result.summary
    assert (result.summary["strategy"], result.summary["seed"]) == ("ewc-fbn", 0)
    assert result.memory_dump is None
    # final R row feeds the summary accuracies
    np.testing.assert_allclose(
        [result.summary["acc_A"], result.summary["acc_B"], result.summary["acc_C"]],
        rmatrix[-1])


def test_run_continual_base_row_matches_base_model(corpus, cfg, base_model):
    result = run_continual(corpus, base_model, "naive", cfg, seed=0)
    from dynmem.evaluation import accuracy
    for t_idx, task in enumerate(("A", "B", "C")):
        ds = corpus.test.task_subset(task)
        assert result.summary["rmatrix"][0][t_idx] == accuracy(base_model, ds.images, ds.labels)


def test_run_continual_leaves_base_model_untouched(corpus, cfg, base_model):
    before = {n: p.copy() for n, p in base_model.named_params().items()}
    run_continual(corpus, base_model, "dm", cfg, seed=0)
    for n, p in base_model.named_params().items():
        np.testing.assert_array_equal(p, before[n])


def test_probe_rows_cover_start_and_end(corpus, cfg, base_model):
    result = run_continual(corpus, base_model, "naive", cfg, seed=0)
    total_steps = (40 + 24 + 40) // cfg.input_batch_size
    probe = sorted({r["step"] for r in result.rows if r["split"] == "val"})
    assert probe[0] == 0 and probe[-1] == total_steps


def test_run_continual_rejects_input_batch_larger_than_train_batch(corpus, base_model):
    # only the stream reads B; a config with B > T is still a valid base-training config
    cfg = ExperimentConfig(seed=0, n_seeds=1, input_batch_size=16, train_batch_size=8)
    with pytest.raises(ConfigError, match=re.escape("--batch (16)") + ".*"
                       + re.escape("--train-batch (8)")):
        run_continual(corpus, base_model, "naive", cfg, seed=0)


@pytest.mark.skipif(usable_cores() < 2, reason="needs a spare core for the evaluator")
def test_an_evaluator_failure_is_raised_with_its_message(corpus, cfg, base_model, monkeypatch,
                                                         tmp_path):
    # a job that fails in the evaluator stops the stream at a later evaluation;
    # one that fails after the parent has taken it back stops the run at its
    # end. Either way the message is the job's own and the evaluator is reaped.
    parent, accuracy, step = os.getpid(), ev.accuracy, NaiveStrategy.step
    total_steps = (40 + 24 + 40) // cfg.input_batch_size
    for failing_in in ("evaluator", "parent"):
        steps, evaluator_pid = [], tmp_path / f"{failing_in}.pid"

        def accuracy_failing_in_one_process(model, images, labels, **kw):
            here = os.getpid()
            if here != parent:
                evaluator_pid.write_text(str(here))
            if (here == parent) == (failing_in == "parent"):
                raise ValueError(f"no accuracy in process {here}")
            time.sleep(0.1)  # a slow evaluator leaves jobs for the parent to take back
            return accuracy(model, images, labels, **kw)

        def slow_step(self, *args, **kw):
            steps.append(None)
            if failing_in == "evaluator":
                time.sleep(0.1)  # time for the evaluator to fail at step 0
            return step(self, *args, **kw)

        monkeypatch.setattr(ev, "accuracy", accuracy_failing_in_one_process)
        monkeypatch.setattr(NaiveStrategy, "step", slow_step)
        with pytest.raises(ValueError, match=r"no accuracy in process \d+") as exc:
            run_continual(corpus, base_model, "naive", cfg, seed=0)
        failed_in = int(re.search(r"\d+", str(exc.value)).group())
        if failing_in == "evaluator":
            # the failure stops the stream at a later evaluation, not after its last step
            assert len(steps) < total_steps and failed_in != parent
        else:
            assert len(steps) == total_steps and failed_in == parent
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):  # the evaluator has exited and been reaped
            os.kill(int(evaluator_pid.read_text()), 0)


@pytest.mark.skipif(usable_cores() < 2, reason="needs a spare core for the evaluator")
@pytest.mark.parametrize("strategy", ["ewc-fbn", "dm"])
def test_jobs_the_parent_takes_back_give_the_bytes_of_a_one_core_run(corpus, cfg, base_model,
                                                                     monkeypatch, strategy):
    parent, task_accuracies = os.getpid(), ev.task_accuracies
    in_parent = []

    def slow_in_the_evaluator(model, split):
        if os.getpid() == parent:
            in_parent.append(None)
        else:
            time.sleep(0.2)  # the stream ends before the evaluator has started every job
        return task_accuracies(model, split)

    monkeypatch.setattr(ev, "task_accuracies", slow_in_the_evaluator)
    shared = run_continual(corpus, base_model, strategy, cfg, seed=0)
    assert in_parent  # the parent ran the jobs it took back
    monkeypatch.setattr(experiment, "usable_cores", lambda: 1)
    alone = run_continual(corpus, base_model, strategy, cfg, seed=0)
    assert ev.rows_to_csv(shared.rows) == ev.rows_to_csv(alone.rows)  # metrics.csv
    assert json.dumps(shared.summary) == json.dumps(alone.summary)  # summary.json, R-matrix too
    assert shared.memory_dump == alone.memory_dump


# -- full training ---------------------------------------------------------

def test_full_training_summary(corpus, cfg):
    result = run_full_training(corpus, cfg, seed=0)
    assert result.summary["strategy"] == "full"
    assert result.summary["bwt"] is None and result.summary["fwt"] is None
    for key in ("acc_A", "acc_B", "acc_C"):
        assert 0.0 <= result.summary[key] <= 1.0


def blas_thread_counts(_seed=None):
    """Thread count of each OpenBLAS library loaded in this process that reports one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower() and line.count(" ") >= 5})
    except OSError:
        return []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                counts.append(getter())
                break
    return counts


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores to run seeds in parallel")
def test_map_seeds_workers_run_openblas_on_one_thread():
    # one worker per core already fills the cores; more BLAS threads oversubscribe them
    np.ones((64, 64)) @ np.ones((64, 64))
    if not blas_thread_counts():
        pytest.skip("no OpenBLAS library that reports its thread count is loaded")
    before = blas_thread_counts()
    per_seed = list(map_seeds(blas_thread_counts, [0, 1]))
    assert per_seed == [[1] * len(before)] * 2
    assert blas_thread_counts() == before  # the calling process keeps its own setting
