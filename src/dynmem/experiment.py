"""Reproducible experiment driver shared by the CLI and the test suite.

Everything is a pure function of (config, corpus, seed): stream order,
weight init and training randomness derive from independent seeded
generators, so strategy choice never perturbs the stream. That is also why
`map_seeds` may run seeds in parallel: the results do not depend on where or
alongside what a seed runs.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import evaluation as ev
from .data import TASKS, build_schedule, emit_stream
from .model import ConvNetClassifier
from .strategies import make_strategy
from .validation import ConfigError

STREAM_SEED_OFFSET = 7919  # stream order rng is independent of training rng


@dataclass
class ExperimentConfig:
    """Hyperparameters for base training and continual runs."""

    seed: int = 100
    n_seeds: int = 5
    input_batch_size: int = 8     # B
    train_batch_size: int = 8     # T
    memory_size: int = 32         # M
    ewc_lambda: float = 3000.0
    learning_rate: float = 3e-3
    stream_learning_rate: float = 5e-4
    base_epochs: int = 6
    full_epochs: int = 12
    probe_every: int = 30
    image_size: int = 32
    recompute_signatures: bool = False

    def __post_init__(self):
        if self.input_batch_size > self.train_batch_size:
            raise ConfigError("input batch size B must not exceed training batch size T")
        if self.memory_size < 2:
            raise ConfigError("memory size M must be >= 2")
        for name in ("n_seeds", "input_batch_size", "train_batch_size",
                     "base_epochs", "full_epochs", "probe_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def seeds(self):
        return list(range(self.seed, self.seed + self.n_seeds))

    def config_hash(self):
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]

    def new_model(self, seed):
        return ConvNetClassifier(image_size=self.image_size,
                                 learning_rate=self.learning_rate, random_state=seed)


def usable_cores():
    """Cores this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_seeds(fn, seeds):
    """Yield `fn(seed)` for each seed, in seed order, with the seeds run in parallel.

    There is one worker per usable core, and at most one per seed. With one
    worker this is a loop in this process. Otherwise the workers are forked
    when the first result is asked for, so they inherit `fn` and all it refers
    to (corpus, config, models) instead of unpickling it; only the seeds and
    the results are pickled. Each worker runs OpenBLAS on one thread: one
    process per core already fills the cores, and OpenBLAS's spinning threads
    on top of them slowed the acceptance fixture several-fold. An exception
    that `fn(seed)` raises in a worker is raised here when that seed's turn
    comes. The pool is shut down, with the seeds not yet started cancelled,
    when the generator is exhausted, raises, or is closed or dropped.
    """
    seeds = list(seeds)
    workers = min(len(seeds), usable_cores())
    if workers <= 1:
        for seed in seeds:
            yield fn(seed)
        return
    # imported here, so that a command with one seed does not pay ~20 ms to load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(fn,))
    try:
        futures = [pool.submit(_call_inherited, seed) for seed in seeds]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_inherited_fn = None  # set in each forked worker by _inherit, never in the parent


def _inherit(fn):
    global _inherited_fn
    _inherited_fn = fn
    _one_blas_thread()


def _one_blas_thread():
    """Limit the OpenBLAS libraries loaded in this process to one thread each.

    They are found in /proc/self/maps; where that or the setter is missing
    (another platform or BLAS), the thread count is left as it is.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line.lower() and line.count(" ") >= 5}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                break


def _call_inherited(seed):
    return _inherited_fn(seed)


@dataclass
class RunResult:
    strategy: str
    seed: int
    rows: list                # metric rows for the CSV
    rmatrix: np.ndarray       # 4 checkpoints x 3 tasks, test accuracy
    summary: dict
    stream_ids: np.ndarray
    memory_dump: str = None


def _task_accuracies(model, split):
    return [ev.accuracy(model, split.task_subset(t).images, split.task_subset(t).labels)
            for t in TASKS]


def run_base_training(corpus, cfg, seed, with_ewc=True):
    """Train the base model on Task A; optionally attach Fisher and anchor."""
    model = cfg.new_model(seed)
    rng = np.random.default_rng(seed)
    rows = []
    base = corpus.base
    history = model.fit(base.images, base.labels, epochs=cfg.base_epochs,
                        batch_size=cfg.train_batch_size, rng=rng)
    for epoch, loss in enumerate(history, start=1):
        rows.append({"step": epoch, "strategy": "base", "seed": seed, "task": "A",
                     "split": "train", "metric": "epoch_loss", "value": loss})
    for task in TASKS:
        ds = corpus.validation.task_subset(task)
        rows.append({"step": len(history), "strategy": "base", "seed": seed,
                     "task": task, "split": "val", "metric": "accuracy",
                     "value": ev.accuracy(model, ds.images, ds.labels)})
    if with_ewc:
        model.fisher_diagonal(base.images, base.labels, rng=np.random.default_rng(seed + 1))
        model.snapshot_anchor()
    return model, rows


def run_continual(corpus, base_model, strategy_name, cfg, seed):
    """One continual run over the stream, with probes, R-matrix and summary."""
    model = base_model.clone()
    # the stream phase runs at a gentler rate than base training: each item is
    # seen once, and a hot optimizer would churn through old-task competence
    model.learning_rate = cfg.stream_learning_rate
    model.reset_optimizer()
    schedule = build_schedule([int(np.sum(corpus.continuous.tasks == t)) for t in TASKS],
                              corpus.config.ramp_fraction)
    stream = emit_stream(corpus.continuous, schedule,
                         np.random.default_rng(seed + STREAM_SEED_OFFSET))
    strategy = make_strategy(strategy_name, model, ewc_lambda=cfg.ewc_lambda,
                             memory_size=cfg.memory_size,
                             train_batch_size=cfg.train_batch_size,
                             recompute_signatures=cfg.recompute_signatures)
    rng = np.random.default_rng(seed)
    b = cfg.input_batch_size
    total_steps = len(stream) // b  # trailing partial batch is dropped
    checkpoint_steps = {
        task: min(pos // b + 1, total_steps)
        for task, pos in schedule.checkpoint_positions().items()
    }
    if checkpoint_steps["B"] >= total_steps:
        # area_C averages the probes after B's checkpoint; the last probe is the final step
        raise ConfigError(f"task C's segment ends before any validation probe after task B's "
                          f"checkpoint (step {checkpoint_steps['B']} of {total_steps}), so "
                          f"area_C is undefined; generate the corpus with a longer --cont-c")
    probe_at = set(ev.probe_steps(total_steps, cfg.probe_every))
    step_metrics = ("loss", "batch_accuracy", "n_misclassified") if strategy_name == "dm" \
        else ("loss", "batch_accuracy")
    rows = []
    rmatrix = np.full((len(ev.R_ROWS), len(TASKS)), np.nan)
    rmatrix[0] = _task_accuracies(base_model, corpus.test)
    rows += ev.validation_probe(model, corpus.validation, 0, strategy.name, seed)
    for step in range(1, total_steps + 1):
        lo = (step - 1) * b
        report = strategy.step(stream.images[lo : lo + b], stream.labels[lo : lo + b],
                               tasks=stream.tasks[lo : lo + b], rng=rng)
        for metric in step_metrics:
            rows.append({"step": step, "strategy": strategy.name, "seed": seed,
                         "task": "stream", "split": "train", "metric": metric,
                         "value": getattr(report, metric)})
        if step in probe_at:
            rows += ev.validation_probe(model, corpus.validation, step, strategy.name, seed)
        for task, ckpt_step in checkpoint_steps.items():
            if step == ckpt_step:
                rmatrix[1 + TASKS.index(task)] = _task_accuracies(model, corpus.test)
    # the stream ends inside task C's pure segment; its checkpoint is the final step
    summary = {
        "strategy": strategy.name, "seed": seed,
        "config_hash": cfg.config_hash(), "memory_size": cfg.memory_size,
        "acc_A": float(rmatrix[-1, 0]), "acc_B": float(rmatrix[-1, 1]),
        "acc_C": float(rmatrix[-1, 2]),
        "bwt": ev.bwt(rmatrix), "fwt": ev.fwt(rmatrix, rmatrix[0]),
        # task C's adaptation speed, from the probes after B's checkpoint
        "area_C": ev.learning_curve_area(rows, "C", checkpoint_steps["B"]),
        "rmatrix": rmatrix.tolist(), "r_rows": list(ev.R_ROWS), "tasks": list(TASKS),
    }
    dump = strategy.memory.dump() if strategy_name == "dm" else None
    return RunResult(strategy.name, seed, rows, rmatrix, summary, stream.ids.copy(), dump)


def run_full_training(corpus, cfg, seed):
    """Upper bound: conventional training on base + continuous data at once."""
    model = cfg.new_model(seed)
    rng = np.random.default_rng(seed)
    images = np.concatenate([corpus.base.images, corpus.continuous.images])
    labels = np.concatenate([corpus.base.labels, corpus.continuous.labels])
    model.fit(images, labels, epochs=cfg.full_epochs,
              batch_size=cfg.train_batch_size, rng=rng)
    accs = _task_accuracies(model, corpus.test)
    rows = [{"step": cfg.full_epochs, "strategy": "full", "seed": seed, "task": t,
             "split": "test", "metric": "accuracy", "value": a}
            for t, a in zip(TASKS, accs)]
    summary = {
        "strategy": "full", "seed": seed, "config_hash": cfg.config_hash(),
        "memory_size": None,
        "acc_A": accs[0], "acc_B": accs[1], "acc_C": accs[2],
        "bwt": None, "fwt": None,  # undefined for non-sequential training
    }
    return RunResult("full", seed, rows, None, summary, np.array([], dtype=np.int64))
