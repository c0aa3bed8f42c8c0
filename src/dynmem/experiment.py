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
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from . import evaluation as ev
from .data import TASKS, emit_stream
from .model import ConvNetClassifier
from .strategies import make_strategy
from .validation import ConfigError, DivergenceError

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
        for name in ("seed", "n_seeds", "input_batch_size", "train_batch_size", "memory_size",
                     "base_epochs", "full_epochs", "probe_every", "image_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer would not serialise to JSON
        if self.memory_size < 2 or self.memory_size % 2:
            raise ConfigError(f"memory size M must be an even integer >= 2, got {self.memory_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("n_seeds", "input_batch_size", "train_batch_size",
                     "base_epochs", "full_epochs", "probe_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("learning_rate", "stream_learning_rate"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.ewc_lambda < np.inf:
            raise ConfigError(f"ewc_lambda must be non-negative and finite, got {self.ewc_lambda}")

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

    There is one worker per usable core, and at most one per seed; with one
    worker this is a loop in this process. An exception that `fn(seed)` raises
    in a worker is raised here when that seed's turn comes. The pool is shut
    down, the seeds not yet started cancelled, when the generator ends or is dropped.
    """
    seeds = list(seeds)
    workers = min(len(seeds), usable_cores())
    if workers <= 1:
        for seed in seeds:
            yield fn(seed)
        return
    with _forked_pool(workers, fn) as submit:
        futures = [submit(seed) for seed in seeds]
        for future in futures:
            yield future.result()


@contextmanager
def _forked_pool(workers, fn):
    """`submit(arg)`, which starts `fn(arg)` in one of `workers` processes and
    returns its future. The workers are forked at the first submit, so they
    inherit `fn` and all it refers to (corpus, config, models); only arguments
    and results are pickled. Each runs OpenBLAS on one thread: one process per
    core already fills the cores, and OpenBLAS's spinning threads on top of
    them slowed the acceptance fixture several-fold. On exit the pool is shut
    down, with the calls not yet started cancelled."""
    # imported here, so that a command that forks nothing does not pay ~20 ms to load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(fn,))
    try:
        yield partial(pool.submit, _call_inherited)
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
    rows: list                # metric rows for the CSV
    summary: dict             # strategy, seed, accuracies and, for a stream run, the R-matrix
    memory_dump: str = None   # the dm memory's final contents


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
    rows += ev.validation_probe(model, corpus.validation, len(history), "base", seed)
    if with_ewc:
        model.fisher_diagonal(base.images, base.labels)
        model.snapshot_anchor()
    return model, rows


@contextmanager
def _evaluator(model, evaluate):
    """`submit(*jobs)`, which starts `evaluate(job)` for each job on `model` as
    it is now and returns a call that gives their results, in a list.

    With a spare core, jobs run in one forked process while training goes
    on: each submit sends it a copy of the model's eval state, which it loads
    into the model it inherited. A submit first raises the exception of any
    earlier job that has failed. The first call for results marks the end of
    training: this process then takes back, oldest first, each job that the
    forked one has not started, and runs it here on the eval state it was
    submitted with, while the forked one finishes the rest. That leaves
    `model` holding one of those states. Without a spare core, each job runs
    here, at once.
    """
    # a pool worker has no spare core: its pool already runs a process on each
    if _inherited_fn is not None or usable_cores() < 2:
        def submit(*jobs):
            results = [evaluate(job) for job in jobs]
            return lambda: results
        yield submit
        return

    def evaluate_state(job_state):
        job, state = job_state
        model.set_eval_state(state)
        return evaluate(job)

    with _forked_pool(1, evaluate_state) as submit_job:
        unfinished = {}  # future -> (job, state) for each job not seen to finish
        run_here = {}  # future -> result of a job taken back from the process

        def submit(*jobs):
            for future in [f for f in unfinished if f.done()]:
                future.result()  # raises a job's exception, without waiting
                del unfinished[future]
            state = model.eval_state()  # one copy for all the jobs
            futures = [submit_job((job, state)) for job in jobs]
            unfinished.update((future, (job, state)) for future, job in zip(futures, jobs))
            return partial(results, futures)

        def results(futures):
            for taken, (job, state) in list(unfinished.items()):  # oldest first
                del unfinished[taken]
                if taken.cancel():  # False once the process has started it
                    model.set_eval_state(state)
                    run_here[taken] = evaluate(job)
            return [run_here[f] if f in run_here else f.result() for f in futures]
        yield submit


def run_continual(corpus, base_model, strategy_name, cfg, seed):
    """One continual run over the stream, with probes, R-matrix and summary.
    An `_evaluator` computes the probes and R-matrix rows, beside the training
    where a core is spare; the results do not depend on where they ran."""
    b = cfg.input_batch_size
    if b > cfg.train_batch_size:
        raise ConfigError(f"the input batch --batch ({b}) must not exceed the training batch "
                          f"--train-batch ({cfg.train_batch_size})")
    model = base_model.clone()
    # the stream phase runs at a gentler rate than base training: each item is
    # seen once, and a hot optimizer would churn through old-task competence
    model.learning_rate = cfg.stream_learning_rate
    model.reset_optimizer()
    continuous = corpus.continuous
    order, checkpoints = emit_stream(continuous, corpus.config.ramp_fraction,
                                     np.random.default_rng(seed + STREAM_SEED_OFFSET))
    strategy = make_strategy(strategy_name, model, cfg)
    rng = np.random.default_rng(seed)
    total_steps = len(order) // b  # trailing partial batch is dropped
    checkpoint_steps = {task: min(pos // b + 1, total_steps) for task, pos in checkpoints.items()}
    if checkpoint_steps["B"] >= total_steps:
        # area_C averages the probes after B's checkpoint; the last probe is the final step
        raise ConfigError(f"task C's segment ends before any validation probe after task B's "
                          f"checkpoint (step {checkpoint_steps['B']} of {total_steps}), so "
                          f"area_C is undefined; generate the corpus with a longer --cont-c "
                          f"or lower --batch ({b})")
    probe_at = set(ev.probe_steps(total_steps, cfg.probe_every))
    # R-matrix rows by the step after which they are measured; step 0 is the base model
    r_rows_at = {0: [0]}
    for task, ckpt_step in checkpoint_steps.items():
        r_rows_at.setdefault(ckpt_step, []).append(1 + TASKS.index(task))
    diverge_flags = f"--stream-lr ({cfg.stream_learning_rate:g})" + (
        f" or --lambda ({cfg.ewc_lambda:g})" if strategy_name in ("ewc", "ewc-fbn") else "")

    def evaluate(job):
        step, split = job
        if split == "validation":
            return ev.validation_probe(model, corpus.validation, step, strategy.name, seed)
        return ev.task_accuracies(model, corpus.test)

    def jobs(step):  # the probe and the R-row are separate jobs, so two cores can share them
        return [(step, split) for split, steps in (("validation", probe_at), ("test", r_rows_at))
                if step in steps]

    rows = []
    evaluations = []  # (position in rows, step, call giving the results of jobs(step))
    with _evaluator(model, evaluate) as submit:
        evaluations.append((0, 0, submit(*jobs(0))))
        # a diverging loss overflows on its way to NaN; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, total_steps + 1):
                batch = order[(step - 1) * b : step * b]
                report = strategy.step(continuous.images[batch], continuous.labels[batch],
                                       tasks=continuous.tasks[batch], rng=rng)
                if not np.isfinite(report["loss"]):
                    raise DivergenceError(f"stream training diverged ({strategy.name}): loss "
                                          f"{report['loss']} at step {step} of {total_steps}; "
                                          f"lower {diverge_flags}")
                rows += [{"step": step, "strategy": strategy.name, "seed": seed, "task": "stream",
                          "split": "train", "metric": metric, "value": value}
                         for metric, value in report.items()]
                if step in probe_at or step in r_rows_at:
                    evaluations.append((len(rows), step, submit(*jobs(step))))
        evaluations = [(at, step, results()) for at, step, results in evaluations]
    rmatrix = np.full((len(ev.R_ROWS), len(TASKS)), np.nan)
    for at, step, results in reversed(evaluations):
        if step in probe_at:
            rows[at:at] = results[0]
        if step in r_rows_at:
            rmatrix[r_rows_at[step]] = results[-1]
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
    return RunResult(rows, summary, strategy.memory.dump() if strategy_name == "dm" else None)


def run_full_training(corpus, cfg, seed):
    """Upper bound: conventional training on base + continuous data at once."""
    model = cfg.new_model(seed)
    rng = np.random.default_rng(seed)
    images = np.concatenate([corpus.base.images, corpus.continuous.images])
    labels = np.concatenate([corpus.base.labels, corpus.continuous.labels])
    model.fit(images, labels, epochs=cfg.full_epochs,
              batch_size=cfg.train_batch_size, rng=rng)
    accs = ev.task_accuracies(model, corpus.test)
    rows = [{"step": cfg.full_epochs, "strategy": "full", "seed": seed, "task": t,
             "split": "test", "metric": "accuracy", "value": a}
            for t, a in zip(TASKS, accs)]
    summary = {
        "strategy": "full", "seed": seed, "config_hash": cfg.config_hash(),
        "memory_size": None,
        "acc_A": accs[0], "acc_B": accs[1], "acc_C": accs[2],
        "bwt": None, "fwt": None,  # undefined for non-sequential training
    }
    return RunResult(rows, summary)
