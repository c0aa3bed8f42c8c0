"""Correctness checks on the outputs of the benchmark's workloads.

Each check returns a list of messages, empty when the output passes. Every
expected value comes from a computation made here, apart from the program,
or from a property the method must have; none comes from a stored copy of
earlier outputs.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Learning must show: with balanced labels and 150 samples per task, a model
# at chance reads 0.5 +- 0.04, so 0.6 is 2.5 standard deviations above it.
CHANCE = 0.5
TASK_A_VAL_MARGIN = 0.10  # base model's task-A validation accuracy >= 0.60
TASK_C_TEST_MARGIN = 0.10  # final task-C test accuracy of a stream run >= 0.60


def tree_digest(root):
    """sha256 of every file under `root`, keyed by its path relative to it."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def identical_trees(a, b):
    """Files that differ, or exist on one side only, between two output trees."""
    da, db = tree_digest(a), tree_digest(b)
    return [f"{name} differs between {a} and {b}"
            for name in sorted(set(da) | set(db)) if da.get(name) != db.get(name)]


def fisher_errors(model, images, labels, where):
    """The checkpoint's Fisher diagonal and anchor against properties of EWC.

    For a sigmoid output with binary cross entropy, d loss / d head.bias is
    sigma(z) - y, so the empirical Fisher entry of the head bias is the mean
    of (sigma(z) - y)^2 over the Fisher split, with z the eval-mode logits.
    """
    errors = []
    params = model.named_params()
    fisher, anchor = model.fisher, model.anchor
    if fisher is None or anchor is None:
        return [f"{where}: checkpoint has no Fisher diagonal or anchor"]
    for name, table in (("Fisher", fisher), ("anchor", anchor)):
        if set(table) != set(params):
            errors.append(f"{where}: {name} names differ from the parameter names")
            return errors
    for name, p in params.items():
        f = fisher[name]
        if f.shape != p.shape or not np.all(np.isfinite(f)) or np.any(f < 0):
            errors.append(f"{where}: Fisher[{name}] is misshaped, non-finite or negative")
        if not np.array_equal(anchor[name], p):
            errors.append(f"{where}: anchor[{name}] differs from the parameters")
    z = model.decision_function(images).astype(np.float64)
    sigma = np.exp(-np.logaddexp(0.0, -z))
    expected = float(np.mean((sigma - labels) ** 2))
    got = float(fisher["head.bias"][0])
    if not math.isclose(got, expected, rel_tol=1e-5):
        errors.append(f"{where}: Fisher[head.bias] = {got!r}, but the mean of "
                      f"(sigma(z) - y)^2 over the base split is {expected!r}")
    return errors


def margin_errors(value, margin, what):
    if not value >= CHANCE + margin:
        return [f"{what} = {value!r} is not above chance {CHANCE} by {margin}"]
    return []


def _fraction_errors(values, n, what):
    """Each value must be k/n for a whole k in [0, n]."""
    bad = [v for v in values
           if not (0.0 <= v <= 1.0 and abs(v * n - round(v * n)) < 1e-9)]
    return [f"{what}: {bad[:3]!r} are not multiples of 1/{n} in [0, 1]"] if bad else []


def summary_errors(summary, n_eval, where):
    """Final accuracies and transfer recomputed from the R-matrix.

    Rows are base, after_A, after_B, after_C; columns tasks A, B, C.
    bwt = mean over tasks A, B of (final accuracy - accuracy after the task's
    own segment); fwt = mean over tasks B, C of (accuracy just before the
    task's segment - the base model's accuracy on it).
    """
    R = np.asarray(summary["rmatrix"], dtype=np.float64)
    if R.shape != (4, 3):
        return [f"{where}: R-matrix has shape {R.shape}, expected (4, 3)"]
    expected = {
        "acc_A": R[3, 0], "acc_B": R[3, 1], "acc_C": R[3, 2],
        "bwt": ((R[3, 0] - R[1, 0]) + (R[3, 1] - R[2, 1])) / 2,
        "fwt": ((R[1, 1] - R[0, 1]) + (R[2, 2] - R[0, 2])) / 2,
    }
    errors = [f"{where}: {key} = {summary.get(key)!r}, recomputed {float(value)!r}"
              for key, value in expected.items()
              if not isinstance(summary.get(key), float)
              or abs(summary[key] - value) > 1e-12]
    return errors + _fraction_errors(R.ravel().tolist(), n_eval, f"{where}: R-matrix")


def metrics_errors(rows, total_steps, probe_every, n_eval, where):
    """Loss rows at every step and validation probes on the fixed cadence."""
    errors = []
    losses = [r for r in rows if r["metric"] == "loss"]
    if [int(r["step"]) for r in losses] != list(range(1, total_steps + 1)):
        errors.append(f"{where}: loss rows are not one per step 1..{total_steps}")
    if not all(math.isfinite(float(r["value"])) for r in losses):
        errors.append(f"{where}: a loss is not finite")
    probes = sorted(list(range(0, total_steps, probe_every)) + [total_steps])
    for task in "ABC":
        val = [r for r in rows if r["split"] == "val" and r["task"] == task]
        if [int(r["step"]) for r in val] != probes:
            errors.append(f"{where}: task-{task} probes are not at steps {probes}")
        errors += _fraction_errors([float(r["value"]) for r in val], n_eval,
                                   f"{where}: task-{task} probe")
    return errors


def memory_dump_errors(text, memory_size, total_steps, where):
    """Quota, step range and replacement distances of a final memory dump.

    An item with no replacement distance was appended while its class filled;
    every replacing item comes later, so per class no such item may be newer
    than an item that replaced another.
    """
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != ["step", "label", "task",
                                              "distance_at_replacement"]:
        return [f"{where}: memory dump has no header"]
    errors = []
    by_class = {0: [], 1: []}
    for line in lines[1:]:
        step, label, _task, distance = line.split("\t")
        step, distance = int(step), float(distance)
        if int(label) not in by_class:
            return [f"{where}: label {label} is not binary"]
        by_class[int(label)].append((step, distance))
        if not 1 <= step <= total_steps:
            errors.append(f"{where}: item step {step} is outside 1..{total_steps}")
        if not (math.isnan(distance) or (math.isfinite(distance) and distance >= 0)):
            errors.append(f"{where}: replacement distance {distance!r} is not finite and >= 0")
    for label, items in by_class.items():
        if len(items) != memory_size // 2:
            errors.append(f"{where}: class {label} holds {len(items)} items, "
                          f"quota {memory_size // 2}")
        appended = [s for s, d in items if math.isnan(d)]
        replacing = [s for s, d in items if not math.isnan(d)]
        if appended and replacing and max(appended) > min(replacing):
            errors.append(f"{where}: class {label} has an unreplaced item from step "
                          f"{max(appended)}, after a replacement at step {min(replacing)}")
    return errors


def base_errors(out_dir, corpus, seeds):
    """`train-base` outputs: Fisher, anchor and task-A validation accuracy per seed."""
    from dynmem.evaluation import read_metrics_csv
    from dynmem.model import ConvNetClassifier

    errors = []
    val_a = corpus.validation.task_subset("A")
    for seed in seeds:
        where = f"base seed {seed}"
        model = ConvNetClassifier.load(Path(out_dir) / f"base_seed{seed}.ckpt")
        errors += fisher_errors(model, corpus.base.images, corpus.base.labels, where)
        accuracy = float(np.mean(model.predict(val_a.images) == val_a.labels))
        reported = [float(r["value"]) for r in read_metrics_csv(
            Path(out_dir) / f"metrics_base_seed{seed}.csv")
            if (r["split"], r["task"], r["metric"]) == ("val", "A", "accuracy")]
        if reported != [accuracy]:
            errors.append(f"{where}: reported task-A accuracy {reported} differs from "
                          f"the checkpoint's {accuracy!r}")
        errors += margin_errors(accuracy, TASK_A_VAL_MARGIN, f"{where}: task-A val accuracy")
    return errors


def continual_errors(run_dir, memory_size, corpus_config, batch=8, probe_every=30):
    """One `continual` seed directory: summary, metrics CSV and, for dm, the dump."""
    from dynmem.evaluation import read_metrics_csv

    run_dir = Path(run_dir)
    where = str(run_dir)
    total_steps = sum(corpus_config.continuous_counts) // batch
    n_eval = corpus_config.eval_count
    summary = json.loads((run_dir / "summary.json").read_text())
    errors = summary_errors(summary, n_eval, where)
    errors += metrics_errors(read_metrics_csv(run_dir / "metrics.csv"), total_steps, probe_every,
                             n_eval, where)
    errors += margin_errors(summary["acc_C"], TASK_C_TEST_MARGIN, f"{where}: acc_C")
    if memory_size:
        errors += memory_dump_errors((run_dir / "memory_dump.txt").read_text(),
                                     memory_size, total_steps, where)
    return errors
