"""Accuracy, R-matrix construction, BWT/FWT and periodic validation probes.

The R-matrix has one row per evaluation checkpoint (base model, then after
each task's pure segment) and one column per task; backward and forward
transfer are averaged over the K-1 applicable tasks.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from . import nn
from .data import TASKS
from .validation import ConfigError, ShapeError

R_ROWS = ("base", "after_A", "after_B", "after_C")

CSV_HEADER = ("step", "strategy", "seed", "task", "split", "metric", "value")

# Images per eval forward. A multiple of nn.CONV_BLOCK groups the conv's GEMMs as one
# whole forward does, so the logits keep that forward's bits; 32 keeps the peak RSS low.
EVAL_BLOCK = 4 * nn.CONV_BLOCK


def accuracy(model, images, labels, batch_size=EVAL_BLOCK):
    """Fraction of correct eval-mode predictions."""
    labels = np.asarray(labels).reshape(-1)
    if len(labels) == 0:
        raise ConfigError("accuracy needs a non-empty dataset")
    correct = 0
    for start in range(0, len(labels), batch_size):
        preds = model.predict(images[start : start + batch_size])
        correct += int(np.sum(preds == labels[start : start + batch_size]))
    return correct / len(labels)


def _check_rmatrix(R):
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (len(R_ROWS), len(TASKS)):
        raise ShapeError(f"R-matrix must be {len(R_ROWS)}x{len(TASKS)}, got {R.shape}")
    return R


def bwt(R):
    """Mean over earlier tasks of (final accuracy - accuracy at the end of
    the task's own pure segment). Negative values quantify forgetting."""
    R = _check_rmatrix(R)
    final = R[-1]
    return float(np.mean([final[i] - R[1 + i, i] for i in range(len(TASKS) - 1)]))


def fwt(R, baseline):
    """Mean over later tasks of (accuracy just before the task's segment
    begins - the base model's accuracy on that task)."""
    R = _check_rmatrix(R)
    baseline = np.asarray(baseline, dtype=np.float64).reshape(-1)
    if baseline.shape != (len(TASKS),):
        raise ShapeError(f"baseline must have one entry per task, got {baseline.shape}")
    return float(np.mean([R[i, i] - baseline[i] for i in range(1, len(TASKS))]))


def probe_steps(total_steps, every=30):
    """Validation cadence: step 0, every `every` steps, and the final step."""
    steps = {0, total_steps}
    steps.update(range(every, total_steps, every))
    return sorted(steps)


def learning_curve_area(rows, task, after_step):
    """Mean validation accuracy on `task` over the probes after `after_step`
    (learning-curve area, Chaudhry et al. 2019, arXiv:1812.00420): the
    adaptation-speed metric, higher when the task is learned sooner."""
    return float(np.mean([float(r["value"]) for r in rows
                          if r["task"] == task and r["split"] == "val"
                          and r["metric"] == "accuracy" and int(r["step"]) > after_step]))


def task_accuracies(model, split):
    """Accuracy on each task's part of `split`, in task order."""
    return [accuracy(model, ds.images, ds.labels) for ds in map(split.task_subset, TASKS)]


def validation_probe(model, validation, step, strategy, seed):
    """One accuracy row per task on the validation split; never mutates state."""
    return [{"step": step, "strategy": strategy, "seed": seed, "task": task,
             "split": "val", "metric": "accuracy", "value": value}
            for task, value in zip(TASKS, task_accuracies(model, validation))]


def rows_to_csv(rows):
    """Render metric rows into the canonical CSV (deterministic bytes)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r[k] for k in CSV_HEADER])
    return buf.getvalue()


def read_metrics_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def aggregate_summaries(summaries, metrics):
    """Mean and sample standard deviation (0.0 for one run) across run
    summaries for each named scalar metric; None where no run has it."""
    out = {}
    for m in metrics:
        v = np.asarray([s[m] for s in summaries if s.get(m) is not None], dtype=np.float64)
        sd = float(v.std(ddof=1)) if len(v) > 1 else 0.0
        out[m] = {"mean": float(v.mean()), "sd": sd} if len(v) else None
    return out
