"""Continual training regimes over a sequential stream: dynamic-memory
rehearsal, naive fine-tuning, EWC and EWC with frozen normalization.
Each strategy's `step` trains on one input batch and returns the step's
metrics by name, in the order of their rows in the metrics CSV.
"""
from __future__ import annotations

import numpy as np

from .gram import gram_matrix, signatures
from .memory import DynamicMemory
from .validation import ConfigError, StateError, check_labels


class NaiveStrategy:
    """Sequential updates on the raw input batch; no forgetting counter-measure."""

    name = "naive"

    def __init__(self, model):
        self.model = model

    def step(self, images, labels, tasks=None, rng=None):
        loss, acc = self.model.train_step(images, labels)
        return {"loss": loss, "batch_accuracy": acc}


class EWCStrategy:
    """Quadratic penalty anchoring parameters weighted by the Fisher diagonal.

    With frozen_norm=True the normalization layers (running statistics and
    scale/shift) are immutable during continual updates.
    """

    name = "ewc"

    def __init__(self, model, ewc_lambda, frozen_norm=False):
        if model.fisher is None or model.anchor is None:
            raise StateError("EWC needs a Fisher diagonal and a parameter anchor computed "
                             "after base training (rerun train-base without --no-ewc)")
        self.model = model
        self.ewc_lambda = ewc_lambda
        self.frozen_norm = frozen_norm
        if frozen_norm:
            self.name = "ewc-fbn"
            model.norm_frozen = True

    def penalty(self):
        """(lambda/2) * sum_i F_i (theta_i - theta*_i)^2 and its gradient."""
        lam = self.ewc_lambda
        loss = 0.0
        grads = {}
        for name, p in self.model.named_params().items():
            diff = p - self.model.anchor[name]
            f = self.model.fisher[name]
            loss += 0.5 * lam * float(np.sum(f * diff * diff))
            grads[name] = lam * f * diff
        return loss, grads

    def step(self, images, labels, tasks=None, rng=None):
        pen_loss, pen_grads = self.penalty() if self.ewc_lambda else (0.0, None)
        loss, acc = self.model.train_step(images, labels,
                                          penalty_grads=pen_grads, penalty_loss=pen_loss)
        return {"loss": loss, "batch_accuracy": acc}


class DMStrategy:
    """Gram-distance dynamic-memory rehearsal.

    Per input batch: one eval-mode forward pass, which keeps no backward
    caches, yields predictions and gram signatures; the memory stores the
    batch with one `insert_batch` (update rules 1-3); the training batch is
    assembled from the misclassified samples plus uniform memory draws up to
    size T; one train-mode update follows. The memory update strictly
    precedes the model update.
    """

    name = "dm"

    def __init__(self, model, memory_size, train_batch_size, recompute_signatures=False):
        self.model = model
        self.memory = DynamicMemory(memory_size)
        self.train_batch_size = train_batch_size
        self.recompute_signatures = recompute_signatures
        self.step_count = 0

    def step(self, images, labels, tasks=None, *, rng):
        images, labels = np.asarray(images), check_labels(labels, len(images), "labels")
        if len(labels) > self.train_batch_size:
            raise ConfigError(
                f"input batch of {len(labels)} exceeds training batch size "
                f"{self.train_batch_size}"
            )
        # shared eval-mode pass: predictions and signatures under the current model
        logits, taps = self.model.infer_with_taps(images)
        preds = (logits > 0).astype(np.int64)
        grams = [gram_matrix(t) for t in taps]
        if self.recompute_signatures:
            self.memory.refresh_signatures(lambda X: signatures(self.model, X), labels=labels)
        self.step_count += 1  # only a batch that passed the checks and the forward counts
        self.memory.insert_batch(images, labels, grams, self.step_count, tasks)
        mis = preds != labels
        n_mis = int(mis.sum())
        drawn_images, drawn_labels = self.memory.draw_rehearsal(self.train_batch_size - n_mis, rng)
        loss, _ = self.model.train_step(np.concatenate([images[mis], drawn_images]),
                                        np.concatenate([labels[mis], drawn_labels]))
        return {"loss": loss, "batch_accuracy": float(np.mean(preds == labels)),
                "n_misclassified": n_mis}


def make_strategy(name, model, cfg):
    """The strategy `name` on `model`, with its settings from the ExperimentConfig `cfg`."""
    if name == "naive":
        return NaiveStrategy(model)
    if name in ("ewc", "ewc-fbn"):
        return EWCStrategy(model, cfg.ewc_lambda, frozen_norm=name == "ewc-fbn")
    if name == "dm":
        return DMStrategy(model, cfg.memory_size, cfg.train_batch_size,
                          cfg.recompute_signatures)
    raise ConfigError(f"unknown strategy {name!r}")
