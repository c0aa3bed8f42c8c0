"""Fixed-size rehearsal memory with class quotas and gram-distance replacement.

Update rules: (1) every incoming sample is stored; (2) a sample can only
replace a stored item of the same class; (3) the replaced item is the
same-class item closest in gram distance, so visually distant (older-style)
items resist replacement. Until a class reaches its quota, items append
(fill phase). The signature of items[i] is row i of the per-tap stacks in
`grams`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import gram_distance
from .validation import ConfigError, ShapeError, StateError


@dataclass
class MemoryItem:
    image: np.ndarray
    label: int
    step: int
    task_id: str = "?"  # evaluation-only diagnostics, never used by the policy
    distance: float = float("nan")  # gram distance to the item this one replaced


@dataclass
class InsertOutcome:
    kind: str  # "appended" | "replaced"
    index: int
    distance: float = float("nan")


class DynamicMemory:
    """Capacity-M store of image/label pairs with a uniform per-class quota
    of floor(M/2) for the binary task."""

    def __init__(self, capacity):
        if capacity < 2:
            raise ConfigError(f"memory capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.quota = capacity // 2
        self.items = []
        self.grams = None  # one (capacity, N, N) float64 stack per tap

    def __len__(self):
        return len(self.items)

    def class_count(self, label):
        return sum(1 for it in self.items if it.label == label)

    def argmin_replacement_index(self, label, signature):
        """(index, distance) of the same-class item with minimal gram distance
        to the incoming signature; ties break to the lowest index (oldest)."""
        rows = [i for i, it in enumerate(self.items) if it.label == label]
        if not rows:
            raise StateError(f"no stored item of class {label} to replace")
        distances = gram_distance(signature, [g[rows] for g in self.grams])
        best = int(np.argmin(distances))
        return rows[best], float(distances[best])

    def insert(self, image, label, signature, step, task_id="?"):
        """Store one incoming sample; append while the class quota is open,
        otherwise replace the closest same-class item."""
        item = MemoryItem(np.asarray(image), int(label), step, task_id)
        if self.grams is None:
            self.grams = [np.zeros((self.capacity, *np.shape(g))) for g in signature]
        shapes, stored = [np.shape(g) for g in signature], [g.shape[1:] for g in self.grams]
        if shapes != stored:
            raise ShapeError(f"signatures have mismatched layer structure: {shapes} vs {stored}")
        if self.class_count(label) < self.quota:
            outcome = InsertOutcome("appended", len(self.items))
            self.items.append(item)
        else:
            outcome = InsertOutcome("replaced", *self.argmin_replacement_index(label, signature))
            item.distance = outcome.distance
            self.items[outcome.index] = item
        for g, row in zip(self.grams, signature):
            g[outcome.index] = row
        return outcome

    def draw_rehearsal(self, k, rng):
        """Uniform draw of up to k items without replacement."""
        if k <= 0 or not self.items:
            return []
        n = min(k, len(self.items))
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]

    def refresh_signatures(self, signature_fn, labels=None):
        """Recompute stored signatures in place under the current model
        (fidelity switch; default policy keeps insertion-time signatures).
        `signature_fn(images)` gives one (K, N, N) stack per tap."""
        rows = [i for i, it in enumerate(self.items) if labels is None or it.label in labels]
        if not rows:
            return
        images = np.stack([self.items[i].image for i in rows])
        for g, stack in zip(self.grams, signature_fn(images)):
            g[rows] = stack

    def dump(self):
        """Diagnostic text: one line per item {step, label, task, distance}."""
        lines = ["step\tlabel\ttask\tdistance_at_replacement"]
        for it in self.items:
            lines.append(f"{it.step}\t{it.label}\t{it.task_id}\t{it.distance!r}")
        return "\n".join(lines) + "\n"
