"""Fixed-size rehearsal memory with class quotas and gram-distance replacement.

Update rules: (1) every incoming sample is stored; (2) a sample can only
replace a stored item of the same class; (3) the replaced item is the
same-class item closest in gram distance, so visually distant (older-style)
items resist replacement. Until a class reaches its quota, items append
(fill phase).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import GramSignature, gram_distance
from .validation import ConfigError, StateError


@dataclass
class MemoryItem:
    image: np.ndarray
    label: int
    signature: GramSignature
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

    def __len__(self):
        return len(self.items)

    def class_count(self, label):
        return sum(1 for it in self.items if it.label == label)

    def argmin_replacement_index(self, label, signature):
        """(index, distance) of the same-class item with minimal gram distance
        to the incoming signature; ties break to the lowest index (oldest)."""
        candidates = [(gram_distance(signature, it.signature), i)
                      for i, it in enumerate(self.items) if it.label == label]
        if not candidates:
            raise StateError(f"no stored item of class {label} to replace")
        distance, index = min(candidates)
        return index, distance

    def insert(self, image, label, signature, step, task_id="?"):
        """Store one incoming sample; append while the class quota is open,
        otherwise replace the closest same-class item."""
        item = MemoryItem(np.asarray(image), int(label), signature, step, task_id)
        if self.class_count(label) < self.quota:
            self.items.append(item)
            return InsertOutcome("appended", len(self.items) - 1)
        idx, dist = self.argmin_replacement_index(label, signature)
        item.distance = dist
        self.items[idx] = item
        return InsertOutcome("replaced", idx, dist)

    def draw_rehearsal(self, k, rng):
        """Uniform draw of up to k items without replacement."""
        if k <= 0 or not self.items:
            return []
        n = min(k, len(self.items))
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]

    def refresh_signatures(self, signature_fn, labels=None):
        """Recompute stored signatures under the current model (fidelity
        switch; default policy keeps insertion-time signatures)."""
        targets = [it for it in self.items if labels is None or it.label in labels]
        if not targets:
            return
        images = np.stack([it.image for it in targets])
        for it, sig in zip(targets, signature_fn(images)):
            it.signature = sig

    def dump(self):
        """Diagnostic text: one line per item {step, label, task, distance}."""
        lines = ["step\tlabel\ttask\tdistance_at_replacement"]
        for it in self.items:
            lines.append(f"{it.step}\t{it.label}\t{it.task_id}\t{it.distance!r}")
        return "\n".join(lines) + "\n"
