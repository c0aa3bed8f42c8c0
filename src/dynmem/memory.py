"""Fixed-size rehearsal memory with class quotas and gram-distance replacement.

Update rules: (1) every incoming sample is stored; (2) a sample can only
replace a stored item of the same class; (3) the replaced item is the
same-class item closest in gram distance, so visually distant (older-style)
items resist replacement. Until a class reaches its quota, items append
(fill phase). Row i of `items` and of each per-tap stack in `grams` is the
same item.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import gram_distance
from .validation import ConfigError, ShapeError, StateError


@dataclass
class InsertOutcome:
    kind: str  # "appended" | "replaced"
    index: int
    distance: float = float("nan")


def _records(size, image):
    """(size,) structured array of items shaped like `image`. `task_id` is
    evaluation-only diagnostics, never used by the policy; `distance` is the
    gram distance to the item this one replaced (NaN for an append)."""
    return np.zeros(size, dtype=[("image", image.dtype, image.shape), ("label", np.int64),
                                 ("step", np.int64), ("task_id", object),
                                 ("distance", np.float64)])


class DynamicMemory:
    """Capacity-M store of image/label pairs with a uniform per-class quota
    of floor(M/2) for the binary task."""

    def __init__(self, capacity):
        if capacity < 2:
            raise ConfigError(f"memory capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.quota = capacity // 2
        self._size = 0
        self._rows = _records(0, np.zeros(()))  # (capacity,) once the first item arrives
        self.grams = self._norms = None  # per tap: (capacity, N, N) float64 stack; squared norms

    def __len__(self):
        return self._size

    @property
    def items(self):
        """The stored items in insertion order: a record array view with
        fields image, label, step, task_id and distance."""
        return self._rows[:self._size].view(np.recarray)

    def _column(self, field):  # by field name: a recarray view costs microseconds per access
        return self._rows[field][:self._size]

    def class_count(self, label):
        return np.count_nonzero(self._column("label") == label)

    def argmin_replacement_index(self, label, signature):
        """(index, distance) of the same-class item with minimal gram distance
        to the incoming signature; ties break to the lowest index (oldest)."""
        rows = np.flatnonzero(self._column("label") == label)
        if not rows.size:
            raise StateError(f"no stored item of class {label} to replace")
        rows = self._screen(self._as_stored(signature), rows)
        distances = gram_distance(signature, [g[rows] for g in self.grams])
        best = int(np.argmin(distances))
        return int(rows[best]), float(distances[best])

    def _as_stored(self, signature):  # its taps in float64, as _screen's bound assumes
        shapes, stored = [np.shape(g) for g in signature], [g.shape[1:] for g in self.grams]
        if shapes != stored:
            raise ShapeError(f"signatures have mismatched layer structure: {shapes} vs {stored}")
        return [np.asarray(g, np.float64) for g in signature]

    def _screen(self, signature, rows):
        """The `rows`, in order, that can hold the first minimum of the gram distance to
        `signature`; all `rows` where a bound is not finite. est, the sum over T taps of
        (|y|^2 + |x|^2 - 2y.x)/m (m = N*N), and gram_distance sum products y_i^2, x_i^2, y_i x_i or
        (y_i - x_i)^2, each rounded <= k = max m + T + 2 times (m-term sum; add and subtract or
        subtract and square; /m; tap sum): within g(k) = ku/(1-ku), u = 2**-53, of exact (Higham,
        Accuracy and Stability of Numerical Algorithms, 3.1). As W = |y|^2 + |x|^2 >= |y-x|^2/2,
        both are within 2g(k) sum W/m of sum |y-x|^2/m; rho, the computed sum of (|y|^2 + |x|^2)/m,
        is >= (1 - g(k)) sum W/m: |distance - est| <= 5g(k)rho, and 8g(k)rho covers rounding
        est +- radius. T*2**-1071 covers subnormals (7 errors of 2**-1075 per tap); 8k rho < inf
        rules out overflow."""
        size, k = self._size, max(g[0].size for g in self.grams) + len(self.grams) + 2
        est = rho = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for g, norms, x in zip(self.grams, self._norms, map(np.ravel, signature)):
                c = norms[:size] + x @ x
                est = est + (c - 2 * (g[:size].reshape(size, -1) @ x)) / x.size
                rho = rho + c / x.size
            radius = 8 * k / (2.0**53 - k) * rho[rows] + len(self.grams) * 2.0**-1071
            kept = rows[est[rows] - radius <= (est[rows] + radius).min()]
        return kept if np.isfinite(8 * k * rho[rows]).all() else rows

    def insert(self, image, label, signature, step, task_id="?"):
        """Store one incoming sample; append while the class quota is open,
        otherwise replace the closest same-class item."""
        image = np.asarray(image)
        if self.grams is None:
            self.grams = [np.zeros((self.capacity, *np.shape(g))) for g in signature]
            self._norms = np.zeros((len(signature), self.capacity))
            self._rows = _records(self.capacity, image)
        signature = self._as_stored(signature)
        if image.shape != self._rows.dtype["image"].shape:
            raise ShapeError(f"image shape {image.shape} differs from the stored "
                             f"{self._rows.dtype['image'].shape}")
        if self.class_count(label) < self.quota:
            outcome = InsertOutcome("appended", self._size)
            self._size += 1
        else:
            outcome = InsertOutcome("replaced", *self.argmin_replacement_index(label, signature))
        self._rows[outcome.index] = (image, label, step, task_id, outcome.distance)
        self._store(outcome.index, signature)
        return outcome

    def _store(self, index, stacks):  # each tap's signatures and squared norms at `index`
        for g, norms, stack in zip(self.grams, self._norms, stacks):
            g[index] = stack = np.asarray(stack, np.float64)  # the norm of what is stored
            norms[index] = np.einsum("...ij,...ij->...", stack, stack)

    def draw_rehearsal(self, k, rng):
        """(images, labels) of a uniform draw of up to k items without
        replacement."""
        idx = (rng.choice(len(self), size=min(k, len(self)), replace=False)
               if k > 0 and len(self) else np.arange(0))
        return self._rows["image"][idx], self._rows["label"][idx]

    def refresh_signatures(self, signature_fn, labels=None):
        """Recompute stored signatures in place under the current model
        (fidelity switch; default policy keeps insertion-time signatures),
        for the items whose label is in `labels` (all items if None).
        `signature_fn(images)` gives one (K, N, N) stack per tap."""
        # list(): np.isin would take a set as one object
        rows = np.arange(len(self)) if labels is None else \
            np.flatnonzero(np.isin(self._column("label"), list(labels)))
        if rows.size:
            self._store(rows, signature_fn(self._rows["image"][rows]))

    def dump(self):
        """Diagnostic text: one line per item {step, label, task, distance}."""
        fields = (self._column(f).tolist() for f in ("step", "label", "task_id", "distance"))
        lines = ["step\tlabel\ttask\tdistance_at_replacement"]
        lines += [f"{s}\t{lab}\t{t}\t{d!r}" for s, lab, t, d in zip(*fields)]
        return "\n".join(lines) + "\n"
