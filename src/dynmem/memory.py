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
from .validation import ConfigError, ShapeError, check_labels


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

    def _admit(self, images, stacks, n):
        """Each tap's stack of `n` signatures in float64, as `_screen`'s bound assumes, once
        the `n` images and the stacks have the stored shapes; the first batch sets them, and
        the store is allocated after its checks."""
        image = images.shape[1:] if self.grams is None else self._rows.dtype["image"].shape
        if images.shape != (n, *image):
            raise ShapeError(f"image shape {images.shape[1:]} differs from the stored {image}")
        taps = ([np.shape(g)[1:] for g in stacks] if self.grams is None
                else [g.shape[1:] for g in self.grams])
        shapes, stored = [np.shape(g) for g in stacks], [(n, *t) for t in taps]
        if shapes != stored:
            raise ShapeError(f"signatures have mismatched layer structure: {shapes} vs {stored}")
        stacks = [np.asarray(g, np.float64) for g in stacks]
        if self.grams is None:
            self._rows = _records(self.capacity, np.zeros(image, images.dtype))
            self.grams = [np.zeros((self.capacity, *t)) for t in taps]
            self._norms = np.zeros((len(stacks), self.capacity))
        return stacks

    def _products(self, stacks):
        """`_screen`'s est and rho against B signatures (per tap a (B, N, N) float64 stack) for
        the stored rows and then the B themselves, (size + B, B) each, from two products per tap."""
        size, b = self._size, len(stacks[0])
        est = rho = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for g, norms, x in zip(self.grams, self._norms, stacks):
                x = x.reshape(b, g[0].size)
                mates = x @ x.T
                dots = np.concatenate([g[:size].reshape(size, x.shape[1]) @ x.T, mates])
                c = np.concatenate([norms[:size], mates.diagonal()])[:, None] + mates.diagonal()
                est = est + (c - 2 * dots) / x.shape[1]
                rho = rho + c / x.shape[1]
        return est, rho

    def _screen(self, est, rho, rows):
        """The `rows`, in order, that can hold the first minimum of the gram distance to an
        incoming signature x, from `_products`' est and rho at those rows; all `rows` where a
        bound is not finite. est, the sum over T taps of (|y|^2 + |x|^2 - 2y.x)/m (m = N*N), and
        gram_distance sum products y_i^2, x_i^2, y_i x_i or (y_i - x_i)^2, in any order, each
        rounded <= k = max m + T + 2 times (m-term sum; add and subtract or subtract and square;
        /m; tap sum): within g(k) = ku/(1-ku), u = 2**-53, of exact (Higham, Accuracy and
        Stability of Numerical Algorithms, 3.1). As W = |y|^2 + |x|^2 >= |y-x|^2/2, both are
        within 2g(k) sum W/m of sum |y-x|^2/m; rho, the computed sum of (|y|^2 + |x|^2)/m, is
        >= (1 - g(k)) sum W/m: |distance - est| <= 5g(k)rho, and 8g(k)rho covers rounding
        est +- radius. T*2**-1071 covers subnormals (7 errors of 2**-1075 per tap); 8k rho < inf
        rules out overflow."""
        k = max(g[0].size for g in self.grams) + len(self.grams) + 2
        with np.errstate(over="ignore", invalid="ignore"):
            radius = 8 * k / (2.0**53 - k) * rho + len(self.grams) * 2.0**-1071
            kept = rows[est - radius <= (est + radius).min()]
        return kept if np.isfinite(8 * k * rho).all() else rows

    def insert(self, image, label, signature, step, task_id, products):
        """Place one sample that `insert_batch` has checked: append while the class quota is
        open, otherwise replace the same-class item of minimal gram distance, the oldest on a
        tie. `products`: `_products`' est and rho, each item's est row and the sample's column."""
        rows = np.flatnonzero(self._column("label") == label)
        if rows.size < self.quota:
            outcome = InsertOutcome("appended", self._size)
            self._size += 1
        else:
            est, rho, ref, i = products
            rows = self._screen(est[ref[rows], i], rho[ref[rows], i], rows)
            distances = gram_distance(signature, [g[rows] for g in self.grams])
            best = int(np.argmin(distances))
            outcome = InsertOutcome("replaced", int(rows[best]), float(distances[best]))
        self._rows[outcome.index] = (image, label, step, task_id, outcome.distance)
        self._store(outcome.index, signature)
        return outcome

    def insert_batch(self, images, labels, signatures, step, tasks=None):
        """The only store (a lone sample is a batch of one): check the batch, then store it in
        order, one `insert` per sample, with the screen's products made once for the batch.
        `signatures` holds one (B, N, N) stack per tap. Returns each sample's InsertOutcome."""
        images, labels = np.asarray(images), check_labels(labels, name="memory labels")
        tasks = ["?"] * len(labels) if tasks is None else tasks
        if len(tasks) != len(labels):
            raise ShapeError(f"{len(tasks)} tasks for {len(labels)} samples")
        stacks = self._admit(images, signatures, len(labels))
        est, rho = self._products(stacks)
        ref, size = np.arange(self.capacity), self._size  # ref: the est row of each item
        outcomes = []
        for i, (image, label) in enumerate(zip(images, labels)):
            outcomes.append(self.insert(image, label, [g[i] for g in stacks], step, tasks[i],
                                        (est, rho, ref, i)))
            ref[outcomes[-1].index] = size + i
        return outcomes

    def _store(self, index, stacks):  # each tap's float64 signatures and squared norms at `index`
        for g, norms, stack in zip(self.grams, self._norms, stacks):
            g[index] = stack
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
        `signature_fn(images)` gives one (K, N, N) stack per tap, of the
        stored tap shapes, or ShapeError is raised before anything is written."""
        # list(): np.isin would take a set as one object
        rows = np.arange(len(self)) if labels is None else \
            np.flatnonzero(np.isin(self._column("label"), list(labels)))
        if rows.size:
            images = self._rows["image"][rows]
            self._store(rows, self._admit(images, signature_fn(images), rows.size))

    def dump(self):
        """Diagnostic text: one line per item {step, label, task, distance}."""
        fields = (self._column(f).tolist() for f in ("step", "label", "task_id", "distance"))
        lines = ["step\tlabel\ttask\tdistance_at_replacement"]
        lines += [f"{s}\t{lab}\t{t}\t{d!r}" for s, lab, t, d in zip(*fields)]
        return "\n".join(lines) + "\n"
