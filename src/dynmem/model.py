"""Small multi-scale convolutional binary classifier.

Four blocks of [conv3x3 -> norm -> ReLU -> conv3x3 stride 2 -> norm -> ReLU]
with 8/16/32/64 channels, global average pooling and a dense head producing
one logit. The stride-2 conv output of each block is exported as a tap for
gram signatures (one tap per scale, before the channel count next increases).
The convs carry no bias: the following norm's shift plays that role, and a
bias before a train-mode norm would be a dead parameter.
"""
from __future__ import annotations

import copy

import numpy as np

from . import nn
from .validation import (ConfigError, DivergenceError, StateError, check_images,
                         check_labels, read_container, write_container)

CHECKPOINT_MAGIC = b"DMCKPT1\n"
CHECKPOINT_VERSION = 3  # 2: convs carry no bias; 3: five settings, no model_version
FISHER_CHUNK = nn.CONV_BLOCK  # one conv block: backward reuses the forward's columns
# images per forward when norm statistics are refit; it fixes how the float64
# sums are grouped, so another value changes the refit statistics' bits
NORM_STATS_BLOCK = 64


class ConvNetClassifier:
    """Binary image classifier with tap exports, norm-mode switches and
    EWC support (Fisher diagonal + parameter anchor).

    Follows the usual estimator conventions: hyperparameters are constructor
    keywords, `get_params` returns them, `fit`/`predict` do the work.
    """

    def __init__(self, image_size=32, channels=(8, 16, 32, 64), learning_rate=1e-4,
                 dtype=np.float32, random_state=0):
        self.image_size = image_size
        self.channels = tuple(channels)
        if not (self.channels and all(isinstance(c, int) and c > 0 for c in self.channels)):
            raise ConfigError(f"channels must be one or more positive integers, got {channels!r}")
        self.learning_rate = learning_rate
        self.dtype = np.dtype(dtype).type
        self.random_state = random_state
        self._build(np.random.default_rng(random_state))
        self.norm_frozen = False
        self._anchor = None  # EWC's anchor and Fisher diagonal: name -> read-only array
        self._fisher = None
        self.reset_optimizer()

    # -- construction ------------------------------------------------------

    def _build(self, rng):
        dtype = self.dtype
        self.layers = []
        self.layer_names = []
        self.tap_indices = []
        in_ch = 1
        for b, ch in enumerate(self.channels, start=1):
            for tag, stride, cin in (("conv1", 1, in_ch), ("conv2", 2, ch)):
                # nothing reads the gradient with respect to the images
                conv = nn.Conv2d(cin, ch, 3, stride=stride, padding=1, rng=rng, dtype=dtype,
                                 input_grad=(b, tag) != (1, "conv1"))
                self.layers.append(conv)
                self.layer_names.append(f"b{b}.{tag}")
                if tag == "conv2":
                    self.tap_indices.append(len(self.layers) - 1)
                self.layers.append(nn.BatchNorm2d(ch, dtype=dtype))
                self.layer_names.append(f"b{b}.{tag.replace('conv', 'norm')}")
                self.layers.append(nn.ReLU())
                self.layer_names.append(f"b{b}.{tag.replace('conv', 'relu')}")
            in_ch = ch
        self.layers.append(nn.GlobalAvgPool())
        self.layer_names.append("pool")
        self.layers.append(nn.Dense(self.channels[-1], 1, rng=rng, dtype=dtype))
        self.layer_names.append("head")

    def reset_optimizer(self):
        self.optimizer = nn.Adam(self.named_params(), learning_rate=self.learning_rate)

    def get_params(self):
        return {"image_size": self.image_size, "channels": self.channels,
                "learning_rate": self.learning_rate, "dtype": np.dtype(self.dtype).name,
                "random_state": self.random_state}

    # -- parameter access --------------------------------------------------

    def _named(self, slot):
        return {f"{lname}.{name}": a for lname, layer in zip(self.layer_names, self.layers)
                for name, a in getattr(layer, slot).items()}

    def named_params(self):
        return self._named("params")

    def named_grads(self):
        return self._named("grads")

    def running_stats(self):
        out = {}
        for lname, layer in zip(self.layer_names, self.layers):
            if isinstance(layer, nn.BatchNorm2d):
                out[f"{lname}.running_mean"] = layer.running_mean
                out[f"{lname}.running_var"] = layer.running_var
        return out

    def clone(self):
        """An independent copy that shares the read-only Fisher and anchor maps."""
        return copy.deepcopy(self, {id(self._fisher): self._fisher, id(self._anchor): self._anchor})

    def eval_state(self):
        """Copies of what an eval-mode forward reads: parameters and running statistics."""
        return {n: a.copy() for n, a in {**self.named_params(), **self.running_stats()}.items()}

    def set_eval_state(self, arrays):
        """Overwrite in place what `eval_state` copies, from a name -> array map
        of the model's dtype (another dtype raises TypeError, not a cast)."""
        for name, a in {**self.named_params(), **self.running_stats()}.items():
            np.copyto(a, arrays[name], casting="no")

    # -- forward / backward ------------------------------------------------

    def _forward(self, X, mode):
        X = check_images(X, self.image_size).astype(self.dtype, copy=False)
        taps = []
        out = X
        for i, layer in enumerate(self.layers):
            out = layer.forward(out, mode)
            if i in self.tap_indices:
                taps.append(out)
        return out[:, 0], taps

    def forward_with_taps(self, X, train=False):
        """One forward pass returning (logits (N,), taps list of (N,C,H,W))."""
        # frozen norm trains in eval mode; train_step drops its scale/shift grads
        return self._forward(X, "train" if train and not self.norm_frozen else "eval")

    def infer_with_taps(self, X):
        """`forward_with_taps(X)`'s logits and taps, keeping no caches for `backward`."""
        return self._forward(X, "infer")

    def decision_function(self, X):
        """Eval-mode logits, from a forward that keeps no caches for `backward`."""
        return self._forward(X, "infer")[0]

    def predict(self, X):
        """Label 1 iff sigmoid(logit) > 0.5 (strict; a zero logit maps to 0)."""
        return (self.decision_function(X) > 0).astype(np.int64)

    def backward(self, dlogits):
        """Backpropagate d(loss)/d(logits) through the last `forward_with_taps`,
        in its mode; sets the layer grads. The first conv computes no gradient
        with respect to the images, so nothing is returned."""
        grad = np.asarray(dlogits, dtype=self.dtype)[:, None]
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    # -- training ----------------------------------------------------------

    def train_step(self, X, y, penalty_grads=None, penalty_loss=0.0):
        """One forward/backward/Adam update on a batch. Returns (loss, acc).

        penalty_grads, when given, is a dict of extra per-parameter gradients
        (e.g. an EWC penalty) added before the optimizer step.
        """
        X = check_images(X, self.image_size)
        y = check_labels(y, X.shape[0])
        logits, _ = self.forward_with_taps(X, train=True)
        losses, dlogits = nn.bce_loss(logits, y)
        self.backward(dlogits / len(y))
        grads = self.named_grads()
        if penalty_grads:
            for name, g in penalty_grads.items():
                grads[name] = grads[name] + g
        if self.norm_frozen:
            grads = {n: g for n, g in grads.items()
                     if not (".norm" in n and (n.endswith("scale") or n.endswith("shift")))}
        self.optimizer.step(grads)
        acc = float(np.mean((logits > 0).astype(np.int64) == y))
        return float(losses.mean() + penalty_loss), acc

    def fit(self, X, y, epochs=1, batch_size=8, rng=None):
        """Multi-epoch shuffled mini-batch training. Returns per-epoch mean loss.

        Raises ConfigError if an epoch is asked for but X holds fewer images
        than one batch, and DivergenceError at the first non-finite loss.
        Unless norms are frozen, the running statistics are then refit to the
        final weights (see fit_norm_statistics), so eval mode matches what was
        learned.
        """
        X = check_images(X, self.image_size)
        y = check_labels(y, X.shape[0])
        if epochs >= 1 and len(y) < batch_size:
            raise ConfigError(f"{len(y)} training images do not fill one training batch of "
                              f"{batch_size}; lower the training batch size (--train-batch)")
        rng = rng or np.random.default_rng(self.random_state)
        history = []
        # a diverging loss overflows on its way to NaN; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, epochs + 1):
                order = rng.permutation(len(y))
                losses = []
                for start in range(0, len(y) - batch_size + 1, batch_size):
                    idx = order[start : start + batch_size]
                    loss, _ = self.train_step(X[idx], y[idx])
                    if not np.isfinite(loss):
                        raise DivergenceError(
                            f"training diverged: loss {loss} at epoch {epoch}, batch "
                            f"{start // batch_size + 1} (learning rate {self.learning_rate:g})")
                    losses.append(loss)
                history.append(float(np.mean(losses)))
        if not self.norm_frozen:
            self.fit_norm_statistics(X)
        return history

    def fit_norm_statistics(self, X):
        """Set every norm's running mean/var to the population mean/variance
        of its eval-mode input over X under the current weights (PreciseBN,
        Wu & Johnson 2021, arXiv:2105.07576). Norms are refit in order, so
        each one sees inputs normalised by the statistics already refit before
        it. X is read in blocks of NORM_STATS_BLOCK images; once a norm's
        input is no larger than an image, it is kept for every block and the
        later norms start from it instead of from X."""
        X = check_images(X, self.image_size).astype(self.dtype, copy=False)
        if len(X) == 0:
            raise ConfigError("fit_norm_statistics needs a non-empty dataset")
        blocks = [X[b : b + NORM_STATS_BLOCK] for b in range(0, len(X), NORM_STATS_BLOCK)]
        start = 0  # blocks hold the input of layer `start`
        for i, norm in enumerate(self.layers):
            if not isinstance(norm, nn.BatchNorm2d):
                continue
            total = total_sq = 0.0
            count = 0
            for k, out in enumerate(blocks):
                for layer in self.layers[start:i]:
                    out = layer.forward(out, "infer")
                total = total + out.sum(axis=(0, 2, 3), dtype=np.float64)
                total_sq = total_sq + np.square(out).sum(axis=(0, 2, 3), dtype=np.float64)
                count += out.size // out.shape[1]
                small = out[0].size <= X[0].size
                if small:
                    blocks[k] = out
            if small:
                start = i
            mean = total / count
            norm.running_mean[...] = mean
            norm.running_var[...] = np.maximum(total_sq / count - mean ** 2, 0.0)

    # -- EWC support -------------------------------------------------------

    def fisher_diagonal(self, X, y):
        """Empirical Fisher diagonal: mean squared per-sample gradient of the
        ground-truth-label log-likelihood. Running stats are excluded (they
        are not trainable parameters).

        Eval-mode norm is affine, so the examples of a batch do not interact:
        one eval pass per chunk of FISHER_CHUNK examples gives each example's
        exact gradient, and the layers sum their squares in float64."""
        X = check_images(X, self.image_size)
        y = check_labels(y, X.shape[0])
        if len(y) == 0:
            raise ConfigError("fisher_diagonal needs a non-empty dataset")
        sums = [{name: np.zeros(p.shape) for name, p in layer.params.items()}
                for layer in self.layers]
        for start in range(0, len(y), FISHER_CHUNK):
            rows = slice(start, start + FISHER_CHUNK)
            logits, _ = self.forward_with_taps(X[rows], train=False)
            _, dlogits = nn.bce_loss(logits, y[rows])
            grad = dlogits.astype(self.dtype)[:, None]
            for layer, sq in zip(reversed(self.layers), reversed(sums)):
                grad = layer.backward(grad, sq)
        self._fisher = _read_only({f"{lname}.{name}": (f / len(y)).astype(self.dtype)
                                   for lname, layer_sums in zip(self.layer_names, sums)
                                   for name, f in layer_sums.items()})
        return self._fisher

    @property
    def fisher(self):
        return self._fisher

    @property
    def anchor(self):
        return self._anchor

    def snapshot_anchor(self):
        """Store an immutable copy of the current parameters. One-shot."""
        if self._anchor is not None:
            raise StateError("anchor already snapshotted")
        self._anchor = _read_only({name: p.copy() for name, p in self.named_params().items()})
        return self._anchor

    # -- checkpoint IO -----------------------------------------------------

    def _checkpoint_arrays(self):
        arrays = dict(self.named_params())
        arrays.update(self.running_stats())
        for prefix, table in (("fisher.", self._fisher), ("anchor.", self._anchor)):
            arrays.update({prefix + n: a for n, a in (table or {}).items()})
        return arrays

    def save(self, path, seed_provenance=None):
        """Write a self-describing binary checkpoint (bit-exact round trip)."""
        arrays = self._checkpoint_arrays()
        names = sorted(arrays)
        header = {
            "format": "dynmem-checkpoint",
            "version": CHECKPOINT_VERSION,
            "hyper": self.get_params(),
            "norm_frozen": self.norm_frozen,
            "has_fisher": self._fisher is not None,
            "has_anchor": self._anchor is not None,
            "seed_provenance": seed_provenance,
            "arrays": [
                {"name": n, "shape": list(arrays[n].shape), "dtype": arrays[n].dtype.name}
                for n in names
            ],
        }
        write_container(path, CHECKPOINT_MAGIC, header, [arrays[n] for n in names])

    @classmethod
    def load(cls, path):
        """The model a checkpoint holds. Its arrays must be the model's
        parameters and running statistics and, where the header says so, a
        Fisher diagonal and an anchor of those parameters: no array more or
        less, each of the model's shape and dtype, every value finite.
        Anything else raises ConfigError naming the file, and the array
        where one is at fault."""
        header, arrays = read_container(
            path, CHECKPOINT_MAGIC, "model checkpoint",
            lambda h: [(a["name"], a["shape"], a["dtype"]) for a in h["arrays"]])
        if header.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"{path} has checkpoint format version {header.get('version')}, "
                f"expected {CHECKPOINT_VERSION}; rerun train-base")
        try:
            model = cls(**header["hyper"])
            model.norm_frozen = header["norm_frozen"]
            tables = [t for t in ("fisher", "anchor") if header[f"has_{t}"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path} does not hold the model its header describes: "
                              f"{exc!r}") from None
        params = model.named_params()
        expected = {**params, **model.running_stats(),
                    **{f"{t}.{n}": p for t in tables for n, p in params.items()}}
        for name in sorted(expected.keys() | arrays.keys()):
            want, got = expected.get(name), arrays.get(name)
            if want is None:
                raise ConfigError(f"{path} holds an array {name}, which the model its header "
                                  f"describes does not have")
            if got is None:
                raise ConfigError(f"{path} has no array {name}")
            if (got.shape, got.dtype) != (want.shape, want.dtype):
                raise ConfigError(f"{path} stores {name} as {got.dtype} of shape {got.shape}, "
                                  f"but the model's is {want.dtype} of shape {want.shape}")
            if not np.isfinite(got).all():
                raise ConfigError(f"{path} holds a non-finite value in {name}")
        model.set_eval_state(arrays)
        for t in tables:
            setattr(model, f"_{t}", _read_only({n: arrays[f"{t}.{n}"] for n in params}))
        return model


def _read_only(arrays):
    """`arrays`, a name -> array map, with each array locked against writes."""
    for a in arrays.values():
        a.setflags(write=False)
    return arrays
