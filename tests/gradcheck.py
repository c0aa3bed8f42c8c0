"""Gradient oracles for the tests: central differences in double precision."""
import numpy as np

from dynmem import nn
from dynmem.model import ConvNetClassifier
from dynmem.validation import check_images, check_labels


def finite_diff_check(loss_fn, params, analytic_grads, n_coords=50, h=1e-5, rng=None):
    """Central-difference gradient check over sampled parameter coordinates.

    loss_fn() must evaluate the scalar loss from the current (mutated in
    place) params. Returns the max over sampled coordinates of
    |a - n| / max(|a|, |n|, 1e-8). Use double-precision parameters.
    """
    rng = rng or np.random.default_rng(0)
    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    coords = rng.choice(total, size=min(n_coords, total), replace=False)
    worst = 0.0
    for flat in coords:
        i = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[i]
        idx = np.unravel_index(flat - offsets[i], params[name].shape)
        orig = params[name][idx]
        params[name][idx] = orig + h
        lo_plus = loss_fn()
        params[name][idx] = orig - h
        lo_minus = loss_fn()
        params[name][idx] = orig
        numeric = (lo_plus - lo_minus) / (2 * h)
        analytic = analytic_grads[name][idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def gradient_check(model, X, y, n_coords=50, h=1e-5, rng=None):
    """Check the model's analytic gradients against central differences.

    Builds a float64 copy of the model so the oracle runs in double
    precision; running statistics are restored around every loss evaluation.
    Returns the max relative error over sampled coordinates.
    """
    m = ConvNetClassifier(**{**model.get_params(), "dtype": "float64"})
    for name, p in m.named_params().items():
        p[...] = model.named_params()[name].astype(np.float64)
    X = check_images(X, m.image_size).astype(np.float64)
    y = check_labels(y, X.shape[0])
    stats = {n: s.copy() for n, s in m.running_stats().items()}

    def loss_fn():
        for n, s in m.running_stats().items():
            s[...] = stats[n]
        logits, _ = m.forward_with_taps(X, train=True)
        losses, _ = nn.bce_loss(logits, y)
        return float(losses.mean())

    loss_fn()
    logits, _ = m.forward_with_taps(X, train=True)
    _, dlogits = nn.bce_loss(logits, y)
    m.backward(dlogits / len(y))
    analytic = m.named_grads()
    for n, s in m.running_stats().items():
        s[...] = stats[n]
    return finite_diff_check(loss_fn, m.named_params(), analytic,
                                n_coords=n_coords, h=h, rng=rng)
