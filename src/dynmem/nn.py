"""Minimal differentiable-layer kernel: conv, batch norm, pooling, dense,
ReLU, stable binary cross entropy and Adam, all with exact analytic gradients.

Layers operate on (N, C, H, W) batches. Convolution is im2col lowering plus
one GEMM per block of images (Chellapilla et al. 2006). Single precision is
the training default; pass float64 arrays/parameters for gradient-check
fidelity.
"""
from __future__ import annotations

import numpy as np

from .validation import ShapeError


def conv_output_size(size, kernel, stride, padding):
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"conv output size would be {out} for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


# images per im2col block: the column matrix (C_in*k*k float64 values per
# output pixel) never holds more images than this. Training batches of 8 are
# one block; 16 raised the peak resident set of base training by 2.5 MB.
CONV_BLOCK = 8

# fixed at their published defaults (Kingma & Ba 2015; Ioffe & Szegedy 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
BN_MOMENTUM, BN_EPSILON = 0.1, 1e-5


def _pad(x, padding):
    """Zero-pad the two spatial axes (a plain copy: np.pad costs more at these sizes)."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _im2col(xp, k, stride, oh, ow):
    """Padded (n, C, Hp, Wp) input -> float64 (C*k*k, n*oh*ow) column matrix
    whose rows follow the kernel's (C, k, k) layout and columns the (n, oh, ow)
    outputs."""
    n, c = xp.shape[:2]
    cols = np.empty((c, k, k, n, oh, ow))
    for dy in range(k):
        for dx in range(k):
            cols[:, dy, dx] = xp[:, :, dy : dy + stride * oh : stride,
                                 dx : dx + stride * ow : stride].transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * oh * ow)


def _conv_forward(x, w, stride, padding):
    """Cross-correlation as one (C_out, C_in*k*k) @ (C_in*k*k, n*oh*ow) GEMM
    per block of CONV_BLOCK images. The GEMM runs in float64 and each output
    is rounded once to x's dtype: a float32 GEMM would sum C_in*k*k products
    in float32, with about twice the old per-offset kernel's rounding error,
    and that error measurably changed float32 training. Returns (out, cols):
    cols is the column matrix when the batch is one block, else None."""
    n, c_in, h, wid = x.shape
    c_out, _, k, _ = w.shape
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(wid, k, stride, padding)
    xp = _pad(x, padding)
    w2 = w.reshape(c_out, -1).astype(np.float64)
    cols = None
    out = np.empty((n, c_out, oh, ow), dtype=x.dtype)
    for b in range(0, n, CONV_BLOCK):
        cols = _im2col(xp[b : b + CONV_BLOCK], k, stride, oh, ow)
        out[b : b + CONV_BLOCK] = (w2 @ cols).reshape(c_out, -1, oh, ow).transpose(1, 0, 2, 3)
    return out, (cols if n <= CONV_BLOCK else None)


def _conv_backward(x, cols, w, grad_out, stride, padding, per_example=False, input_grad=True):
    """(dx, dw) for _conv_forward's (x, cols); dx is None unless input_grad.
    dw is one float64 GEMM on the column matrix per block, summed over the
    batch, or (n, C_out, C_in, k, k) with one gradient per example when
    per_example; it is float64 either way."""
    n, c_in = x.shape[:2]
    c_out, _, k, _ = w.shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    xp = _pad(x, padding) if cols is None else None
    # every example's rows are assigned; the batch sum starts from +0.0, as a sum does
    dw = np.empty((n, c_out, c_in * k * k)) if per_example else np.zeros((c_out, c_in * k * k))
    for b in range(0, n, CONV_BLOCK):
        block = grad_out[b : b + CONV_BLOCK]
        m = len(block)
        c = cols if cols is not None else _im2col(xp[b : b + CONV_BLOCK], k, stride, oh, ow)
        if per_example:
            g = block.astype(np.float64)
            dw[b : b + m] = g.reshape(m, c_out, -1) @ c.reshape(-1, m, oh * ow).transpose(1, 2, 0)
        else:  # cast to float64 and laid out (C_out, m, oh, ow) in one copy
            g = np.empty((c_out, m, oh, ow))
            np.copyto(g, block.transpose(1, 0, 2, 3))
            dw += g.reshape(c_out, -1) @ c.T
    if not input_grad:
        return None, dw.reshape(dw.shape[:-1] + (c_in, k, k))
    # per-offset input gradient: measured faster than col2im at batch 8
    dxp = np.zeros((n, c_in, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=x.dtype)
    g2 = grad_out.reshape(n, c_out, oh * ow)
    for dy in range(k):
        for dx in range(k):
            dxp[:, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride] += (
                w[:, :, dy, dx].T @ g2
            ).reshape(n, c_in, oh, ow)
    if padding:
        dxp = dxp[:, :, padding:-padding, padding:-padding]
    return dxp, dw.reshape(dw.shape[:-1] + (c_in, k, k))


class Layer:
    """Base layer: named parameters plus matching gradient slots."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, mode):
        """mode: "train", "eval", or "infer" (eval; conv, norm and ReLU keep
        nothing for `backward`, pool and dense still keep their small caches)."""
        raise NotImplementedError

    def backward(self, grad_out, sq_grads=None):
        """Gradient with respect to the input, in the mode of the last forward
        that kept a cache; conv, norm and ReLU free that cache, so each backward
        follows its own forward. Parameter gradients, summed over the batch, replace
        `grads`; when `sq_grads` (a dict of float64 arrays, one per parameter)
        is given, each example's squared parameter gradient is added to it instead."""
        raise NotImplementedError


class Conv2d(Layer):
    """Bias-free 2-D convolution layer, meant to feed a BatchNorm2d: the batch
    mean would cancel a bias (its gradient is identically zero in train mode)
    and the norm's shift plays its role. A conv built with input_grad=False
    (a network's first layer, whose input is the data) returns None from
    `backward` and skips the input gradient's k*k products."""

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, padding=1,
                 rng=None, dtype=np.float32, input_grad=True):
        super().__init__()
        if kernel_size % 2 != 1:
            raise ShapeError(f"kernel must have odd size, got {kernel_size}")
        self.stride = stride
        self.padding = padding
        self.input_grad = input_grad
        rng = rng or np.random.default_rng()
        # He initialization for ReLU networks
        scale = np.sqrt(2.0 / (in_channels * kernel_size * kernel_size))
        self.params["weight"] = (
            rng.standard_normal((out_channels, in_channels, kernel_size, kernel_size)) * scale
        ).astype(dtype)

    def forward(self, x, mode):
        if x.shape[1] != self.params["weight"].shape[1]:
            raise ShapeError(
                f"input channels {x.shape} do not match kernel channels "
                f"{self.params['weight'].shape}"
            )
        out, cols = _conv_forward(x, self.params["weight"], self.stride, self.padding)
        self._cache = None if mode == "infer" else (x, cols)
        return out

    def backward(self, grad_out, sq_grads=None):
        x, cols = self._cache
        self._cache = None  # the float64 columns are the largest cache: free them once used
        dx, dw = _conv_backward(x, cols, self.params["weight"], grad_out, self.stride,
                                self.padding, per_example=sq_grads is not None,
                                input_grad=self.input_grad)
        if sq_grads is None:
            self.grads["weight"] = dw.astype(self.params["weight"].dtype)
        else:
            sq_grads["weight"] += np.square(dw, out=dw).sum(axis=0)
        return dx


class BatchNorm2d(Layer):
    """Per-channel batch normalization with train / eval modes.

    train: normalize by batch statistics, update running stats with momentum.
    eval, infer: normalize by running statistics.
    """

    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.params["scale"] = np.ones(channels, dtype=dtype)
        self.params["shift"] = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x, mode):
        c = (slice(None), None, None)  # a channel vector as (C, 1, 1)
        if mode == "train":
            mean = x.mean(axis=(0, 2, 3))
            xhat = np.subtract(x, mean[c])
            # the variance as np.var takes it from these same deviations:
            # square, sum, then divide by the count as an intp
            var = np.square(xhat).sum(axis=(0, 2, 3))
            np.true_divide(var, np.intp(x.size // len(var)), out=var, casting="unsafe")
            self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
            self.running_var += BN_MOMENTUM * (var - self.running_var)
        else:
            xhat = np.subtract(x, self.running_mean[c])
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std[c]
        # "infer" keeps no xhat, so it scales and shifts in the same buffer
        self._cache = None if mode == "infer" else (xhat, inv_std, mode == "train")
        out = np.multiply(xhat, self.params["scale"][c], out=xhat if mode == "infer" else None)
        out += self.params["shift"][c]
        return out

    def backward(self, grad_out, sq_grads=None):
        xhat, inv_std, train = self._cache
        self._cache = None  # a backward follows its own forward: free what it used
        c = (slice(None), None, None)
        if sq_grads is None:
            self.grads["scale"] = (grad_out * xhat).sum(axis=(0, 2, 3))
            self.grads["shift"] = grad_out.sum(axis=(0, 2, 3))
        else:
            sq_grads["scale"] += np.square((grad_out * xhat).sum(axis=(2, 3)),
                                           dtype=np.float64).sum(axis=0)
            sq_grads["shift"] += np.square(grad_out.sum(axis=(2, 3)), dtype=np.float64).sum(axis=0)
        g = grad_out * self.params["scale"][c]
        if train:  # dx = inv_std * (g - sum_g / m - xhat * sum_gx / m), formed in g
            m = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
            sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
            gx = g * xhat
            sum_gx = gx.sum(axis=(0, 2, 3), keepdims=True)
            g -= sum_g / m
            np.multiply(xhat, sum_gx, out=gx)
            gx /= m
            g -= gx
        g *= inv_std[c]
        return g


class ReLU(Layer):
    def forward(self, x, mode):
        positive = x > 0
        self._cache = None if mode == "infer" else positive
        return x * positive

    def backward(self, grad_out, sq_grads=None):
        positive, self._cache = self._cache, None
        return grad_out * positive


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C) mean over the spatial extent."""

    def forward(self, x, mode):
        self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out, sq_grads=None):
        n, c, h, w = self._cache
        return np.broadcast_to(grad_out[:, :, None, None], (n, c, h, w)) / (h * w)


class Dense(Layer):
    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / in_features)
        self.params["weight"] = (rng.standard_normal((in_features, out_features)) * scale).astype(dtype)
        self.params["bias"] = np.zeros(out_features, dtype=dtype)

    def forward(self, x, mode):
        self._cache = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, grad_out, sq_grads=None):
        x = self._cache
        if sq_grads is None:
            self.grads["weight"] = x.T @ grad_out
            self.grads["bias"] = grad_out.sum(axis=0)
        else:  # example n's weight gradient is outer(x_n, g_n)
            g2 = np.square(grad_out, dtype=np.float64)
            sq_grads["weight"] += np.square(x, dtype=np.float64).T @ g2
            sq_grads["bias"] += g2.sum(axis=0)
        return grad_out @ self.params["weight"].T


def bce_loss(logit, label):
    """Numerically stable binary cross entropy on logits.

    Returns (loss, dloss_dlogit), elementwise for array inputs. Stable for
    |logit| up to at least 1e4.
    """
    z = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    with np.errstate(over="ignore"):  # exp(-z) -> inf gives the limit 0
        grad = 1.0 / (1.0 + np.exp(-z)) - y
    return loss, grad


class Adam:
    """Adam with bias correction over a dict of named parameter arrays,
    updated in place. Moments and step counts are kept per name."""

    def __init__(self, named_params, learning_rate=1e-4):
        self._params = named_params
        self.learning_rate = learning_rate
        self.first_moment = {name: np.zeros_like(p) for name, p in named_params.items()}
        self.second_moment = {name: np.zeros_like(p) for name, p in named_params.items()}
        self.step_count = dict.fromkeys(named_params, 0)

    def step(self, named_grads):
        """Apply one update for every name present in named_grads."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, g in named_grads.items():
            p = self._params[name]
            if p.shape != np.shape(g):
                raise ShapeError(f"Adam params/grads for {name}: shapes {p.shape} and "
                                 f"{np.shape(g)} differ")
            self.step_count[name] += 1
            t = self.step_count[name]
            # in place, with the roundings of m = b1 m + (1 - b1) g,
            # v = b2 v + ((1 - b2) g) g and p -= (lr m_hat) / (sqrt(v_hat) + eps)
            m, v = self.first_moment[name], self.second_moment[name]
            m *= b1
            m += (1 - b1) * g
            gg = (1 - b2) * g
            gg *= g
            v *= b2
            v += gg
            denom = np.sqrt(np.divide(v, 1 - b2 ** t, out=gg), out=gg)
            denom += ADAM_EPSILON
            step = m / (1 - b1 ** t)
            step *= self.learning_rate
            step /= denom
            p -= step
