"""Tests for the differentiable-layer kernel: convolution, batch norm,
pooling, dense, binary cross entropy, Adam and the finite-difference checker.
"""
import warnings

import numpy as np
import pytest

from dynmem import nn
from dynmem.validation import ShapeError
from gradcheck import finite_diff_check


def conv_reference(x, w, stride, padding):
    """Quadruple-loop cross-correlation oracle (slow, obviously correct)."""
    n, c_in, h, wid = x.shape
    c_out, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wid + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[ni, co, i, j] = np.sum(patch * w[co])
    return out


def conv_backward_reference(x, w, grad_out, stride, padding):
    """(dx, dw) by scattering each output position's gradient back over its
    receptive field (slow, obviously the adjoint of conv_reference)."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(grad_out.shape[2]):
        for j in range(grad_out.shape[3]):
            window = (slice(None), slice(None),
                      slice(i * stride, i * stride + k), slice(j * stride, j * stride + k))
            g = grad_out[:, :, i, j]
            dxp[window] += np.einsum("no,oikl->nikl", g, w)
            dw += np.einsum("no,nikl->oikl", g, xp[window])
    h, wid = x.shape[2], x.shape[3]
    return dxp[:, :, padding : padding + h, padding : padding + wid], dw


def conv(x, w, stride=1, padding=0):
    """Conv2d.forward with the given float64 kernels."""
    layer = nn.Conv2d(w.shape[1], w.shape[0], w.shape[2], stride=stride, padding=padding,
                      dtype=np.float64)
    layer.params["weight"][...] = w
    return layer.forward(x, "train")


# -- convolution -----------------------------------------------------------

def test_conv_direct_summation_oracle():
    x = np.array([[[[1, 2, 3], [4, 5, 6], [7, 8, 9]]]], dtype=np.float64)
    w = np.ones((1, 1, 3, 3))
    out = conv(x, w, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 45


def test_conv_zero_input_gives_zero_output():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((2, 1, 3, 3))
    out = conv(np.zeros((1, 1, 3, 3)), w, padding=1)
    assert np.all(out == 0)


def test_conv_identity_kernel_preserves_input():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv(x, w, stride=1, padding=1)
    np.testing.assert_allclose(out, x, rtol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv_matches_bruteforce_reference(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    x = rng.standard_normal((2, 3, 9, 9))
    w = rng.standard_normal((4, 3, 3, 3))
    out = conv(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(out, conv_reference(x, w, stride, padding), rtol=1e-10)


# (in channels, out channels, input size, stride) of the default model's convs
MODEL_CONV_SHAPES = [(1, 8, 32, 1), (8, 8, 32, 2), (8, 16, 16, 1), (16, 16, 16, 2),
                     (16, 32, 8, 1), (32, 32, 8, 2), (32, 64, 4, 1), (64, 64, 4, 2)]


@pytest.mark.parametrize("n", [1, 8, nn.CONV_BLOCK + 3])
@pytest.mark.parametrize("c_in,c_out,size,stride", MODEL_CONV_SHAPES)
def test_conv_forward_and_backward_match_bruteforce_on_model_shapes(c_in, c_out, size,
                                                                     stride, n):
    # batches of one block reuse the forward's column matrix in backward; a
    # batch that is not a multiple of the block rebuilds it block by block
    rng = np.random.default_rng(c_in * 100 + c_out + stride + n)
    x = rng.standard_normal((n, c_in, size, size))
    w = rng.standard_normal((c_out, c_in, 3, 3))
    layer = nn.Conv2d(c_in, c_out, 3, stride=stride, padding=1, dtype=np.float64)
    layer.params["weight"][...] = w
    out = layer.forward(x, "train")
    np.testing.assert_allclose(out, conv_reference(x, w, stride, 1), rtol=1e-12, atol=1e-12)
    grad_out = rng.standard_normal(out.shape)
    dx = layer.backward(grad_out)
    dx_ref, dw_ref = conv_backward_reference(x, w, grad_out, stride, 1)
    np.testing.assert_allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(layer.grads["weight"], dw_ref, rtol=1e-12, atol=1e-12)


def test_float32_conv_output_and_weight_gradient_are_rounded_once():
    # the GEMMs accumulate in float64: each float32 result is the exact
    # value rounded once, within half a float32 ulp
    rng = np.random.default_rng(3)
    for c_in, c_out, size, stride in MODEL_CONV_SHAPES:
        x = rng.standard_normal((8, c_in, size, size)).astype(np.float32)
        layer = nn.Conv2d(c_in, c_out, 3, stride=stride, padding=1, rng=rng)
        out = layer.forward(x, "train")
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        layer.backward(grad_out)
        w = layer.params["weight"].astype(np.float64)
        exact_out = conv_reference(x.astype(np.float64), w, stride, 1)
        _, exact_dw = conv_backward_reference(x.astype(np.float64), w,
                                              grad_out.astype(np.float64), stride, 1)
        for got, exact in ((out, exact_out), (layer.grads["weight"], exact_dw)):
            half_ulp = 0.5 * np.spacing(np.abs(exact).astype(np.float32)).astype(np.float64)
            assert np.all(np.abs(got - exact) <= half_ulp * (1 + 1e-6)), (c_in, c_out, stride)


def test_conv_is_linear_in_the_input():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 6, 6))
    y = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    lhs = conv(2.0 * x + 0.5 * y, w, padding=1)
    rhs = 2.0 * conv(x, w, padding=1) + 0.5 * conv(y, w, padding=1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_conv_channel_mismatch_raises():
    with pytest.raises(ShapeError):
        conv(np.zeros((1, 2, 5, 5)), np.zeros((3, 4, 3, 3)))


def test_conv_even_kernel_raises():
    with pytest.raises(ShapeError):
        nn.Conv2d(1, 1, 4)


def test_conv_degenerate_output_size_raises():
    with pytest.raises(ShapeError):
        nn.conv_output_size(2, 5, 1, 0)


def test_conv_layer_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    layer = nn.Conv2d(2, 3, stride=2, padding=1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2, 6, 6))
    target = rng.standard_normal((2, 3, 3, 3))

    def loss_fn():
        return float(np.sum((layer.forward(x, "train") - target) ** 2))

    grad_out = 2.0 * (layer.forward(x, "train") - target)
    layer.backward(grad_out)
    err = finite_diff_check(loss_fn, layer.params, layer.grads,
                               n_coords=30, rng=np.random.default_rng(5))
    assert err < 1e-6


def conv_backward_out_of_place(x, w, grad_out, stride, padding, per_example=False):
    """(dx, dw) by the earlier out-of-place kernel: per block, grad_out cast to
    float64 and then transposed and reshaped into a second copy, dw summed
    from zeros; kept as the bit oracle of nn._conv_backward."""
    n, c_in = x.shape[:2]
    c_out, _, k, _ = w.shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    xp = nn._pad(x, padding)
    dw = np.zeros((n, c_out, c_in * k * k) if per_example else (c_out, c_in * k * k))
    for b in range(0, n, nn.CONV_BLOCK):
        g = grad_out[b : b + nn.CONV_BLOCK].astype(np.float64)
        m = len(g)
        c = nn._im2col(xp[b : b + nn.CONV_BLOCK], k, stride, oh, ow)
        if per_example:
            dw[b : b + m] = g.reshape(m, c_out, -1) @ c.reshape(-1, m, oh * ow).transpose(1, 2, 0)
        else:
            dw += g.transpose(1, 0, 2, 3).reshape(c_out, -1) @ c.T
    dxp = np.zeros((n, c_in, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=x.dtype)
    g2 = grad_out.reshape(n, c_out, oh * ow)
    for dy in range(k):
        for dx in range(k):
            dxp[:, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride] += (
                w[:, :, dy, dx].T @ g2).reshape(n, c_in, oh, ow)
    dxp = dxp[:, :, padding:-padding, padding:-padding] if padding else dxp
    return dxp, dw.reshape(dw.shape[:-1] + (c_in, k, k))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [3, nn.CONV_BLOCK, nn.CONV_BLOCK + 3])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("c_in,c_out,size,stride", MODEL_CONV_SHAPES[:4])
def test_conv_backward_has_the_bits_of_the_out_of_place_kernel(c_in, c_out, size, stride,
                                                                input_grad, n, dtype):
    rng = np.random.default_rng(c_in + c_out + size + stride + n)
    layer = nn.Conv2d(c_in, c_out, stride=stride, rng=rng, dtype=dtype, input_grad=input_grad)
    x = rng.standard_normal((n, c_in, size, size)).astype(dtype)
    w = layer.params["weight"]
    grad_out = rng.standard_normal(layer.forward(x, "train").shape).astype(dtype)
    dx_old, dw_old = conv_backward_out_of_place(x, w, grad_out, stride, 1)
    dx = layer.backward(grad_out)
    assert layer.grads["weight"].tobytes() == dw_old.astype(dtype).tobytes()
    if input_grad:
        assert dx.dtype == dx_old.dtype and dx.tobytes() == dx_old.tobytes()
    else:
        assert dx is None
    # the Fisher path: each example's gradient, squared and summed in float64
    sq = {"weight": np.zeros(w.shape)}
    layer.forward(x, "eval")
    dx = layer.backward(grad_out, sq)
    _, per_example = conv_backward_out_of_place(x, w, grad_out, stride, 1, per_example=True)
    assert sq["weight"].tobytes() == np.square(per_example).sum(axis=0).tobytes()
    assert (dx is None) == (not input_grad)


def test_a_standalone_conv_returns_its_input_gradient():
    rng = np.random.default_rng(22)
    layer = nn.Conv2d(1, 2, rng=rng)
    x = rng.standard_normal((2, 1, 5, 5)).astype(np.float32)
    dx = layer.backward(np.ones_like(layer.forward(x, "train")))
    assert layer.input_grad and dx.shape == x.shape and dx.dtype == x.dtype


# -- batch norm ------------------------------------------------------------

def test_bn_constant_channel_maps_to_zero():
    layer = nn.BatchNorm2d(1, dtype=np.float64)
    out = layer.forward(np.full((4, 1, 3, 3), 7.0), "train")
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_bn_two_point_batch_hand_oracle():
    layer = nn.BatchNorm2d(1, dtype=np.float64)
    x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
    out = layer.forward(x, "train")
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.ravel(), [-expected, expected], rtol=1e-12)


def test_bn_running_stats_momentum_update():
    layer = nn.BatchNorm2d(2, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 2, 4, 4))
    layer.forward(x, "train")
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(layer.running_mean, 0.1 * mean, rtol=1e-12)
    np.testing.assert_allclose(layer.running_var, 1.0 + 0.1 * (var - 1.0), rtol=1e-12)


def test_bn_eval_mode_uses_running_stats_and_leaves_them_alone():
    layer = nn.BatchNorm2d(1, dtype=np.float64)
    layer.running_mean[:] = 2.0
    layer.running_var[:] = 4.0
    x = np.array([4.0]).reshape(1, 1, 1, 1)
    out = layer.forward(x, "eval")
    np.testing.assert_allclose(out.ravel(), [(4.0 - 2.0) / np.sqrt(4.0 + 1e-5)])
    assert layer.running_mean[0] == 2.0 and layer.running_var[0] == 4.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval", "infer"])
def test_bn_forward_has_the_bits_of_the_out_of_place_formula(dtype, mode):
    rng = np.random.default_rng(9)
    layer = nn.BatchNorm2d(3, dtype=dtype)
    layer.params["scale"][:] = rng.uniform(0.5, 1.5, 3)
    layer.params["shift"][:] = rng.normal(size=3)
    layer.running_mean[:] = rng.normal(size=3)
    layer.running_var[:] = rng.uniform(0.5, 2.0, 3)
    x = rng.normal(size=(5, 3, 4, 4)).astype(dtype)
    c = (slice(None), None, None)  # a channel vector as (C, 1, 1)
    if mode == "train":
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    else:
        mean, var = layer.running_mean.copy(), layer.running_var.copy()
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPSILON)
    expected = layer.params["scale"][c] * ((x - mean[c]) * inv_std[c]) + layer.params["shift"][c]
    out = layer.forward(x, mode)
    assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
    assert (layer._cache is None) == (mode == "infer")


def test_bn_zero_variance_never_divides_by_zero():
    layer = nn.BatchNorm2d(1, dtype=np.float64)
    out = layer.forward(np.zeros((2, 1, 2, 2)), "train")
    assert np.isfinite(out).all()


def test_bn_train_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    layer = nn.BatchNorm2d(3, dtype=np.float64)
    layer.params["scale"][:] = rng.uniform(0.5, 1.5, 3)
    layer.params["shift"][:] = rng.standard_normal(3)
    x = rng.standard_normal((4, 3, 5, 5))
    target = rng.standard_normal((4, 3, 5, 5))
    stats = (layer.running_mean.copy(), layer.running_var.copy())

    def loss_fn():
        layer.running_mean[:], layer.running_var[:] = stats
        return float(np.sum((layer.forward(x, "train") - target) ** 2))

    grad_out = 2.0 * (layer.forward(x, "train") - target)
    layer.running_mean[:], layer.running_var[:] = stats
    layer.backward(grad_out)
    err = finite_diff_check(loss_fn, layer.params, layer.grads,
                               n_coords=6, rng=np.random.default_rng(9))
    assert err < 1e-6


def bn_with_running_stats(rng, channels=3, dtype=np.float64):
    layer = nn.BatchNorm2d(channels, dtype=dtype)
    layer.params["scale"][:] = rng.uniform(0.5, 1.5, channels)
    layer.params["shift"][:] = rng.standard_normal(channels)
    layer.running_mean[:] = rng.standard_normal(channels)
    layer.running_var[:] = rng.uniform(0.5, 2.0, channels)
    return layer


def bn_out_of_place(layer, x, grad_out, mode):
    """(out, running mean, running var, dx, scale grad, shift grad) of a
    forward in `mode` then a backward, by the earlier out-of-place formulas
    (np.mean and np.var, four fresh buffers forward, seven backward) on a copy
    of the layer's state; kept as the bit oracle of BatchNorm2d."""
    c = (slice(None), None, None)
    scale, shift = layer.params["scale"], layer.params["shift"]
    running_mean, running_var = layer.running_mean.copy(), layer.running_var.copy()
    if mode == "train":
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        running_mean += nn.BN_MOMENTUM * (mean - running_mean)
        running_var += nn.BN_MOMENTUM * (var - running_var)
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPSILON)
    xhat = (x - mean[c]) * inv_std[c]
    out = scale[c] * xhat + shift[c]
    g = grad_out * scale[c]
    if mode == "train":
        m = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx = inv_std[c] * (g - sum_g / m - xhat * sum_gx / m)
    else:
        dx = g * inv_std[c]
    return (out, running_mean, running_var, dx,
            (grad_out * xhat).sum(axis=(0, 2, 3)), grad_out.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(5, 3, 4, 4), (8, 8, 32, 32), (8, 16, 16, 16), (3, 64, 3, 5)])
def test_bn_forward_and_backward_have_the_bits_of_the_out_of_place_formulas(shape, mode, dtype):
    rng = np.random.default_rng(sum(shape))
    layer = bn_with_running_stats(rng, shape[1], dtype)
    x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
    grad_out = rng.normal(size=shape).astype(dtype)
    expected = bn_out_of_place(layer, x, grad_out, mode)
    got = (layer.forward(x, mode), layer.running_mean, layer.running_var,
           layer.backward(grad_out), layer.grads["scale"], layer.grads["shift"])
    for name, a, b in zip(("out", "running mean", "running var", "dx", "scale grad",
                           "shift grad"), got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_bn_backward_after_an_eval_forward_is_the_running_stats_affine_map():
    # backward takes no mode: it follows the forward that kept the cache
    rng = np.random.default_rng(18)
    layer = bn_with_running_stats(rng)
    layer.forward(rng.standard_normal((4, 3, 5, 5)), "eval")
    g = rng.standard_normal((4, 3, 5, 5))
    inv_std = 1.0 / np.sqrt(layer.running_var + nn.BN_EPSILON)
    np.testing.assert_allclose(layer.backward(g),
                               g * (layer.params["scale"] * inv_std)[:, None, None],
                               rtol=1e-12)


def test_bn_backward_after_a_train_forward_matches_finite_differences_in_the_input():
    rng = np.random.default_rng(19)
    layer = bn_with_running_stats(rng)
    x = rng.standard_normal((4, 3, 5, 5))
    target = rng.standard_normal((4, 3, 5, 5))

    def loss_fn():  # train mode reads batch statistics only
        return float(np.sum((layer.forward(x, "train") - target) ** 2))

    dx = layer.backward(2.0 * (layer.forward(x, "train") - target))
    err = finite_diff_check(loss_fn, {"x": x}, {"x": dx}, n_coords=30,
                            rng=np.random.default_rng(20))
    assert err < 1e-6


@pytest.mark.parametrize("make, shape", [
    (lambda rng: nn.Conv2d(2, 3, stride=2, rng=rng), (4, 2, 6, 6)),
    (lambda rng: nn.BatchNorm2d(2), (4, 2, 6, 6)),
    (lambda rng: nn.Dense(5, 2, rng=rng), (4, 5)),
], ids=["conv", "norm", "dense"])
def test_a_second_backward_sets_the_same_parameter_gradients(make, shape):
    # gradients are set, not added: nothing needs zeroing between backwards
    rng = np.random.default_rng(21)
    layer = make(rng)
    x = rng.standard_normal(shape).astype(np.float32)
    grad_out = rng.standard_normal(layer.forward(x, "train").shape).astype(np.float32)
    layer.backward(grad_out)
    first = {name: g.tobytes() for name, g in layer.grads.items()}
    layer.forward(x, "train")  # a backward frees the cache it used
    layer.backward(grad_out)
    assert set(layer.grads) == set(layer.params)
    for name, g in layer.grads.items():
        assert g.dtype == layer.params[name].dtype and g.tobytes() == first[name], name


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("make", [
    lambda rng: nn.Conv2d(2, 3, rng=rng), lambda rng: nn.BatchNorm2d(2), lambda rng: nn.ReLU(),
], ids=["conv", "norm", "relu"])
def test_a_backward_frees_the_cache_it_used(make, mode):
    # norm and ReLU held theirs until the next forward: 0.77 MB after a batch-8 train step
    rng = np.random.default_rng(22)
    layer = make(rng)
    out = layer.forward(rng.standard_normal((4, 2, 6, 6)).astype(np.float32), mode)
    layer.backward(np.ones_like(out))
    assert layer._cache is None


# -- relu / pooling / dense ------------------------------------------------

def test_relu_forward_and_backward():
    layer = nn.ReLU()
    x = np.array([[-1.0, 2.0], [0.0, -3.0]])
    out = layer.forward(x, "train")
    np.testing.assert_allclose(out, [[0.0, 2.0], [0.0, 0.0]])
    grad = layer.backward(np.ones_like(x))
    np.testing.assert_allclose(grad, [[0.0, 1.0], [0.0, 0.0]])


def test_global_avg_pool_roundtrip():
    rng = np.random.default_rng(10)
    layer = nn.GlobalAvgPool()
    x = rng.standard_normal((2, 3, 4, 4))
    out = layer.forward(x, "eval")
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
    grad = layer.backward(np.ones((2, 3)))
    np.testing.assert_allclose(grad, np.full_like(x, 1.0 / 16.0))


def test_dense_matches_matmul():
    rng = np.random.default_rng(11)
    layer = nn.Dense(5, 2, rng=rng, dtype=np.float64)
    x = rng.standard_normal((3, 5))
    out = layer.forward(x, "train")
    np.testing.assert_allclose(out, x @ layer.params["weight"] + layer.params["bias"])
    g = rng.standard_normal((3, 2))
    dx = layer.backward(g)
    np.testing.assert_allclose(dx, g @ layer.params["weight"].T)
    np.testing.assert_allclose(layer.grads["weight"], x.T @ g)
    np.testing.assert_allclose(layer.grads["bias"], g.sum(axis=0))


# -- binary cross entropy --------------------------------------------------

def test_bce_symmetric_point():
    loss, grad = nn.bce_loss(0.0, 1)
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)
    np.testing.assert_allclose(grad, -0.5, rtol=1e-12)


def test_bce_saturated_correct_prediction():
    loss, grad = nn.bce_loss(50.0, 1)
    assert loss < 1e-20
    assert abs(grad) < 1e-20


def test_bce_direct_formula_oracle():
    loss, grad = nn.bce_loss(1.0, 0)
    np.testing.assert_allclose(loss, 1.313262, atol=1e-6)
    np.testing.assert_allclose(grad, 0.731059, atol=1e-6)


def test_bce_stable_at_extreme_logits():
    for z in (1e4, -1e4):
        for y in (0, 1):
            loss, grad = nn.bce_loss(z, y)
            assert np.isfinite(loss) and np.isfinite(grad)
            assert loss >= 0.0


def test_bce_nonnegative_on_random_inputs():
    rng = np.random.default_rng(12)
    z = rng.standard_normal(200) * 10
    y = rng.integers(0, 2, 200)
    loss, grad = nn.bce_loss(z, y)
    assert np.all(loss >= 0.0)
    # gradient is sigmoid(z) - y, always in (-1, 1)
    assert np.all(np.abs(grad) < 1.0)


def test_bce_gradient_equals_expit_after_float32_rounding():
    """The gradient is used only after rounding to float32 (model.backward,
    fisher_diagonal); there it must equal scipy's expit(z) - y."""
    expit = pytest.importorskip("scipy.special").expit
    rng = np.random.default_rng(13)
    z = np.concatenate([rng.standard_normal(100_000) * scale for scale in (1, 5, 20, 200)]
                       + [np.linspace(-800, 800, 20_001), [0.0, -0.0, 1e4, -1e4]])
    y = rng.integers(0, 2, len(z))
    _, grad = nn.bce_loss(z, y)
    np.testing.assert_array_equal(grad.astype(np.float32), (expit(z) - y).astype(np.float32))


def test_bce_at_extreme_logits_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (1e4, -1e4):
            for y in (0, 1):
                _, grad = nn.bce_loss(z, y)
                assert grad == (1.0 if z > 0 else 0.0) - y
        nn.bce_loss(np.array([1e4, -1e4]), np.array([1, 0]))


# -- Adam ------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0])
    nn.Adam({"p": p}, learning_rate=1e-3).step({"p": np.zeros(2)})
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_first_step_closed_form():
    p = np.zeros(1)
    opt = nn.Adam({"p": p}, learning_rate=1e-3)
    opt.step({"p": np.ones(1)})
    # bias-corrected m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    np.testing.assert_allclose(p, [-1e-3], atol=1e-8)
    assert opt.step_count["p"] == 1


def test_adam_constant_gradient_moves_monotonically():
    p = np.zeros(1)
    opt = nn.Adam({"p": p}, learning_rate=1e-3)
    prev = 0.0
    for _ in range(5):
        opt.step({"p": np.ones(1)})
        assert p[0] < prev
        prev = p[0]
    assert np.all(opt.second_moment["p"] >= 0)


def test_adam_shape_mismatch_raises():
    opt = nn.Adam({"p": np.zeros(3)})
    with pytest.raises(ShapeError):
        opt.step({"p": np.zeros(4)})


def test_adam_dict_optimizer_updates_in_place():
    rng = np.random.default_rng(13)
    params = {"w": rng.standard_normal(4)}
    before = params["w"].copy()
    opt = nn.Adam(params, learning_rate=1e-2)
    opt.step({"w": np.ones(4)})
    assert params["w"] is not before
    assert np.all(params["w"] < before)


def adam_out_of_place(params, moments, counts, grads, learning_rate):
    """The earlier Adam update, with a fresh array for every term; kept as
    the bit oracle of Adam.step. Updates the given dicts."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    for name, g in grads.items():
        counts[name] += 1
        t = counts[name]
        m = moments[name][0] = b1 * moments[name][0] + (1 - b1) * g
        v = moments[name][1] = b2 * moments[name][1] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        params[name] = params[name] - learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_steps_have_the_bits_of_the_out_of_place_update(dtype):
    rng = np.random.default_rng(23)
    shapes = {"conv.weight": (4, 2, 3, 3), "norm.scale": (4,), "norm.shift": (4,)}
    params = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
    expected = {n: p.copy() for n, p in params.items()}
    moments = {n: [np.zeros_like(p), np.zeros_like(p)] for n, p in params.items()}
    counts = dict.fromkeys(params, 0)
    opt = nn.Adam(params, learning_rate=3e-3)
    for step in range(6):
        # steps 2 and 4 leave out the norm's names, as a frozen norm does
        names = ["conv.weight"] if step in (2, 4) else list(params)
        grads = {n: (rng.standard_normal(shapes[n]) * 10.0 ** -step).astype(dtype) for n in names}
        opt.step(grads)
        adam_out_of_place(expected, moments, counts, grads, 3e-3)
        for n, p in params.items():
            assert p.dtype == dtype and p.tobytes() == expected[n].tobytes(), (step, n)
            assert opt.first_moment[n].tobytes() == moments[n][0].tobytes(), (step, n)
            assert opt.second_moment[n].tobytes() == moments[n][1].tobytes(), (step, n)
    assert opt.step_count == {"conv.weight": 6, "norm.scale": 4, "norm.shift": 4}


# -- finite-difference checker ---------------------------------------------

def test_finite_diff_exact_for_linear_layer():
    rng = np.random.default_rng(14)
    layer = nn.Dense(6, 1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((4, 6))
    y = rng.standard_normal((4, 1))

    def loss_fn():
        return float(np.sum((layer.forward(x, "train") - y) ** 2))

    layer.backward(2.0 * (layer.forward(x, "train") - y))
    err = finite_diff_check(loss_fn, layer.params, layer.grads,
                               n_coords=7, rng=np.random.default_rng(15))
    assert err < 1e-7


def test_finite_diff_flags_corrupted_gradient():
    rng = np.random.default_rng(16)
    layer = nn.Dense(3, 1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 3))

    def loss_fn():
        return float(np.sum(layer.forward(x, "train")))

    layer.forward(x, "train")
    layer.backward(np.ones((2, 1)))
    layer.grads["weight"][0, 0] += 0.1
    err = finite_diff_check(loss_fn, layer.params, layer.grads,
                               n_coords=4, rng=np.random.default_rng(17))
    assert err > 1e-4
