"""Tests for the convolutional classifier: architecture, training step,
Fisher/anchor support and checkpoint round trips.
"""
import numpy as np
import pytest

from dynmem import nn
from dynmem.gram import gram_matrix, signatures
from dynmem.model import FISHER_CHUNK, NORM_STATS_BLOCK, ConvNetClassifier
from dynmem.validation import ConfigError, DivergenceError, ShapeError, StateError
from gradcheck import gradient_check


@pytest.fixture
def small_model():
    """A shrunken classifier for fast structural tests."""
    return ConvNetClassifier(image_size=16, channels=(2, 3, 4, 5),
                             learning_rate=1e-3, random_state=0)


@pytest.fixture
def images16():
    rng = np.random.default_rng(0)
    return rng.random((6, 1, 16, 16)).astype(np.float32)


def test_default_architecture_parameter_count():
    model = ConvNetClassifier()
    # fixed and documented: 4 blocks of 8/16/32/64 channels plus the head;
    # the convs are bias-free, 2*(8+16+32+64) = 240 fewer than with biases
    assert sum(p.size for p in model.named_params().values()) == 73769


def test_every_parameter_gets_a_live_train_mode_gradient():
    # a parameter whose gradient is identically zero (e.g. a conv bias
    # cancelled by the following batch norm's mean) only ever moves by
    # roundoff; every tensor must see a gradient far above that
    model = ConvNetClassifier(dtype=np.float64, random_state=0)
    rng = np.random.default_rng(6)
    X = rng.random((8, 1, 32, 32))
    y = np.array([0, 1] * 4)
    logits, _ = model.forward_with_taps(X, train=True)
    _, dlogits = nn.bce_loss(logits, y)
    model.backward(dlogits / len(y))
    peak = {n: float(np.abs(g).max()) for n, g in model.named_grads().items()}
    weakest = min(peak, key=peak.get)
    assert peak[weakest] > 1e-6, (weakest, peak[weakest])


def test_tap_layers_one_per_scale(small_model, images16):
    _, taps = small_model.forward_with_taps(images16)
    shapes = [t.shape for t in taps]
    assert shapes == [(6, 2, 8, 8), (6, 3, 4, 4), (6, 4, 2, 2), (6, 5, 1, 1)]


def test_default_taps_match_channel_progression():
    model = ConvNetClassifier()
    rng = np.random.default_rng(1)
    _, taps = model.forward_with_taps(rng.random((2, 1, 32, 32)))
    assert [t.shape[1:] for t in taps] == [(8, 16, 16), (16, 8, 8), (32, 4, 4), (64, 2, 2)]


def test_eval_forward_is_deterministic_and_batch_invariant(small_model, images16):
    full = small_model.decision_function(images16)
    again = small_model.decision_function(images16)
    np.testing.assert_array_equal(full, again)
    parts = np.concatenate([small_model.decision_function(images16[:2]),
                            small_model.decision_function(images16[2:])])
    np.testing.assert_allclose(parts, full, atol=1e-6)


def test_predict_zero_logit_maps_to_class_zero(small_model, images16):
    head = small_model.layers[-1]
    head.params["weight"][:] = 0.0
    head.params["bias"][:] = 0.0
    logits = small_model.decision_function(images16)
    np.testing.assert_array_equal(logits, 0.0)
    np.testing.assert_array_equal(small_model.predict(images16), 0)


def test_wrong_image_size_raises(small_model):
    with pytest.raises(ShapeError):
        small_model.predict(np.zeros((2, 1, 8, 8)))


def test_train_step_validates_labels(small_model, images16):
    with pytest.raises(ValueError):
        small_model.train_step(images16, np.full(6, 2))
    with pytest.raises(ShapeError):
        small_model.train_step(images16, np.zeros(4))


def test_train_step_updates_params(small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    before = {n: p.copy() for n, p in small_model.named_params().items()}
    loss, acc = small_model.train_step(images16, y)
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0
    changed = [n for n, p in small_model.named_params().items()
               if not np.array_equal(p, before[n])]
    assert "head.weight" in changed


def test_fit_zero_epochs_leaves_model_unchanged(small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    before = {n: p.copy() for n, p in small_model.named_params().items()}
    history = small_model.fit(images16, y, epochs=0)
    assert history == []
    for n, p in small_model.named_params().items():
        np.testing.assert_array_equal(p, before[n])


def test_fit_loss_decreases_on_learnable_data(small_model):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 32)
    # label leaks directly into the mean intensity, so this is easy
    X = (rng.random((32, 1, 16, 16)) * 0.2 + y[:, None, None, None] * 0.6).astype(np.float32)
    history = small_model.fit(X, y, epochs=8, batch_size=8, rng=np.random.default_rng(3))
    assert history[-1] < history[0]


def test_fit_refits_norm_statistics_to_the_final_weights(small_model):
    rng = np.random.default_rng(4)
    count = NORM_STATS_BLOCK + 10  # two blocks
    X = rng.random((count, 1, 16, 16)).astype(np.float32)
    y = rng.integers(0, 2, count)
    small_model.fit(X, y, epochs=1, rng=np.random.default_rng(5))
    # each norm's input in eval mode over the whole fit data, in one batch
    out = X
    for layer in small_model.layers:
        if isinstance(layer, nn.BatchNorm2d):
            x64 = out.astype(np.float64)
            np.testing.assert_allclose(layer.running_mean, x64.mean(axis=(0, 2, 3)),
                                       rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(layer.running_var, x64.var(axis=(0, 2, 3)),
                                       rtol=1e-4, atol=1e-6)
        out = layer.forward(out, "eval")


def test_fit_raises_at_the_first_non_finite_loss(small_model, images16):
    small_model.learning_rate = 1e30
    small_model.reset_optimizer()
    with pytest.raises(DivergenceError, match="epoch 1"):
        small_model.fit(images16, np.array([0, 1, 0, 1, 0, 1]), epochs=3, batch_size=2)


@pytest.mark.parametrize("channels", [(), (0, 2, 2, 2), (2, -1, 2, 2), (2.5, 2, 2, 2), "8"])
def test_channels_must_be_a_non_empty_sequence_of_positive_integers(channels):
    with pytest.raises(ConfigError, match="channels must be one or more positive integers"):
        ConvNetClassifier(image_size=16, channels=channels)


def test_frozen_norm_blocks_stats_and_affine_updates(small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.train_step(images16, y)  # move running stats off the init values
    small_model.norm_frozen = True
    stats = {n: s.copy() for n, s in small_model.running_stats().items()}
    norm_params = {n: p.copy() for n, p in small_model.named_params().items()
                   if ".norm" in n}
    for _ in range(5):
        small_model.train_step(images16, y)
    for n, s in small_model.running_stats().items():
        np.testing.assert_array_equal(s, stats[n])
    for n, p in small_model.named_params().items():
        if ".norm" in n:
            np.testing.assert_array_equal(p, norm_params[n])


def test_frozen_norm_train_step_steps_with_the_eval_formula_gradient(small_model, images16):
    # a frozen norm's forward uses its running statistics, and its backward
    # the matching formula, with no mode passed to it
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.train_step(images16, y)  # move running stats off the init values
    small_model.norm_frozen = True
    reference, batch_formula = small_model.clone(), small_model.clone()
    for model, train_formula in ((reference, False), (batch_formula, True)):
        logits, _ = model.forward_with_taps(images16, train=False)
        for layer in model.layers:
            if isinstance(layer, nn.BatchNorm2d):
                assert layer._cache[2] is False
                layer._cache = (*layer._cache[:2], train_formula)
        _, dlogits = nn.bce_loss(logits, y)
        model.backward(dlogits / len(y))
        model.optimizer.step({n: g for n, g in model.named_grads().items() if ".norm" not in n})
    small_model.train_step(images16, y)
    params = small_model.named_params()
    assert all(p.tobytes() == params[n].tobytes() for n, p in reference.named_params().items())
    assert any(p.tobytes() != params[n].tobytes()
               for n, p in batch_formula.named_params().items())


@pytest.mark.parametrize("train", [True, False], ids=["train", "frozen-norm"])
def test_the_first_conv_skips_the_image_gradient_and_every_gradient_keeps_its_bits(
        small_model, images16, train):
    # the oracle is the same model with the first conv's input gradient computed
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.train_step(images16, y)  # move running stats off the init values
    with_dx = small_model.clone()
    with_dx.layers[0].input_grad = True
    convs = [layer for layer in small_model.layers if isinstance(layer, nn.Conv2d)]
    assert [conv.input_grad for conv in convs] == [False] + [True] * (len(convs) - 1)
    for model in (small_model, with_dx):
        logits, _ = model.forward_with_taps(images16, train=train)
        _, dlogits = nn.bce_loss(logits, y)
        assert model.backward(dlogits / len(y)) is None
    grads = with_dx.named_grads()
    for n, g in small_model.named_grads().items():
        assert g.dtype == grads[n].dtype and g.tobytes() == grads[n].tobytes(), n
    fisher = with_dx.fisher_diagonal(images16, y)
    for n, f in small_model.fisher_diagonal(images16, y).items():
        assert f.tobytes() == fisher[n].tobytes(), n


def test_clone_is_independent(small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    clone = small_model.clone()
    before = {n: p.copy() for n, p in small_model.named_params().items()}
    clone.train_step(images16, y)
    for n, p in small_model.named_params().items():
        np.testing.assert_array_equal(p, before[n])


# -- Fisher and anchor -----------------------------------------------------

def test_fisher_entries_nonnegative_and_exclude_running_stats(small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    fisher = small_model.fisher_diagonal(images16, y)
    assert set(fisher) == set(small_model.named_params())
    for f in fisher.values():
        assert np.all(f >= 0.0)


def test_fisher_single_example_equals_squared_gradient(small_model, images16):
    y = np.array([1])
    fisher = small_model.fisher_diagonal(images16[:1], y)
    logits, _ = small_model.forward_with_taps(images16[:1], train=False)
    _, dlogit = nn.bce_loss(logits, y)
    small_model.backward(dlogit)
    for n, g in small_model.named_grads().items():
        np.testing.assert_allclose(fisher[n], g.astype(np.float64) ** 2, rtol=1e-5)


def cached_layers(model):
    """Names of the conv, norm and ReLU layers holding a cache for `backward`."""
    return [name for name, layer in zip(model.layer_names, model.layers)
            if isinstance(layer, (nn.Conv2d, nn.BatchNorm2d, nn.ReLU))
            and layer._cache is not None]


@pytest.mark.parametrize("call", ["predict", "decision_function"])
def test_eval_only_forwards_leave_no_caches(small_model, images16, call):
    small_model.forward_with_taps(images16, train=False)  # caches kept for a backward
    assert len(cached_layers(small_model)) == 24
    getattr(small_model, call)(images16)
    assert cached_layers(small_model) == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 8, 32, 150])
def test_cache_free_logits_have_the_bits_of_the_eval_forward(dtype, n):
    model = ConvNetClassifier(dtype=dtype, random_state=4)
    X = np.random.default_rng(n).random((n, 1, 32, 32)).astype(dtype)
    model.fit_norm_statistics(X)
    expected, expected_taps = model.forward_with_taps(X, train=False)
    logits = model.decision_function(X)
    assert logits.dtype == expected.dtype and logits.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(model.predict(X), (expected > 0).astype(np.int64))
    logits, taps = model.infer_with_taps(X)
    assert cached_layers(model) == []
    assert logits.tobytes() == expected.tobytes() and len(taps) == len(expected_taps) == 4
    for tap, want in zip(taps, expected_taps):
        assert tap.dtype == want.dtype and tap.shape == want.shape
        assert tap.tobytes() == want.tobytes()
    for stack, tap in zip(signatures(model, X), expected_taps):
        assert stack.tobytes() == gram_matrix(tap).tobytes()
    assert cached_layers(model) == []


def test_fisher_after_a_predict_equals_fisher_before_it(small_model, images16):
    y = np.array([0, 1] * 3)
    before = small_model.fisher_diagonal(images16, y)
    small_model.predict(images16[::-1])
    after = small_model.fisher_diagonal(images16, y)
    assert set(after) == set(before)
    for name, f in before.items():
        assert after[name].tobytes() == f.tobytes(), name


def fisher_by_single_examples(model, X, y):
    """Fisher oracle: one eval-mode forward/backward per example."""
    fisher = {n: np.zeros(p.shape) for n, p in model.named_params().items()}
    for i in range(len(y)):
        logits, _ = model.forward_with_taps(X[i : i + 1], train=False)
        _, dlogit = nn.bce_loss(logits, y[i : i + 1])
        model.backward(dlogit)
        for n, g in model.named_grads().items():
            fisher[n] += g.astype(np.float64) ** 2
    return {n: f / len(y) for n, f in fisher.items()}


def test_batched_fisher_equals_single_example_loop():
    model = ConvNetClassifier(dtype=np.float64, random_state=3)
    rng = np.random.default_rng(7)
    count = 2 * FISHER_CHUNK + 5  # not a multiple of the chunk
    X = rng.random((count, 1, 32, 32))
    y = rng.integers(0, 2, count)
    model.fit(X, y, epochs=1, rng=np.random.default_rng(8))
    fisher = model.fisher_diagonal(X, y)
    expected = fisher_by_single_examples(model, X, y)
    assert set(fisher) == set(expected)
    for n, f in expected.items():
        np.testing.assert_allclose(fisher[n], f, rtol=1e-12, atol=1e-12 * f.max(), err_msg=n)


def test_fisher_empty_dataset_raises(small_model):
    with pytest.raises(ConfigError):
        small_model.fisher_diagonal(np.zeros((0, 1, 16, 16)), np.zeros(0))


def test_anchor_is_one_shot_and_write_protected(small_model):
    anchor = small_model.snapshot_anchor()
    with pytest.raises(StateError):
        small_model.snapshot_anchor()
    with pytest.raises(ValueError):
        anchor["head.weight"][0, 0] = 1.0


def test_clones_share_the_read_only_fisher_and_anchor(tmp_path, small_model, images16):
    """A clone, of a trained model or of a loaded checkpoint, holds the very
    Fisher and anchor maps of its source, locked; its parameters are its own."""
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.fisher_diagonal(images16, y)
    small_model.snapshot_anchor()
    small_model.save(tmp_path / "model.ckpt")
    for source in (small_model, ConvNetClassifier.load(tmp_path / "model.ckpt")):
        clone = source.clone()
        assert clone.fisher is source.fisher and clone.anchor is source.anchor
        for table in (clone.fisher, clone.anchor):
            assert set(table) == set(clone.named_params())
            assert not any(a.flags.writeable for a in table.values())
        with pytest.raises(ValueError):
            clone.fisher["head.bias"][0] = 1.0
        clone.train_step(images16, y)
        for name, p in source.named_params().items():
            assert p.tobytes() == source.anchor[name].tobytes(), name
        assert clone.named_params()["head.bias"] != source.anchor["head.bias"]


# -- checkpoints -----------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path, small_model, images16):
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.train_step(images16, y)
    small_model.fisher_diagonal(images16, y)
    small_model.snapshot_anchor()
    path = tmp_path / "model.ckpt"
    small_model.save(path, seed_provenance={"seed": 0})
    loaded = ConvNetClassifier.load(path)
    for n, p in small_model.named_params().items():
        np.testing.assert_array_equal(loaded.named_params()[n], p)
    for n, s in small_model.running_stats().items():
        np.testing.assert_array_equal(loaded.running_stats()[n], s)
    for n, f in small_model.fisher.items():
        np.testing.assert_array_equal(loaded.fisher[n], f)
    for n, a in small_model.anchor.items():
        np.testing.assert_array_equal(loaded.anchor[n], a)
    assert loaded.get_params() == small_model.get_params()


def test_loaded_model_trains_with_a_fresh_optimizer(tmp_path, small_model, images16):
    """After a step, a checkpoint's model restarts Adam, as a clone does
    after `reset_optimizer`."""
    y = np.array([0, 1, 0, 1, 0, 1])
    small_model.train_step(images16, y)
    small_model.save(tmp_path / "model.ckpt", seed_provenance={"seed": 0})
    loaded = ConvNetClassifier.load(tmp_path / "model.ckpt")
    fresh = small_model.clone()
    fresh.reset_optimizer()
    for model in (loaded, fresh):
        model.train_step(images16, y)
        model.train_step(images16, 1 - y)
    for name, p in fresh.named_params().items():
        assert loaded.named_params()[name].tobytes() == p.tobytes(), name


def test_checkpoint_save_is_deterministic(tmp_path, small_model):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    small_model.save(a)
    small_model.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ConfigError):
        ConvNetClassifier.load(path)


# -- gradient check --------------------------------------------------------

def test_gradient_check_small_model_passes():
    model = ConvNetClassifier(image_size=8, channels=(2, 2, 2, 2), random_state=1)
    rng = np.random.default_rng(4)
    X = rng.random((4, 1, 8, 8))
    y = np.array([0, 1, 1, 0])
    err = gradient_check(model, X, y, n_coords=30, rng=np.random.default_rng(5))
    assert err < 1e-4
