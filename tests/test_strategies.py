"""Tests for the continual training strategies: naive, EWC, EWC with frozen
normalization, and the dynamic-memory rehearsal step.
"""
import numpy as np
import pytest

from dynmem import nn
from dynmem.experiment import ExperimentConfig
from dynmem.gram import gram_matrix
from dynmem.model import ConvNetClassifier
from dynmem.strategies import DMStrategy, EWCStrategy, NaiveStrategy, make_strategy
from dynmem.validation import ConfigError, StateError


def make_base_model(with_ewc=True, seed=0):
    """A small classifier with Fisher/anchor attached, as after base training."""
    model = ConvNetClassifier(image_size=16, channels=(2, 2, 2, 2),
                              learning_rate=1e-3, random_state=seed)
    if with_ewc:
        rng = np.random.default_rng(seed)
        X = rng.random((8, 1, 16, 16)).astype(np.float32)
        y = np.array([0, 1] * 4)
        model.fisher_diagonal(X, y)
        model.snapshot_anchor()
    return model


def capture_train_batches(model):
    """Record the (images, labels) of every train_step call on the model."""
    seen = []
    train_step = model.train_step

    def recording(X, y, *args, **kwargs):
        seen.append((np.array(X), np.array(y)))
        return train_step(X, y, *args, **kwargs)

    model.train_step = recording
    return seen


def batch(seed=0, n=8, size=16):
    rng = np.random.default_rng(seed)
    return (rng.random((n, 1, size, size)).astype(np.float32),
            np.array([0, 1] * (n // 2)))


class TenParamStub:
    """Minimal model stand-in for the EWC penalty summation oracle."""

    def __init__(self, rng):
        self._params = {"w": rng.standard_normal(10)}
        self.fisher = {"w": rng.uniform(0.0, 1.0, 10)}
        anchor = rng.standard_normal(10)
        self.anchor = {"w": anchor}

    def named_params(self):
        return self._params


# -- factory ---------------------------------------------------------------

def test_make_strategy_names():
    model, cfg = make_base_model(), ExperimentConfig()
    assert make_strategy("naive", model, cfg).name == "naive"
    assert make_strategy("ewc", model, cfg).name == "ewc"
    assert make_strategy("ewc-fbn", model, cfg).name == "ewc-fbn"
    assert make_strategy("dm", model, cfg).name == "dm"


def test_make_strategy_takes_its_settings_from_the_config():
    cfg = ExperimentConfig(memory_size=16, train_batch_size=12, ewc_lambda=50.0,
                           recompute_signatures=True)
    ewc = make_strategy("ewc-fbn", make_base_model(), cfg)
    assert ewc.ewc_lambda == 50.0 and ewc.frozen_norm
    dm = make_strategy("dm", make_base_model(), cfg)
    assert (dm.memory.capacity, dm.train_batch_size, dm.recompute_signatures) == (16, 12, True)


def test_make_strategy_unknown_raises():
    with pytest.raises(ConfigError):
        make_strategy("gem", make_base_model(), ExperimentConfig())


def test_ewc_without_fisher_raises():
    with pytest.raises(StateError, match="--no-ewc"):
        EWCStrategy(make_base_model(with_ewc=False), ewc_lambda=100.0)


# -- naive -----------------------------------------------------------------

def test_naive_deterministic_trajectory():
    X, y = batch()
    params = []
    for _ in range(2):
        model = make_base_model(with_ewc=False, seed=3)
        strat = NaiveStrategy(model)
        for _ in range(3):
            strat.step(X, y)
        params.append({n: p.copy() for n, p in model.named_params().items()})
    for n in params[0]:
        np.testing.assert_array_equal(params[0][n], params[1][n])


def test_naive_loss_decreases_on_stationary_batch():
    model = make_base_model(with_ewc=False, seed=4)
    strat = NaiveStrategy(model)
    X, y = batch(seed=4)
    losses = [strat.step(X, y)["loss"] for _ in range(30)]
    assert losses[-1] < losses[0]


# -- EWC -------------------------------------------------------------------

def test_ewc_lambda_zero_matches_naive():
    X, y = batch(seed=5)
    ewc_model = make_base_model(seed=5)
    naive_model = ewc_model.clone()
    EWCStrategy(ewc_model, ewc_lambda=0.0).step(X, y)
    NaiveStrategy(naive_model).step(X, y)
    for n, p in ewc_model.named_params().items():
        np.testing.assert_array_equal(p, naive_model.named_params()[n])


def test_ewc_penalty_zero_at_anchor():
    strat = EWCStrategy(make_base_model(seed=6), ewc_lambda=100.0)
    loss, grads = strat.penalty()
    assert loss == 0.0
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_ewc_penalty_matches_summation_oracle():
    rng = np.random.default_rng(7)
    stub = TenParamStub(rng)
    strat = EWCStrategy.__new__(EWCStrategy)
    strat.model = stub
    strat.ewc_lambda = 3.5
    loss, grads = strat.penalty()
    expected = 0.0
    for i in range(10):
        diff = stub._params["w"][i] - stub.anchor["w"][i]
        expected += 0.5 * 3.5 * stub.fisher["w"][i] * diff * diff
    np.testing.assert_allclose(loss, expected, rtol=1e-12)
    np.testing.assert_allclose(grads["w"],
                               3.5 * stub.fisher["w"] * (stub._params["w"] - stub.anchor["w"]))


def test_ewc_huge_lambda_pins_parameters_to_anchor():
    model = make_base_model(seed=8)
    model.learning_rate = 1e-5
    model.reset_optimizer()
    # uniform Fisher so that every parameter feels the penalty
    model._fisher = {n: np.ones_like(p) for n, p in model.named_params().items()}
    strat = EWCStrategy(model, ewc_lambda=1e9)
    rng = np.random.default_rng(8)
    for i in range(100):
        X, y = batch(seed=100 + i)
        strat.step(X, y, rng=rng)
    drift = max(np.max(np.abs(p - model.anchor[n]))
                for n, p in model.named_params().items())
    assert drift < 1e-3


def test_ewc_fbn_freezes_running_stats_and_affine():
    model = make_base_model(seed=9)
    strat = EWCStrategy(model, ewc_lambda=100.0, frozen_norm=True)
    assert model.norm_frozen
    stats = {n: s.copy() for n, s in model.running_stats().items()}
    affine = {n: p.copy() for n, p in model.named_params().items() if ".norm" in n}
    for i in range(20):
        X, y = batch(seed=200 + i)
        strat.step(X, y)
    for n, s in model.running_stats().items():
        np.testing.assert_array_equal(s, stats[n])
    for n, p in model.named_params().items():
        if ".norm" in n:
            np.testing.assert_array_equal(p, affine[n])


# -- dynamic memory step ---------------------------------------------------

def test_dm_rejects_input_batch_larger_than_training_batch():
    strat = DMStrategy(make_base_model(with_ewc=False), memory_size=32, train_batch_size=4)
    X, y = batch(n=8)
    with pytest.raises(ConfigError):
        strat.step(X, y, rng=np.random.default_rng(0))


@pytest.mark.parametrize("bad", [0.5, -1, 2])
def test_dm_refuses_a_label_other_than_0_or_1(bad):
    # the step cast its labels to int64 first, so 0.5 was stored and trained on as 0
    strat = DMStrategy(make_base_model(with_ewc=False), memory_size=8, train_batch_size=8)
    X, y = batch(seed=18)
    with pytest.raises(ConfigError, match=f"got {bad!r}$"):
        strat.step(X, np.where(np.arange(8) == 3, bad, y), rng=np.random.default_rng(18))
    assert len(strat.memory) == 0


def test_a_refused_dm_step_does_not_advance_the_step_count():
    # the count was bumped before the checks, so the next items carried step 2
    strat = DMStrategy(make_base_model(with_ewc=False), memory_size=16, train_batch_size=8)
    X, y = batch(seed=19)
    rng = np.random.default_rng(19)
    with pytest.raises(ConfigError, match="got 0.5$"):
        strat.step(X, np.where(np.arange(8) == 3, 0.5, y), rng=rng)
    with pytest.raises(ConfigError, match="exceeds training batch size"):
        strat.step(*batch(seed=19, n=10), rng=rng)
    assert strat.step_count == 0
    strat.step(X, y, rng=rng)
    assert strat.step_count == 1 and strat.memory.items.step.tolist() == [1] * 8


def test_dm_inserts_every_incoming_sample():
    strat = DMStrategy(make_base_model(with_ewc=False), memory_size=32, train_batch_size=8)
    rng = np.random.default_rng(10)
    for i in range(4):  # 4 of each label per batch: every sample appends
        X, y = batch(seed=300 + i)
        strat.step(X, y, rng=rng)
        assert len(strat.memory) == 8 * (i + 1)


def test_dm_training_batch_contains_all_misclassified():
    model = make_base_model(with_ewc=False, seed=11)
    strat = DMStrategy(model, memory_size=32, train_batch_size=8)
    rng = np.random.default_rng(11)
    X, y = batch(seed=11)
    preds = model.predict(X)
    trained = capture_train_batches(model)
    report = strat.step(X, y, rng=rng)
    [(train_images, train_labels)] = trained
    wrong = np.nonzero(preds != y)[0]
    assert report["n_misclassified"] == len(wrong)
    for i in wrong:
        match = np.all(train_images == X[i], axis=(1, 2, 3))
        assert match.any()
    assert len(train_labels) <= strat.train_batch_size


def test_dm_training_batch_fills_with_memory_draws():
    model = make_base_model(with_ewc=False, seed=12)
    strat = DMStrategy(model, memory_size=32, train_batch_size=8)
    rng = np.random.default_rng(12)
    X, y = batch(seed=12)
    strat.step(X, y, rng=rng)  # prime the memory
    # an all-correct batch trains purely on rehearsal draws
    X2, _ = batch(seed=13)
    agreeable = model.predict(X2)
    trained = capture_train_batches(model)
    report = strat.step(X2, agreeable, rng=rng)
    [(_, train_labels)] = trained
    assert report["n_misclassified"] == 0
    assert len(train_labels) == min(strat.train_batch_size, len(strat.memory))


def pre_step_grams(model, images):
    """Per-image signatures of `images` under `model`, from one batch pass."""
    _, taps = model.forward_with_taps(images, train=False)
    return [[gram_matrix(t[i]) for t in taps] for i in range(len(images))]


def assert_rows_equal(memory, index, signature):
    assert all(np.array_equal(g[index], want) for g, want in zip(memory.grams, signature))


def test_dm_memory_update_precedes_model_update():
    """The rows stored in a step are, bit for bit, the grams of their images
    under the model as it was before the step's update."""
    model = make_base_model(with_ewc=False, seed=13)
    strat = DMStrategy(model, memory_size=32, train_batch_size=8)
    rng = np.random.default_rng(14)
    trained = capture_train_batches(model)
    for i in range(3):
        before = model.clone()
        X, y = batch(seed=400 + i)
        expected = pre_step_grams(before, X)
        start = len(strat.memory)
        strat.step(X, y, rng=rng)
        assert len(trained) == i + 1  # one update per step
        assert len(strat.memory) == start + len(X)  # fill phase: every sample appends
        for k, signature in enumerate(expected):
            assert strat.memory.items[start + k].step == strat.step_count
            assert_rows_equal(strat.memory, start + k, signature)


def test_dm_respects_quota_under_streaming():
    strat = DMStrategy(make_base_model(with_ewc=False), memory_size=8, train_batch_size=8)
    rng = np.random.default_rng(15)
    for i in range(20):
        X, y = batch(seed=500 + i)
        strat.step(X, y, rng=rng)
        assert len(strat.memory) <= 8
        assert np.count_nonzero(strat.memory.items.label == 0) <= 4
        assert np.count_nonzero(strat.memory.items.label == 1) <= 4


def test_dm_recompute_signatures_tracks_model_version():
    """With refresh on, the stored rows of the batch's labels are re-signed,
    bit for bit, under the model as it was before the step's update; the
    other label's rows keep their values."""
    model = make_base_model(with_ewc=False, seed=16)
    strat = DMStrategy(model, memory_size=32, train_batch_size=8, recompute_signatures=True)
    rng = np.random.default_rng(16)
    for i in range(3):
        before = model.clone()
        X, y = batch(seed=600 + i)
        if i == 1:
            y = np.zeros_like(y)  # this step refreshes label 0 only
        stored = strat.memory.items.copy()
        refreshed = [j for j, label in enumerate(stored.label) if label in y]
        expected = pre_step_grams(before, stored.image[refreshed]) if refreshed else []
        untouched = {j: [g[j].copy() for g in strat.memory.grams]
                     for j in range(len(stored)) if j not in refreshed}
        assert len(untouched) == (4 if i == 1 else 0)
        strat.step(X, y, rng=rng)
        if len(stored):  # fill phase: nothing stored before the step is replaced
            kept = strat.memory.items[:len(stored)]
            for field in ("image", "label", "step", "task_id", "distance"):
                np.testing.assert_array_equal(kept[field], stored[field])
        for j, signature in zip(refreshed, expected):
            assert_rows_equal(strat.memory, j, signature)
        for j, signature in untouched.items():
            assert_rows_equal(strat.memory, j, signature)


@pytest.mark.parametrize("refresh", [False, True])
def test_dm_signature_forwards_keep_no_backward_caches(refresh):
    """The step's batch forward and, with refresh on, the refresh forward
    leave no conv, norm or ReLU cache for the update to find."""
    model = make_base_model(with_ewc=False, seed=17)
    strat = DMStrategy(model, memory_size=8, train_batch_size=8, recompute_signatures=refresh)
    rng = np.random.default_rng(17)
    found = []
    train_step = model.train_step

    def checking(X, y, *args, **kwargs):
        found.append([name for name, layer in zip(model.layer_names, model.layers)
                      if isinstance(layer, (nn.Conv2d, nn.BatchNorm2d, nn.ReLU))
                      and layer._cache is not None])
        return train_step(X, y, *args, **kwargs)

    model.train_step = checking
    for i in range(3):  # the last update's backward has freed its forward's caches
        strat.step(*batch(seed=700 + i), rng=rng)
    assert found == [[], [], []] and len(strat.memory) == 8
