"""Tests for the synthetic corpus generator, the stream and the
corpus containers, including the generator calibration oracles.
"""
import json
import os
import re

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, median_filter

from dynmem import data
from dynmem.data import (CORPUS_FIELDS, CORPUS_MAGIC, TASKS, TASK_ATTRS, CorpusConfig,
                         Dataset, _backgrounds, _draw_placement, _imprint, _split_layout,
                         build_corpus, emit_stream, load_corpus, save_corpus)
from dynmem.validation import (ConfigError, ShapeError, check_fits, read_container,
                               write_container)

SMALL = CorpusConfig(base_count=60, continuous_counts=(60, 40, 90), eval_count=20)


def edge_count(img, threshold=0.2):
    """Local-contrast statistic: median-filtered gradient magnitudes above a
    threshold; imprinted targets add a plateau boundary, backgrounds do not."""
    d = median_filter(img, 3)
    return float(np.sum(np.abs(np.diff(d, axis=0)) > threshold)
                 + np.sum(np.abs(np.diff(d, axis=1)) > threshold))


def threshold_accuracy(clean_values, imprinted_values):
    """Best achievable accuracy of a single threshold on the statistic."""
    best = 0.0
    for t in np.concatenate([clean_values, imprinted_values]):
        acc = (np.mean(clean_values < t) + np.mean(imprinted_values >= t)) / 2
        best = max(best, float(acc))
    return best


def backgrounds(modality, rng, n, cfg=CorpusConfig(), placements=None):
    """n backgrounds, an (n, S, S) stack, drawn one image at a time as the
    generator draws them: its base and noise fields, then, when a list of
    `placements` is given, a target placement appended to it."""
    s = cfg.image_size
    fields = np.empty((n, 2, s, s))
    for i in range(n):
        fields[i] = rng.standard_normal((2, s, s))
        if placements is not None:
            placements.append(_draw_placement(rng, cfg, s))
    return _backgrounds(modality, fields[:, 0], fields[:, 1], cfg)


def with_targets(modality, polarity, rng, n, cfg=CorpusConfig()):
    """n backgrounds and a copy with a target imprinted into each."""
    placements = []
    clean = backgrounds(modality, rng, n, cfg, placements)
    out = clean.copy()
    _imprint(out, polarity, placements, cfg)
    return clean, out


# -- backgrounds -----------------------------------------------------------

def test_background_deterministic_per_seed():
    a = backgrounds("smooth", np.random.default_rng(7), 4)
    b = backgrounds("smooth", np.random.default_rng(7), 4)
    np.testing.assert_array_equal(a, b)


def test_background_range_and_dtype():
    rng = np.random.default_rng(0)
    for modality in ("smooth", "sharp"):
        img = backgrounds(modality, rng, 4)
        assert img.dtype == np.float32
        assert img.shape == (4, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_background_unknown_modality_raises():
    with pytest.raises(ConfigError, match="unknown modality 'blurry'"):
        backgrounds("blurry", np.random.default_rng(0), 1)


def test_background_mean_pixel_calibration():
    rng = np.random.default_rng(1)
    for modality in ("smooth", "sharp"):
        means = backgrounds(modality, rng, 1000).mean(axis=(1, 2))
        assert 0.3 < np.mean(means) < 0.7


def test_modalities_separable_by_highpass_energy():
    """AUC > 0.9 for a fixed high-pass energy statistic (the modality shift
    is real, not cosmetic)."""
    rng = np.random.default_rng(2)

    def energy(img):
        return float(np.mean((img - gaussian_filter(img, 2.0)) ** 2))

    smooth = np.array([energy(img) for img in backgrounds("smooth", rng, 1000)])
    sharp = np.array([energy(img) for img in backgrounds("sharp", rng, 1000)])
    auc = np.mean(sharp[:, None] > smooth[None, :])
    assert auc > 0.9


# -- target imprinting -----------------------------------------------------

def test_imprint_high_polarity_raises_region_mean():
    base, out = with_targets("smooth", "high", np.random.default_rng(3), 5)
    for image, before in zip(out, base):
        changed = image != before
        assert changed.any()
        assert np.all(image[changed] >= before[changed])


def test_imprint_low_polarity_clamps_at_zero():
    base, out = np.full((2, 5, 32, 32), 0.4, dtype=np.float32)
    cfg = CorpusConfig(offset_min=0.5, offset_max=0.5)
    rng = np.random.default_rng(5)
    _imprint(out, "low", [_draw_placement(rng, cfg, 32) for _ in out], cfg)
    changed = out != base
    assert changed.any(axis=(1, 2)).all()
    assert np.all(out[changed] == 0.0)


def test_task_imprint_is_each_image_imprinted_alone():
    """Footprints of every size, down to the smallest scale and out to the
    bottom-right corner: padding each to the largest one moves no pixel."""
    cfg = CorpusConfig(image_size=24, scale_min=0.2, scale_max=1.5)
    rng = np.random.default_rng(8)
    placements = [_draw_placement(rng, cfg, 24) for _ in range(40)]
    placements += [(*p[:3], 24 - p[2], 24 - p[2], p[5]) for p in placements[:10]]  # corner
    images = backgrounds("sharp", rng, len(placements), cfg)
    alone = images.copy()
    for i, placement in enumerate(placements):
        _imprint(alone[i : i + 1], "low", [placement], cfg)
    _imprint(images, "low", placements, cfg)
    assert len({p[2] for p in placements}) > 5
    assert images.tobytes() == alone.tobytes()


def test_imprint_unknown_polarity_raises_also_without_placements():
    with pytest.raises(ConfigError, match="unknown polarity 'medium'"):
        _imprint(np.zeros((1, 32, 32)), "medium", [], CorpusConfig())


def test_imprint_oversized_sprite_raises():
    # footprint ceil(7 * 1.5 * sqrt(2)) = 15 on an image smaller than the config's
    cfg = CorpusConfig(scale_min=1.5, scale_max=1.5)
    with pytest.raises(ShapeError, match="footprint 15 does not fit into image of size 14"):
        _draw_placement(np.random.default_rng(0), cfg, 14)


def test_image_size_below_the_sprite_footprint_is_rejected():
    """The largest rotated sprite needs ceil(7 * 1.5 * sqrt(2)) = 15 pixels at
    the defaults; a smaller image is refused before any sample is drawn."""
    with pytest.raises(ConfigError, match="--image-size 14 .* smallest that fits is 15"):
        CorpusConfig(image_size=14)
    with pytest.raises(ConfigError, match="smallest that fits is 22"):
        CorpusConfig(image_size=21, scale_max=2.2)
    cfg = CorpusConfig(image_size=15, base_count=4, continuous_counts=(4, 4, 4), eval_count=2)
    assert build_corpus(cfg, seed=0).base.images.shape == (4, 1, 15, 15)


def draw_nothing(*args):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("cfg, named, nbytes", [
    # (600 + 1950 + 6 * 150) images of 100000**2 float32 pixels: 125 TiB
    (CorpusConfig(image_size=100000), "--image-size 100000", "138,000,000,000,000"),
    # (600 + 1950 + 6 * 2e9) images of 32**2 float32 pixels: 45 TiB
    (CorpusConfig(eval_count=2_000_000_000), "--eval-n 2000000000", "49,152,010,444,800"),
])
def test_corpus_larger_than_physical_memory_is_refused_before_a_draw(monkeypatch, cfg, named,
                                                                     nbytes):
    monkeypatch.setattr(data, "_make_samples", draw_nothing)
    with pytest.raises(ConfigError, match="physical memory") as exc:
        build_corpus(cfg, seed=0)
    assert named in str(exc.value) and f"need {nbytes} bytes" in str(exc.value)


def test_corpus_check_compares_with_the_physical_memory_sysconf_gives(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(data, "_make_samples", draw_nothing)
    # SMALL holds 60 + 190 + 120 images of 32 * 32 float32 pixels
    with pytest.raises(ConfigError, match="need 1,515,520 bytes, more than the 409,600 bytes"):
        build_corpus(SMALL, seed=0)
    pages["SC_PHYS_PAGES"] = 370
    check_fits(1_515_520, "SMALL's pixels")  # 1,515,520 bytes fit into 1,515,520


def test_where_sysconf_cannot_tell_the_physical_memory_every_size_is_accepted(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unknown)
    check_fits(1 << 100, "a size no machine holds")
    monkeypatch.delattr(os, "sysconf")
    check_fits(1 << 100, "a size no machine holds")


@pytest.mark.parametrize("task", TASKS)
def test_targets_separable_by_local_contrast_threshold(task):
    """Learnability calibration: imprinted vs clean images of every task are
    separable with accuracy > 0.95 by a threshold on a local-contrast count."""
    modality, polarity = TASK_ATTRS[task]
    rng = np.random.default_rng(0)
    clean = np.array([edge_count(img) for img in backgrounds(modality, rng, 250)])
    _, targets = with_targets(modality, polarity, rng, 250)
    imprinted = np.array([edge_count(img) for img in targets])
    assert threshold_accuracy(clean, imprinted) > 0.95


# -- corpus ----------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return build_corpus(SMALL, seed=5)


def test_corpus_split_counts(corpus):
    assert len(corpus.base) == 60
    assert len(corpus.continuous) == 190
    assert len(corpus.validation) == len(corpus.test) == 60
    for task, count in zip(TASKS, SMALL.continuous_counts):
        assert int(np.sum(corpus.continuous.tasks == task)) == count


def test_corpus_balanced_labels_per_split_task(corpus):
    for split in ("base", "continuous", "validation", "test"):
        ds = getattr(corpus, split)
        for task in TASKS:
            sub = ds.task_subset(task)
            if len(sub):
                assert int(sub.labels.sum()) == len(sub) // 2


def test_corpus_ids_disjoint_across_splits(corpus):
    all_ids = np.concatenate([getattr(corpus, s).ids
                              for s in ("base", "continuous", "validation", "test")])
    assert len(np.unique(all_ids)) == len(all_ids)


def test_corpus_bytewise_deterministic(tmp_path):
    a = build_corpus(SMALL, seed=5)
    b = build_corpus(SMALL, seed=5)
    np.testing.assert_array_equal(a.continuous.images, b.continuous.images)
    np.testing.assert_array_equal(a.continuous.labels, b.continuous.labels)


def test_base_split_is_task_a_only(corpus):
    assert set(corpus.base.tasks) == {"A"}


# -- stream ----------------------------------------------------------------

def stand_in(counts):
    """A continuous split with `counts` samples of each task, in shuffled order."""
    n = sum(counts)
    tasks = np.repeat(np.array(TASKS), counts)[np.random.default_rng(0).permutation(n)]
    return Dataset(np.zeros((n, 1, 1, 1), np.float32), np.zeros(n, np.uint8), tasks,
                   np.arange(n, dtype=np.int64))


def test_stream_default_geometry():
    continuous = stand_in((600, 400, 950))
    order, checkpoints = emit_stream(continuous, 0.15, np.random.default_rng(0))
    assert order.dtype == np.int64 and len(order) == 1950
    tasks = continuous.tasks[order]
    assert checkpoints == {"A": 539, "B": 939, "C": 1949}
    # each ramp carves floor(0.15 * 400) = 60 positions from both sides of its boundary
    ramps = [slice(540, 660), slice(940, 1060)]
    outside = np.ones(1950, dtype=bool)
    for ramp, pair in zip(ramps, [("A", "B"), ("B", "C")]):
        outside[ramp] = False
        assert [int(np.sum(tasks[ramp] == t)) for t in pair] == [60, 60]
    np.testing.assert_array_equal(tasks[outside],
                                  np.repeat(TASKS, (600, 400, 950))[outside])


def test_stream_pure_segments_are_pure(corpus):
    # SMALL's ramps carve floor(0.15 * 40) = 6 positions from each side
    order, checkpoints = emit_stream(corpus.continuous, SMALL.ramp_fraction,
                                     np.random.default_rng(0))
    assert checkpoints == {"A": 53, "B": 93, "C": 189}
    tasks = corpus.continuous.tasks[order]
    for task, start in zip(TASKS, (0, 66, 106)):
        assert set(tasks[start : checkpoints[task] + 1]) == {task}


def test_stream_is_permutation_of_continuous(corpus):
    order, _ = emit_stream(corpus.continuous, SMALL.ramp_fraction, np.random.default_rng(1))
    np.testing.assert_array_equal(np.sort(order), np.arange(len(corpus.continuous)))


def test_stream_ramp_midpoint_mixture(corpus):
    """Near the A-to-B ramp midpoint both tasks appear roughly equally."""
    mid = SMALL.continuous_counts[0]
    draws = []
    for seed in range(50):
        order, _ = emit_stream(corpus.continuous, SMALL.ramp_fraction,
                               np.random.default_rng(seed))
        draws.extend(corpus.continuous.tasks[order[mid - 2 : mid + 2]])
    frac_a = np.mean(np.asarray(draws) == "A")
    assert 0.4 <= frac_a <= 0.6


def test_zero_width_ramp_is_an_abrupt_shift(corpus):
    order, checkpoints = emit_stream(corpus.continuous, 0.0, np.random.default_rng(2))
    assert checkpoints == {"A": 59, "B": 99, "C": 189}
    expected = np.repeat(TASKS, SMALL.continuous_counts)
    np.testing.assert_array_equal(corpus.continuous.tasks[order], expected)
    np.testing.assert_array_equal(np.sort(order), np.arange(len(corpus.continuous)))


class StateAtFirstPermutation:
    """A generator that remembers its state at its first `permutation` call."""

    def __init__(self, seed):
        self.rng, self.state = np.random.default_rng(seed), None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def permutation(self, x):
        if self.state is None:
            self.state = self.rng.bit_generator.state
        return self.rng.permutation(x)


@pytest.mark.parametrize("counts", [(600, 400, 950), (7, 3, 11), (1, 1, 1)])
@pytest.mark.parametrize("ramp_fraction", [0.0, 0.15, 0.3, 0.49])
def test_stream_order_is_the_per_sample_pop_loop(counts, ramp_fraction):
    """Each task's positions take its shuffled samples from the end: the order
    that popping one sample per position from per-task lists gave, from the
    same draws."""
    continuous = stand_in(counts)
    for seed in (0, 1, 7, 123):
        rng = StateAtFirstPermutation(seed)
        order, _ = emit_stream(continuous, ramp_fraction, rng)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.state
        pools = [list(replay.permutation(np.nonzero(continuous.tasks == t)[0])) for t in TASKS]
        expected = [pools[TASKS.index(t)].pop() for t in continuous.tasks[order]]
        assert order.tobytes() == np.array(expected, dtype=np.int64).tobytes()
        assert rng.rng.bit_generator.state == replay.bit_generator.state  # no draw more


def test_stream_without_a_task_raises():
    with pytest.raises(ConfigError, match="no samples of task B"):
        emit_stream(stand_in((10, 0, 10)), 0.15, np.random.default_rng(0))


# -- corpus IO -------------------------------------------------------------

def test_corpus_save_load_round_trip(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    assert loaded.config == corpus.config
    assert loaded.seed == corpus.seed
    for split in ("base", "continuous", "validation", "test"):
        a, b = getattr(corpus, split), getattr(loaded, split)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.tasks, b.tasks)
        np.testing.assert_array_equal(a.ids, b.ids)


def test_corpus_save_and_load_take_a_str_path(tmp_path, corpus):
    save_corpus(corpus, str(tmp_path / "corpus"))
    loaded = load_corpus(str(tmp_path / "corpus"))
    assert loaded.config == corpus.config
    np.testing.assert_array_equal(loaded.test.images, corpus.test.images)


def test_corpus_save_is_deterministic(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "a")
    save_corpus(corpus, tmp_path / "b")
    for name in ("base.dmc", "continuous.dmc", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_corpus_load_rejects_tampered_hash(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    manifest = tmp_path / "corpus" / "manifest.json"
    manifest.write_text(manifest.read_text().replace(
        corpus.config.config_hash(), "0" * 16))
    with pytest.raises(ConfigError):
        load_corpus(tmp_path / "corpus")


def test_corpus_load_missing_manifest_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_corpus(tmp_path)


def test_corpus_load_rejects_a_truncated_manifest_naming_the_file(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "manifest.json"
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_corpus(tmp_path / "corpus")


@pytest.mark.parametrize("damage", ["magic", "json", "trailing"])
def test_corpus_load_rejects_a_damaged_split_naming_the_file(tmp_path, corpus, damage):
    save_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "test.dmc"
    blob = path.read_bytes()
    start = blob.index(b"{")
    path.write_bytes({"magic": b"X" + blob[1:],
                      "json": blob[:start] + b"[" + blob[start + 1:],
                      "trailing": blob + b"\0"}[damage])
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_corpus(tmp_path / "corpus")


def test_corpus_load_reads_only_the_named_splits(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    (tmp_path / "corpus" / "base.dmc").unlink()
    (tmp_path / "corpus" / "test.dmc").write_bytes(b"not a corpus container")
    loaded = load_corpus(tmp_path / "corpus", ("continuous", "validation"))
    assert loaded.base is None and loaded.test is None
    assert loaded.config == corpus.config and loaded.seed == corpus.seed
    np.testing.assert_array_equal(loaded.continuous.images, corpus.continuous.images)
    np.testing.assert_array_equal(loaded.validation.tasks, corpus.validation.tasks)
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "corpus" / "base.dmc"))):
        load_corpus(tmp_path / "corpus")


@pytest.mark.parametrize("field, at, value", [
    pytest.param("tasks", 3, 3, id="task-code-3"),
    pytest.param("tasks", 0, 255, id="task-code-255"),
    pytest.param("labels", 5, 5, id="label-5"),
    pytest.param("labels", 0, 2, id="label-2"),
    pytest.param("pixels", 7, np.nan, id="pixel-nan"),
    pytest.param("pixels", 0, -0.01, id="pixel-negative"),
    pytest.param("pixels", 40, 1.5, id="pixel-above-one"),
    pytest.param("pixels", 9, np.inf, id="pixel-inf"),
])
def test_corpus_load_rejects_a_value_the_generator_never_writes_naming_the_file(
        tmp_path, corpus, field, at, value):
    save_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "validation.dmc"
    header, arrays = read_container(path, CORPUS_MAGIC, "corpus container", _split_layout)
    arrays[field].reshape(-1)[at] = value
    write_container(path, CORPUS_MAGIC, header, [arrays[name] for name, _ in CORPUS_FIELDS])
    with pytest.raises(ConfigError, match=re.escape(str(path)) + f" holds {field} outside"):
        load_corpus(tmp_path / "corpus")
    assert load_corpus(tmp_path / "corpus", ("base", "test")).validation is None


@pytest.mark.parametrize("arrays, problem", [
    ([["a", [-2, -1], "float32"]], "negative dimension"),
    ([["a", [2.0], "float32"]], "integer"),
    ([["a", [2], "O"]], "object dtype"),
    ([["a", [1], "float64"], ["a", [1], "float64"]], "name repeats"),
])
def test_container_header_with_arrays_that_cannot_be_read_is_malformed(tmp_path, arrays,
                                                                        problem):
    path = tmp_path / "odd.dmc"
    write_container(path, CORPUS_MAGIC, {"arrays": arrays}, [np.zeros(2)])
    with pytest.raises(ConfigError, match=re.escape(f"{path} has a malformed header: ")
                       + f".*{problem}"):
        read_container(path, CORPUS_MAGIC, "corpus container", lambda header: header["arrays"])


@pytest.mark.parametrize("key, value", [("seed", 4), ("image_size", 16)])
def test_corpus_load_rejects_a_split_of_another_seed_or_size_naming_both(tmp_path, corpus,
                                                                          key, value):
    """The config hash leaves the seed out, so a split copied from a corpus of
    another seed would otherwise load, with ids that overlap the other splits."""
    save_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "base.dmc"
    header, arrays = read_container(path, CORPUS_MAGIC, "corpus container", _split_layout)
    header[key] = value
    if key == "image_size":  # the arrays follow the header
        arrays["pixels"] = arrays["pixels"][:, :, :value, :value]
    write_container(path, CORPUS_MAGIC, header, [arrays[name] for name, _ in CORPUS_FIELDS])
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    want = manifest["seed"] if key == "seed" else manifest["config"]["image_size"]
    with pytest.raises(ConfigError, match=re.escape(f"{path} was written with {key} {value}, "
                                                    f"but ") + f".*manifest.json has {key} {want}"):
        load_corpus(tmp_path / "corpus")
    assert load_corpus(tmp_path / "corpus", ("test",)).base is None


@pytest.mark.parametrize("fraction", [0.5, -0.1, float("nan"), 0.6, 1.0])
def test_ramp_fraction_outside_its_range_is_rejected(tmp_path, corpus, fraction):
    """Below one half, the two ramps of a task carve less than its segment,
    so every task keeps a pure segment and a checkpoint."""
    with pytest.raises(ConfigError, match="ramp_fraction"):
        CorpusConfig(ramp_fraction=fraction)
    with pytest.raises(ConfigError, match="ramp_fraction"):
        emit_stream(stand_in((10, 10, 10)), fraction, np.random.default_rng(0))
    save_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["ramp_fraction"] = fraction
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*ramp_fraction"):
        load_corpus(tmp_path / "corpus")
