"""The numpy corpus generator against scipy: the separable blur against
`scipy.ndimage.gaussian_filter`, and whole corpora against a per-image
generator that blurs with scipy, bit for bit."""
import numpy as np
import pytest

from dynmem import data
from dynmem.data import TASK_ATTRS, CorpusConfig, Dataset, build_corpus, gaussian_blur

gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter


@pytest.mark.parametrize("size", [15, 16, 32])
@pytest.mark.parametrize("sigma", [0.0, 1e-16, 0.5, 1.2, 3.0, 4, 5.0, 9.0])
def test_blur_has_the_bits_of_scipy_gaussian_filter(sigma, size):
    """Sigma 9 has radius 36, larger than every image here: the reflected
    border then wraps more than once."""
    fields = np.random.default_rng(size).standard_normal((3, size, size))
    expected = np.stack([gaussian_filter(f, sigma) for f in fields])
    got = gaussian_blur(fields, sigma)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


# -- the per-image scipy generator, kept as the oracle ----------------------

def oracle_background(modality, rng, cfg):
    blur, noise = ((cfg.smooth_blur, cfg.smooth_noise) if modality == "smooth"
                   else (cfg.sharp_blur, cfg.sharp_noise))
    s = cfg.image_size
    base = gaussian_filter(rng.standard_normal((s, s)), blur)
    base = (base - base.mean()) / (base.std() + 1e-12)
    img = 0.5 + cfg.contrast * base + noise * rng.standard_normal((s, s))
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def oracle_imprint(image, polarity, rng, cfg):
    sprite = data._plus_sprite(cfg.sprite_size)
    scale = rng.uniform(cfg.scale_min, cfg.scale_max)
    theta = rng.uniform(0.0, 2 * np.pi)
    foot = int(np.ceil(cfg.sprite_size * scale * np.sqrt(2)))
    s = image.shape[-1]
    top = rng.integers(0, s - foot + 1)
    left = rng.integers(0, s - foot + 1)
    yy, xx = np.mgrid[0:foot, 0:foot].astype(np.float64)
    cy = cx = (foot - 1) / 2.0
    sc = cfg.sprite_size / 2.0 - 0.5
    cos, sin = np.cos(theta), np.sin(theta)
    u = (cos * (yy - cy) + sin * (xx - cx)) / scale + sc
    v = (-sin * (yy - cy) + cos * (xx - cx)) / scale + sc
    ui = np.rint(u).astype(int)
    vi = np.rint(v).astype(int)
    inside = (ui >= 0) & (ui < cfg.sprite_size) & (vi >= 0) & (vi < cfg.sprite_size)
    mask = np.zeros((foot, foot), dtype=bool)
    mask[inside] = sprite[ui[inside], vi[inside]]
    offset = rng.uniform(cfg.offset_min, cfg.offset_max)
    if polarity == "low":
        offset = -offset
    out = np.array(image, copy=True)
    region = out[..., top : top + foot, left : left + foot]
    region[..., mask] = np.clip(region[..., mask] + offset, 0.0, 1.0)
    return out


def oracle_make_samples(task, count, rng, cfg, id_start):
    modality, polarity = TASK_ATTRS[task]
    n_pos = count // 2
    labels = np.array([1] * n_pos + [0] * (count - n_pos), dtype=np.uint8)
    images = np.empty((count, 1, cfg.image_size, cfg.image_size), dtype=np.float32)
    for i, lab in enumerate(labels):
        img = oracle_background(modality, rng, cfg)
        if lab:
            img = oracle_imprint(img, polarity, rng, cfg)
        images[i, 0] = img
    order = rng.permutation(count)
    ids = np.arange(id_start, id_start + count, dtype=np.int64)
    return Dataset(images[order], labels[order], np.full(count, task), ids)


# the 16 px config's task C has more images than one blur chunk
CONFIGS = {
    "default-size": CorpusConfig(base_count=40, continuous_counts=(30, 21, 45), eval_count=10),
    "16px": CorpusConfig(image_size=16, base_count=60, continuous_counts=(60, 40, 90),
                         eval_count=20),
    "15px": CorpusConfig(image_size=15, base_count=31, continuous_counts=(21, 13, 45),
                         eval_count=9),
    "blur-past-the-border": CorpusConfig(image_size=16, smooth_blur=5.0, sharp_blur=0.5,
                                         base_count=20, continuous_counts=(10, 10, 10),
                                         eval_count=4),
    # odd counts, and tasks of one sample, which have no positive
    "odd-counts": CorpusConfig(image_size=24, base_count=1, continuous_counts=(3, 5, 1),
                               eval_count=1),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_corpus_has_the_bytes_of_the_per_image_scipy_generator(name, seed, monkeypatch):
    cfg = CONFIGS[name]
    corpus = build_corpus(cfg, seed)
    monkeypatch.setattr(data, "_make_samples", oracle_make_samples)
    expected = build_corpus(cfg, seed)
    for split in data.SPLITS:
        got, want = getattr(corpus, split), getattr(expected, split)
        for field in ("images", "labels", "tasks", "ids"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, (split, field)
            assert a.tobytes() == b.tobytes(), (split, field)

