"""Synthetic three-task image corpus and the time-ordered training stream.

Tasks share one binary objective (is a target sprite imprinted?) while their
appearance shifts: A = smooth background with a dark target, B = sharp
background with a dark target (modality-shift), C = sharp background with a
bright target (target-shift). Exactly one attribute changes per shift.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .validation import (ConfigError, ShapeError, check_fits, read_container,
                         write_container)

TASKS = ("A", "B", "C")
TASK_ATTRS = {"A": ("smooth", "low"), "B": ("sharp", "low"), "C": ("sharp", "high")}
CORPUS_MAGIC = b"DMCORPUS1\n"
CORPUS_FIELDS = (("ids", "int64"), ("tasks", "uint8"), ("labels", "uint8"),
                 ("pixels", "float32"))
SPLITS = ("base", "continuous", "validation", "test")


def check_ramp_fraction(ramp_fraction):
    """Below one half, the two ramps of a task carve less than its whole segment."""
    if not 0.0 <= ramp_fraction < 0.5:
        raise ConfigError(f"ramp_fraction must be a finite number in [0, 0.5), "
                          f"got {ramp_fraction!r}")


@dataclass(frozen=True)
class CorpusConfig:
    """Generator parameters plus per-split sample counts (desk scale)."""

    image_size: int = 32
    smooth_blur: float = 3.0
    sharp_blur: float = 1.2
    smooth_noise: float = 0.02
    sharp_noise: float = 0.08
    contrast: float = 0.10
    sprite_size: int = 7
    scale_min: float = 0.75
    scale_max: float = 1.5
    offset_min: float = 0.3
    offset_max: float = 0.5
    base_count: int = 600
    continuous_counts: tuple = (600, 400, 950)
    eval_count: int = 150  # per task, validation and test each
    ramp_fraction: float = 0.15

    def __post_init__(self):
        check_ramp_fraction(self.ramp_fraction)
        fit = int(np.ceil(self.sprite_size * self.scale_max * np.sqrt(2)))  # see _draw_placement
        if self.image_size < fit:
            raise ConfigError(f"--image-size {self.image_size} is too small for the target "
                              f"sprite at its largest scale; the smallest that fits is {fit}")

    def config_hash(self):
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Dataset:
    """A labeled split; tasks ride along for evaluation-only diagnostics."""

    images: np.ndarray  # (N, 1, S, S) float32 in [0, 1]
    labels: np.ndarray  # (N,) uint8
    tasks: np.ndarray   # (N,) of "A"/"B"/"C"
    ids: np.ndarray     # (N,) int64, globally unique across splits

    def __len__(self):
        return len(self.labels)

    def task_subset(self, task):
        mask = self.tasks == task
        return Dataset(self.images[mask], self.labels[mask], self.tasks[mask], self.ids[mask])


def _plus_sprite(size):
    arm = size // 3
    lo, hi = arm, size - arm
    mask = np.zeros((size, size), dtype=bool)
    mask[lo:hi, :] = True
    mask[:, lo:hi] = True
    return mask


BLUR_CHUNK = 64  # images per blur pass: a whole task's stack falls out of cache and runs slower


def _correlate_symmetric(x, half, axis):
    """scipy.ndimage.correlate1d of x along `axis` with the symmetric kernel
    half[|j|], mode "reflect", in scipy's order of sums: the centre term, then
    (x[i - j] + x[i + j]) * half[j] for j = r..1."""
    n, r = x.shape[axis], len(half) - 1
    xp = np.pad(x, [(r, r) if a == axis else (0, 0) for a in range(x.ndim)],
                mode="symmetric")  # scipy's "reflect", also for r > n
    at = [slice(None)] * x.ndim

    def shifted(j):  # x[i + j] along `axis`
        at[axis] = slice(r + j, r + j + n)
        return xp[tuple(at)]

    out = shifted(0) * half[0]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=tmp)
        tmp *= half[j]
        out += tmp
    return out


def gaussian_blur(fields, sigma):
    """scipy.ndimage.gaussian_filter(f, sigma) of each float64 (H, W) field f
    in an (N, H, W) stack, bit for bit: truncate 4, reflect borders, axis 0
    then axis 1; a sigma of at most 1e-15 leaves the fields as they are."""
    fields = np.asarray(fields, dtype=np.float64)
    if sigma <= 1e-15:
        return fields.copy()
    radius = int(4.0 * float(sigma) + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    half = (phi / phi.sum())[radius:]
    out = np.empty_like(fields)
    for b in range(0, len(fields), BLUR_CHUNK):
        out[b : b + BLUR_CHUNK] = _correlate_symmetric(
            _correlate_symmetric(fields[b : b + BLUR_CHUNK], half, 1), half, 2)
    return out


def _backgrounds(modality, base, noise, cfg):
    """Backgrounds from (N, S, S) standard-normal base and noise fields."""
    if modality == "smooth":
        blur, amplitude = cfg.smooth_blur, cfg.smooth_noise
    elif modality == "sharp":
        blur, amplitude = cfg.sharp_blur, cfg.sharp_noise
    else:
        raise ConfigError(f"unknown modality {modality!r}")
    base = gaussian_blur(base, blur).reshape(len(base), -1)
    base = ((base - base.mean(axis=1, keepdims=True))
            / (base.std(axis=1, keepdims=True) + 1e-12)).reshape(noise.shape)
    img = 0.5 + cfg.contrast * base + amplitude * noise
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _draw_placement(rng, cfg, s):
    """An imprint's draws, in order: scale, rotation, top, left and offset."""
    scale = rng.uniform(cfg.scale_min, cfg.scale_max)
    theta = rng.uniform(0.0, 2 * np.pi)
    foot = int(np.ceil(cfg.sprite_size * scale * np.sqrt(2)))  # room for rotation
    if foot > s:
        raise ShapeError(f"target footprint {foot} does not fit into image of size {s}")
    top = rng.integers(0, s - foot + 1)
    left = rng.integers(0, s - foot + 1)
    return scale, theta, foot, top, left, rng.uniform(cfg.offset_min, cfg.offset_max)


def _imprint(images, polarity, placements, cfg):
    """Imprint the target sprite into the first len(placements) of the (N, S, S)
    `images`, in place, one drawn placement each: the sprite's pixels gain +u
    ("high") or -u ("low"), the placement's offset u, clamped to [0, 1]."""
    if polarity not in ("low", "high"):
        raise ConfigError(f"unknown polarity {polarity!r}")
    if not placements:
        return
    scale, theta, foot, top, left, offset = map(np.array, zip(*placements))
    # inverse-map footprint pixels into the sprite frame (nearest neighbor); the grids are
    # padded to the largest footprint, a pad too far from the centre to lie `inside`
    grid = np.arange(foot.max())
    dy = grid[None, :, None] - (foot[:, None, None] - 1) / 2.0
    dx = dy.transpose(0, 2, 1)
    sc = cfg.sprite_size / 2.0 - 0.5
    cos, sin = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    u = (cos * dy + sin * dx) / scale[:, None, None] + sc
    v = (-sin * dy + cos * dx) / scale[:, None, None] + sc
    ui, vi = np.rint(u).astype(int), np.rint(v).astype(int)
    inside = (ui >= 0) & (ui < cfg.sprite_size) & (vi >= 0) & (vi < cfg.sprite_size)
    mask = np.zeros(ui.shape, dtype=bool)
    mask[inside] = _plus_sprite(cfg.sprite_size)[ui[inside], vi[inside]]
    n, y, x = np.nonzero(mask)
    at = n, top[n] + y, left[n] + x
    # the offset in the images' dtype, as a Python float is cast onto a float32 image
    offset = (-offset if polarity == "low" else offset).astype(images.dtype)
    images[at] = np.clip(images[at] + offset[n], 0.0, 1.0)


def _make_samples(task, count, rng, cfg, id_start):
    """Balanced labeled samples for one task; exactly half are positives.

    The draws come one sample at a time: each positive's base and noise
    fields, then its placement; then every negative's fields. The
    backgrounds are then built and imprinted for the whole task at once.
    """
    modality, polarity = TASK_ATTRS[task]
    n_pos, s = count // 2, cfg.image_size
    fields = np.empty((count, 2, s, s))  # base and noise of each sample
    placements = []
    for i in range(n_pos):
        fields[i] = rng.standard_normal((2, s, s))
        placements.append(_draw_placement(rng, cfg, s))
    fields[n_pos:] = rng.standard_normal((count - n_pos, 2, s, s))
    images = _backgrounds(modality, fields[:, 0], fields[:, 1], cfg)
    _imprint(images, polarity, placements, cfg)
    labels = np.repeat(np.array([1, 0], dtype=np.uint8), (n_pos, count - n_pos))
    order = rng.permutation(count)
    ids = np.arange(id_start, id_start + count, dtype=np.int64)
    return Dataset(images[order, None], labels[order], np.full(count, task), ids)


@dataclass
class Corpus:
    """The four splits; load_corpus leaves a split it is not asked for as None."""

    base: Dataset
    continuous: Dataset
    validation: Dataset
    test: Dataset
    config: CorpusConfig
    seed: int


def build_corpus(cfg=CorpusConfig(), seed=0):
    """Deterministic {base, continuous, validation, test} corpus.

    Sample ids are disjoint across splits; labels are balanced 50/50 within
    every split/task. A corpus whose float32 pixels alone exceed physical
    memory is refused before anything is drawn.
    """
    n = cfg.base_count + sum(cfg.continuous_counts) + 6 * cfg.eval_count
    check_fits(n * cfg.image_size ** 2 * 4,
               f"the float32 pixels of --image-size {cfg.image_size}, --base-n {cfg.base_count}, "
               f"--cont-a/-b/-c {'/'.join(map(str, cfg.continuous_counts))} and --eval-n "
               f"{cfg.eval_count}")
    rng = np.random.default_rng(seed)
    next_id = 0
    splits = {}
    plan = {
        "base": {"A": cfg.base_count},
        "continuous": dict(zip(TASKS, cfg.continuous_counts)),
        "validation": {t: cfg.eval_count for t in TASKS},
        "test": {t: cfg.eval_count for t in TASKS},
    }
    for split, tasks in plan.items():
        parts = []
        for task, count in tasks.items():
            parts.append(_make_samples(task, count, rng, cfg, next_id))
            next_id += count
        splits[split] = Dataset(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.labels for p in parts]),
            np.concatenate([p.tasks for p in parts]),
            np.concatenate([p.ids for p in parts]),
        )
    return Corpus(splits["base"], splits["continuous"], splits["validation"],
                  splits["test"], cfg, seed)


# -- stream ---------------------------------------------------------------

def emit_stream(continuous, ramp_fraction, rng):
    """Order the continuous split into a stream: return the order, an int64
    index array into `continuous`, with each task's checkpoint, the last
    position of the task's pure segment.

    The segments follow the split's task counts in task order, and every
    sample is emitted exactly once. Each boundary gets a linear transition
    ramp that carves floor(ramp_fraction * min(adjacent lengths)) positions
    from each side, so expected per-task draw counts match the segment sizes;
    inside it the earlier task's carved count is placed by weighted sampling
    without replacement, its weight falling linearly across the ramp.
    """
    check_ramp_fraction(ramp_fraction)
    lengths = [int(np.sum(continuous.tasks == t)) for t in TASKS]
    if min(lengths) < 1:
        raise ConfigError(f"the continuous split has no samples of task {TASKS[lengths.index(0)]}")
    bounds = np.cumsum(lengths)
    assignment = np.repeat(np.arange(len(TASKS)), lengths)
    halves = [int(ramp_fraction * min(a, b)) for a, b in zip(lengths, lengths[1:])] + [0]
    for t_idx, half in enumerate(halves):
        if not half:  # a zero-width ramp is an abrupt shift
            continue
        down = 1.0 - (np.arange(2 * half) + 0.5) / (2 * half)
        pick = rng.choice(2 * half, size=half, replace=False, p=down / down.sum())
        window = np.full(2 * half, t_idx + 1)
        window[pick] = t_idx
        assignment[bounds[t_idx] - half : bounds[t_idx] + half] = window
    checkpoints = {task: int(end - half) - 1 for task, end, half in zip(TASKS, bounds, halves)}
    # each task's positions take its samples in shuffled order, read from the end
    order = np.empty(len(assignment), dtype=np.int64)
    for t_idx, task in enumerate(TASKS):
        order[assignment == t_idx] = rng.permutation(np.nonzero(continuous.tasks == task)[0])[::-1]
    return order, checkpoints


# -- corpus IO -------------------------------------------------------------

def save_corpus(corpus, out_dir):
    """Write one binary container per split plus a human-readable manifest.

    Split file (validation.write_container): JSON header {version,
    image_size, count, seed, config_hash, fields}, then the arrays in header
    field order (ids int64, tasks uint8 codes, labels uint8, pixels float32).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = corpus.config.config_hash()
    manifest = {
        "version": 1,
        "seed": corpus.seed,
        "config": asdict(corpus.config),
        "config_hash": cfg_hash,
        "counts": {},
    }
    for split in SPLITS:
        ds = getattr(corpus, split)
        manifest["counts"][split] = {t: int(np.sum(ds.tasks == t)) for t in TASKS}
        task_codes = np.array([TASKS.index(t) for t in ds.tasks], dtype=np.uint8)
        header = {
            "version": 1,
            "image_size": corpus.config.image_size,
            "count": len(ds),
            "seed": corpus.seed,
            "config_hash": cfg_hash,
            "fields": [{"name": name, "dtype": dt} for name, dt in CORPUS_FIELDS],
        }
        write_container(out_dir / f"{split}.dmc", CORPUS_MAGIC, header,
                        [ds.ids.astype(np.int64), task_codes, ds.labels.astype(np.uint8),
                         ds.images.astype(np.float32, copy=False)])
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _split_layout(header):
    count, s = header["count"], header["image_size"]
    shapes = {"pixels": (count, 1, s, s)}
    return [(name, shapes.get(name, (count,)), dt) for name, dt in CORPUS_FIELDS]


def _check_values(path, a):
    """Refuse a split with a value that save_corpus never writes: a task code
    that is not an index of TASKS, a label other than 0 or 1, or a pixel
    outside [0, 1], NaN included."""
    for name, low, high in (("tasks", 0, len(TASKS) - 1), ("labels", 0, 1),
                            ("pixels", 0.0, 1.0)):
        lo, hi = a[name].min(initial=low), a[name].max(initial=high)
        if not (low <= lo and hi <= high):  # a NaN fails both
            raise ConfigError(f"{path} holds {name} outside [{low}, {high}]: "
                              f"they range from {lo} to {hi}")


def load_corpus(corpus_dir, splits=SPLITS):
    """Load the named splits of a corpus written by save_corpus, validating
    each split's config hash, seed and image size against the manifest, and
    its values; the splits not named are None."""
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no corpus manifest at {manifest_path}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        cfg_dict = dict(manifest["config"])
        cfg_dict["continuous_counts"] = tuple(cfg_dict["continuous_counts"])
        cfg = CorpusConfig(**cfg_dict)
        config_hash, seed = manifest["config_hash"], manifest["seed"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path} is not a valid corpus manifest: {exc!r}") from exc
    if cfg.config_hash() != config_hash:
        raise ConfigError(f"{manifest_path}: config hash mismatch")
    loaded = dict.fromkeys(SPLITS)
    for split in splits:
        path = corpus_dir / f"{split}.dmc"
        header, a = read_container(path, CORPUS_MAGIC, "corpus container", _split_layout)
        if header.get("config_hash") != config_hash:
            raise ConfigError(f"{path} config hash differs from the manifest")
        for key, want in (("seed", seed), ("image_size", cfg.image_size)):
            if header.get(key) != want:
                raise ConfigError(f"{path} was written with {key} {header.get(key)}, but "
                                  f"{manifest_path} has {key} {want}")
        _check_values(path, a)
        loaded[split] = Dataset(a["pixels"], a["labels"], np.array(TASKS)[a["tasks"]], a["ids"])
    return Corpus(**loaded, config=cfg, seed=seed)
