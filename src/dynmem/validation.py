"""Input validation helpers, the package's exception types and the binary
container that checkpoints and corpus splits are written in."""
from __future__ import annotations

import json
import math
import operator
import os

import numpy as np


class ShapeError(ValueError):
    """Array shapes are inconsistent with what an operation requires."""


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


class StateError(RuntimeError):
    """An operation was called in a state that forbids it."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def check_fits(nbytes, what):
    """Refuse `nbytes` that alone exceed physical memory: ConfigError naming
    `what` and both byte counts. Where os.sysconf cannot tell, accept."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < total < nbytes:
        raise ConfigError(f"{what} need {nbytes:,} bytes, more than the {total:,} bytes "
                          f"of physical memory")


def check_images(X, image_size=None, name="X"):
    """Validate a batch of single-channel images, returning (N, 1, S, S) float array.

    Accepts (N, 1, S, S) or a single (1, S, S) image.
    """
    X = np.asarray(X)
    if X.ndim == 3:
        X = X[None]
    if X.ndim != 4 or X.shape[1] != 1:
        raise ShapeError(f"{name} must have shape (N, 1, S, S), got {X.shape}")
    if X.shape[2] != X.shape[3]:
        raise ShapeError(f"{name} images must be square, got {X.shape}")
    if image_size is not None and X.shape[2] != image_size:
        raise ShapeError(
            f"{name} image size {X.shape[2]} does not match the configured size {image_size}"
        )
    return X


def check_labels(y, n=None, name="y"):
    """Validate binary labels, returning a flat int array of 0/1."""
    y = np.asarray(y).reshape(-1)
    bad = y[(y != 0) & (y != 1)]
    if bad.size:
        raise ConfigError(f"{name} must contain only 0/1 labels, got {bad.tolist()[0]!r}")
    y = y.astype(np.int64)
    if n is not None and y.shape[0] != n:
        raise ShapeError(f"{name} has {y.shape[0]} labels for {n} samples")
    return y


def write_container(path, magic, header, arrays):
    """Write magic, the 8-byte little-endian length of the JSON header line,
    the header itself, then each array's raw row-major bytes in order."""
    blob = json.dumps(header, sort_keys=True).encode() + b"\n"
    with open(path, "wb") as f:
        f.write(magic)
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        for a in arrays:
            f.write(np.ascontiguousarray(a).tobytes())


def read_container(path, magic, what, layout):
    """Read a file written by write_container. layout(header) lists the
    arrays as (name, shape, dtype) in file order. Returns (header, arrays).

    Each array is read straight into its own array, once the arrays' byte
    counts are known to fill the rest of the file exactly: a foreign,
    truncated or over-long file, or a header that is not the expected JSON,
    raises ConfigError naming the path.
    """
    with open(path, "rb") as f:
        def take(n_bytes, field):
            chunk = f.read(n_bytes)
            if len(chunk) != n_bytes:
                raise ConfigError(f"{path} is truncated: {field} needs {n_bytes} bytes, "
                                  f"{len(chunk)} remain")
            return chunk

        if f.read(len(magic)) != magic:
            raise ConfigError(f"{path} is not a {what}")
        raw_header = take(int.from_bytes(take(8, "header length"), "little"), "header")
        try:
            header = json.loads(raw_header)
            specs = [(name, tuple(map(operator.index, shape)), np.dtype(dt))
                     for name, shape, dt in layout(header)]
            if len({name for name, _, _ in specs}) < len(specs):
                raise ValueError("an array name repeats")
            if any(min(shape, default=0) < 0 or dt.hasobject for _, shape, dt in specs):
                raise ValueError("an array has a negative dimension or an object dtype")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path} has a malformed header: {exc}") from None
        need = sum(math.prod(shape) * dt.itemsize for _, shape, dt in specs)
        remain = os.fstat(f.fileno()).st_size - f.tell()
        if need > remain:
            raise ConfigError(f"{path} is truncated: its arrays need {need} bytes, "
                              f"{remain} remain")
        if need < remain:
            raise ConfigError(f"{path} has bytes past its last array")
        arrays = {name: np.fromfile(f, dt, math.prod(shape)).reshape(shape)
                  for name, shape, dt in specs}
    return header, arrays
