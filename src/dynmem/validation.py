"""Input validation helpers, the package's exception types and the binary
container that checkpoints and corpus splits are written in."""
from __future__ import annotations

import json
import math
import operator
import os
import weakref

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


class FileArray:
    """A read-only array that stays in its file, read by rows of its first axis.

    Indexing with an int array, a slice or a boolean mask reads only the rows
    it names, and np.asarray reads them all. Each run of consecutive rows is
    one os.preadv at its own offset, so processes forked with the descriptor
    read at once without sharing a file position. Every read passes
    `check(values)` before it is returned; a file that has shrunk since it was
    opened is refused as truncated. close(), or dropping the array, closes the
    descriptor.
    """

    def __init__(self, path, fd, offset, shape, dtype, check):
        self.path, self.shape, self.dtype = path, shape, dtype
        self._fd, self._offset, self._check = fd, offset, check
        self._row_bytes = math.prod(shape[1:]) * dtype.itemsize
        self.close = weakref.finalize(self, os.close, fd)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index):
        rows = np.arange(len(self))[index]  # numpy's rules and bounds checks for the index
        out = np.empty(rows.shape + self.shape[1:], self.dtype)
        rows, buf = rows.reshape(-1), out.reshape(-1).view(np.uint8)
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)  # the first row of each run
        for first, stop in zip(starts, [*starts[1:], len(rows)]):
            self._read_into(buf[first * self._row_bytes : stop * self._row_bytes],
                            self._offset + int(rows[first]) * self._row_bytes)
        self._check(out)
        return out

    def __array__(self, dtype=None, copy=None):
        """The whole array, read afresh: every read is a new array, whatever `copy` asks."""
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)

    def _read_into(self, buf, offset):
        if not self.close.alive:  # its descriptor's number may name another file by now
            raise StateError(f"{self.path} was read after its FileArray was closed")
        while buf.size:
            got = os.preadv(self._fd, [buf], offset)
            if not got:
                raise ConfigError(f"{self.path} is truncated: a read at byte {offset} needs "
                                  f"{buf.size} more bytes, which the file no longer holds")
            buf, offset = buf[got:], offset + got


def read_container(path, magic, what, layout, in_file=None):
    """Read a file written by write_container. layout(header) lists the
    arrays as (name, shape, dtype) in file order. Returns (header, arrays).

    Each array is read straight into its own array, once the arrays' byte
    counts are known to fill the rest of the file exactly: a foreign,
    truncated or over-long file, or a header that is not the expected JSON,
    raises ConfigError naming the path. An array named in `in_file`, a dict
    of name -> check, stays in the file: it is a FileArray on a descriptor of
    its own, whose every read passes check(values).
    """
    in_file = in_file or {}
    with open(path, "rb") as f:
        def left():
            return os.fstat(f.fileno()).st_size - f.tell()

        def take(n_bytes, field):  # compared with the file first, so no length is trusted
            if n_bytes > left():
                raise ConfigError(f"{path} is truncated: {field} needs {n_bytes} bytes, "
                                  f"{left()} remain")
            return f.read(n_bytes)

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
        need, remain = sum(math.prod(shape) * dt.itemsize for _, shape, dt in specs), left()
        if need > remain:
            raise ConfigError(f"{path} is truncated: its arrays need {need} bytes, "
                              f"{remain} remain")
        if need < remain:
            raise ConfigError(f"{path} has bytes past its last array")
        arrays, offset = {}, f.tell()
        for name, shape, dt in specs:
            if name in in_file:
                arrays[name] = FileArray(path, os.dup(f.fileno()), offset, shape, dt,
                                         in_file[name])
            else:
                f.seek(offset)
                arrays[name] = np.fromfile(f, dt, math.prod(shape)).reshape(shape)
            offset += math.prod(shape) * dt.itemsize
    return header, arrays
