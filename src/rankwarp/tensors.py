"""Core grid types and the FTN1 binary tensor format.

Feature grids are H x W x d float32 arrays (one feature vector per spatial
site), label masks are H x W uint32 arrays (one region label per site).  Both
travel between processes in a single deterministic binary format so that
every CLI run is byte-reproducible:

    magic "FTN1" | dtype code (1 byte) | ndim (1 byte) | dims (ndim x u32 LE)
    | payload (row-major, little-endian)

dtype code 1 is float32 (ndim must be 3, a feature grid), dtype code 2 is
uint32 (ndim must be 2, a label mask).  Files are rejected on bad magic,
unknown dtype, wrong rank, payload length mismatch, or non-finite floats,
each with a :class:`TensorFormatError` that names the failure.

Every file a command writes goes through :func:`publish`, so while one
command at a time writes a path, its name only ever holds a complete file:
the new one appears there by rename.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

MAGIC = b"FTN1"
DTYPE_FLOAT32 = 1
DTYPE_UINT32 = 2

_HEADER = struct.Struct("<4sBB")


class TensorFormatError(ValueError):
    """Malformed FTN1 file; the message names the failure."""


class ValidationError(ValueError):
    """Shape or argument contract violation, distinct from file-format errors."""


def _freeze(a: np.ndarray) -> np.ndarray:
    # grids are shared across worker threads; a read-only buffer makes the
    # immutability contract enforceable rather than aspirational
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureGrid:
    """H x W x d grid of float32 feature vectors, immutable after construction."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data)
        if a.ndim != 3:
            raise ValidationError(f"feature grid must be H x W x d, got shape {a.shape}")
        if any(s < 1 for s in a.shape):
            raise ValidationError(f"feature grid dims must be positive, got {a.shape}")
        a = a.astype(np.float32, copy=False)
        if not np.isfinite(a).all():
            raise ValidationError("feature grid contains NaN or Inf")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def site_count(self) -> int:
        """Number of spatial sites L = H * W."""
        return self.height * self.width

    @property
    def vectors(self) -> np.ndarray:
        """The grid flattened to (L, d), raster order."""
        return self.data.reshape(self.site_count, self.channels)


@dataclass(frozen=True)
class LabelMask:
    """H x W grid of uint32 region labels, immutable after construction."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.labels)
        if a.ndim != 2:
            raise ValidationError(f"label mask must be H x W, got shape {a.shape}")
        if any(s < 1 for s in a.shape):
            raise ValidationError(f"label mask dims must be positive, got {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValidationError(f"label mask must be integer-typed, got {a.dtype}")
        if a.min() < 0:
            raise ValidationError("label mask values must be nonnegative")
        if a.max() > np.iinfo(np.uint32).max:  # astype would wrap it onto another label
            raise ValidationError(f"label mask values must fit in uint32, got {a.max()}")
        object.__setattr__(self, "labels", _freeze(a.astype(np.uint32, copy=False)))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@contextmanager
def publish(path):
    """Yield a binary handle whose bytes replace ``path`` once the block completes.

    A regular file at ``path`` is opened without truncation, renamed to the
    hidden sibling ``.<name>.partial``, written over in place, cut to its new
    length and renamed back; a missing one is created under that scratch
    name.  The old inode and its cached pages are reused, where truncating
    or replacing the file would free them first.  Until the rename back the
    name holds nothing, and a failed write unlinks the scratch, so the name
    never holds a partial or mixed file, provided one writer at a time
    publishes ``path``.  Two at once share the scratch name: one can rename
    the other's half-written file into place, and the other's rename back
    then fails.  Anything else at ``path`` (a symlink, a device) is written
    through with ``open(path, "wb")`` and never renamed.
    """
    path = os.fspath(path)
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as fh:
            yield fh
        return
    head, name = os.path.split(path)
    scratch = os.path.join(head, f".{name}.partial")
    # opened before the rename, so that a refused open leaves the old file in place
    fd = os.open(scratch if old is None else path, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW, 0o666)
    try:
        with open(fd, "wb") as fh:
            if old is not None:
                os.replace(path, scratch)
            yield fh
            fh.truncate()
        os.replace(scratch, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(scratch)
        raise


def write_tensor(grid: FeatureGrid | LabelMask, path) -> None:
    """Write a grid or mask to ``path`` in the FTN1 layout, bit-exactly.

    The same grid written twice produces byte-identical files.
    """
    if isinstance(grid, FeatureGrid):
        code, dims = DTYPE_FLOAT32, grid.data.shape
        payload = grid.data.astype("<f4", copy=False)
        if not np.isfinite(payload).all():  # defensive; construction already checks
            raise ValidationError("refusing to write non-finite feature grid")
    elif isinstance(grid, LabelMask):
        code, dims = DTYPE_UINT32, grid.labels.shape
        payload = grid.labels.astype("<u4", copy=False)
    else:
        raise ValidationError(f"cannot serialize {type(grid).__name__}")
    with publish(path) as fh:
        fh.write(_HEADER.pack(MAGIC, code, len(dims)))
        fh.write(np.asarray(dims, dtype="<u4").tobytes())
        fh.write(payload.tobytes())


def read_tensor(path) -> FeatureGrid | LabelMask:
    """Read an FTN1 file back into a :class:`FeatureGrid` or :class:`LabelMask`.

    Raises :class:`TensorFormatError` on bad magic, unknown dtype code,
    unsupported rank, payload length mismatch, or non-finite float payload.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TensorFormatError(f"{path}: file shorter than header")
    magic, code, ndim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {magic!r}")
    if code not in (DTYPE_FLOAT32, DTYPE_UINT32):
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    dims_end = _HEADER.size + 4 * ndim
    if len(raw) < dims_end:
        raise TensorFormatError(f"{path}: truncated dims")
    dims = tuple(int(x) for x in np.frombuffer(raw, "<u4", count=ndim, offset=_HEADER.size))
    if code == DTYPE_FLOAT32 and ndim != 3:
        raise TensorFormatError(f"{path}: float payload must be rank 3, got {ndim}")
    if code == DTYPE_UINT32 and ndim != 2:
        raise TensorFormatError(f"{path}: uint payload must be rank 2, got {ndim}")
    count = math.prod(dims)
    expected = dims_end + 4 * count
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: payload is {len(raw) - dims_end} bytes, expected {4 * count}"
        )
    if code == DTYPE_FLOAT32:
        data = np.frombuffer(raw, "<f4", count=count, offset=dims_end).reshape(dims)
        if not np.isfinite(data).all():
            raise TensorFormatError(f"{path}: payload contains NaN or Inf")
        return FeatureGrid(data.astype(np.float32))
    data = np.frombuffer(raw, "<u4", count=count, offset=dims_end).reshape(dims)
    return LabelMask(data.astype(np.uint32))


def unit_rows(v: np.ndarray, epsilon: float = 1e-8) -> np.ndarray:
    """Scale each vector along the last axis of ``v`` to unit L2 norm.

    Vectors whose norm is at or below ``epsilon`` collapse to zero outright,
    which keeps the operation idempotent instead of drifting near the guard
    scale.
    """
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return np.where(norms > epsilon, v / np.where(norms > epsilon, norms, 1.0), 0.0)


def l2_normalize_features(grid: FeatureGrid, epsilon: float = 1e-8) -> FeatureGrid:
    """Scale each site's feature vector to unit L2 norm.

    Zero vectors stay zero: the norm is guarded by ``epsilon`` instead of
    dividing by zero.  Idempotent within 1e-6.
    """
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    return FeatureGrid(unit_rows(grid.data.astype(np.float64), epsilon).astype(np.float32))
