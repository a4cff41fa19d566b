"""Coordinate channels: global ramps and per-region semantic position encoding.

The vanilla encoding lays one coordinate frame over the whole image, with x
and y running linearly from -1 to +1.  The semantic encoding gives every
labeled region its own frame: the origin sits at the center of the region's
bounding box and offsets are normalized by the box's half-extent per axis, so
congruent regions carry identical coordinates no matter where they sit in the
image.  Both encodings share one ramp helper, which makes the single-region
semantic encoding equal the vanilla ramp bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .tensors import FeatureGrid, LabelMask, ValidationError


class PositionChannels(FeatureGrid):
    """H x W x 2 grid of (x_offset, y_offset), all values in [-1, 1]."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.channels != 2:
            raise ValidationError(f"position channels must be H x W x 2, got {self.data.shape}")
        if np.abs(self.data).max() > 1.0:
            raise ValidationError("position values must lie in [-1, 1]")


def _ramp(idx: np.ndarray, lo, hi) -> np.ndarray:
    # offset from the [lo, hi] center, normalized by the half-extent; lo and
    # hi may be per-site arrays.  A degenerate extent (single row/column)
    # maps to 0: idx is then the center, and 0 / 1 is 0
    half = (hi - lo) / 2.0
    return (idx - (lo + hi) / 2.0) / np.where(half == 0.0, 1.0, half)


def vanilla_pe(height: int, width: int) -> PositionChannels:
    """One coordinate frame over the whole grid, each axis linear from -1 to +1."""
    if height < 1 or width < 1:
        raise ValidationError("grid dims must be positive")
    out = np.zeros((height, width, 2))
    out[:, :, 0] = _ramp(np.arange(width), 0, width - 1)[None, :]
    out[:, :, 1] = _ramp(np.arange(height), 0, height - 1)[:, None]
    return PositionChannels(out.astype(np.float32))


def semantic_pe(mask: LabelMask) -> PositionChannels:
    """A dedicated coordinate frame per labeled region.

    For each distinct label, the origin is the center of the region's
    bounding box and offsets are scaled by the box half-extent per axis, so
    extreme sites of the box reach exactly +-1.  Sites of different regions
    never interact; disconnected sites sharing a label count as one region.
    """
    # one sort groups the sites by label
    labels = mask.labels.reshape(-1)
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    first = np.r_[True, grouped[1:] != grouped[:-1]]
    starts = np.flatnonzero(first)
    region = np.cumsum(first) - 1  # of each sorted site
    ys, xs = np.divmod(order, mask.width)

    def extent(idx):  # each site's region's lowest and highest idx
        return np.minimum.reduceat(idx, starts)[region], np.maximum.reduceat(idx, starts)[region]

    out = np.empty((labels.size, 2))
    out[order, 0] = _ramp(xs, *extent(xs))
    out[order, 1] = _ramp(ys, *extent(ys))
    return PositionChannels(out.reshape(mask.height, mask.width, 2).astype(np.float32))


def append_position(grid: FeatureGrid, channels: PositionChannels, weight: float = 1.0) -> FeatureGrid:
    """Concatenate the two position channels (scaled by ``weight``) onto a grid."""
    if (grid.height, grid.width) != (channels.height, channels.width):
        raise ValidationError(
            f"grid {grid.height}x{grid.width} does not match channels "
            f"{channels.height}x{channels.width}"
        )
    scaled = channels.data * np.float32(weight)
    return FeatureGrid(np.concatenate([grid.data, scaled], axis=2))
