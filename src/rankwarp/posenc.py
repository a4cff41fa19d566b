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


def _ramp(idx: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # offset from the [lo, hi] center, normalized by the half-extent;
    # a degenerate extent (single row/column) maps to 0
    half = (hi - lo) / 2.0
    if half == 0.0:
        return np.zeros(idx.shape)
    return (idx - (lo + hi) / 2.0) / half


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
    labels = mask.labels
    out = np.zeros((mask.height, mask.width, 2))
    for value in np.unique(labels):
        ys, xs = np.nonzero(labels == value)
        out[ys, xs, 0] = _ramp(xs, int(xs.min()), int(xs.max()))
        out[ys, xs, 1] = _ramp(ys, int(ys.min()), int(ys.max()))
    return PositionChannels(out.astype(np.float32))


def append_position(grid: FeatureGrid, channels: PositionChannels, weight: float = 1.0) -> FeatureGrid:
    """Concatenate the two position channels (scaled by ``weight``) onto a grid."""
    if (grid.height, grid.width) != (channels.height, channels.width):
        raise ValidationError(
            f"grid {grid.height}x{grid.width} does not match channels "
            f"{channels.height}x{channels.width}"
        )
    scaled = channels.data * np.float32(weight)
    return FeatureGrid(np.concatenate([grid.data, scaled], axis=2))
