"""Confidence-weighted fusion of conditional and warped-exemplar features.

A query block's confidence is the peak cosine between its block vector and
every exemplar block, clamped to [0, 1]: anti-correlation means the match is
unreliable, not negatively reliable.  The block-level map is upsampled to the
pixel grid by nearest neighbor and blended convexly per site:

    fused = conditional * (1 - c) + warped * c

so c = 0 keeps the conditional input bit-exactly and c = 1 keeps the warped
exemplar bit-exactly.  A multi-channel variant accepts one confidence plane
per feature channel (produced elsewhere); with every plane equal it reduces
exactly to the single-channel blend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import BlockRanking
from .tensors import FeatureGrid, ValidationError


def _freeze_unit_range(a: np.ndarray, what: str) -> np.ndarray:
    a = np.ascontiguousarray(a.astype(np.float32, copy=False))
    if a.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.isfinite(a).all() or a.min() < 0.0 or a.max() > 1.0:
        raise ValidationError(f"{what} values must lie in [0, 1]")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ConfidenceMap:
    """blocks_h x blocks_w confidence values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.data).ndim != 2:
            raise ValidationError("confidence map must be 2-D")
        object.__setattr__(self, "data", _freeze_unit_range(np.asarray(self.data), "confidence"))

    @property
    def blocks_h(self) -> int:
        return self.data.shape[0]

    @property
    def blocks_w(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiChannelMap:
    """Per-channel confidence planes, C x blocks_h x blocks_w in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.data).ndim != 3:
            raise ValidationError("multi-channel map must be C x Hb x Wb")
        object.__setattr__(self, "data", _freeze_unit_range(np.asarray(self.data), "confidence"))

    @property
    def channels(self) -> int:
        return self.data.shape[0]


def confidence_map(ranking: BlockRanking) -> ConfidenceMap:
    """Peak block correlation per query block, clamped to [0, 1]."""
    part = ranking.partition
    values = np.clip(ranking.max_scores, 0.0, 1.0)
    return ConfidenceMap(values.reshape(part.blocks_h, part.blocks_w).astype(np.float32))


def _blend(conditional: FeatureGrid, warped: FeatureGrid, planes: np.ndarray) -> FeatureGrid:
    """Blend per site with a (C or 1, Hb, Wb) stack upsampled by nearest neighbor."""
    if conditional.data.shape != warped.data.shape:
        raise ValidationError("conditional and warped grids must share a shape")
    _, bh, bw = planes.shape
    height, width = conditional.height, conditional.width
    if height % bh or width % bw:
        raise ValidationError(f"cannot upsample {bh}x{bw} map to {height}x{width}")
    c = np.repeat(np.repeat(planes.astype(np.float64), height // bh, axis=1), width // bw, axis=2)
    c = np.moveaxis(c, 0, 2)  # (H, W, C or 1), broadcast over the channels
    x = conditional.data.astype(np.float64)
    w = warped.data.astype(np.float64)
    # float64 blend, rounded once: keeps every output inside [min, max] of the
    # inputs after the float32 cast, and the c = 0 / c = 1 cases bit-exact
    return FeatureGrid((x * (1.0 - c) + w * c).astype(np.float32))


def fuse(conditional: FeatureGrid, warped: FeatureGrid, cmap: ConfidenceMap) -> FeatureGrid:
    """Blend per site: conditional * (1 - c) + warped * c, c from the covering block."""
    return _blend(conditional, warped, cmap.data[None])


def fuse_multichannel(
    conditional: FeatureGrid, warped: FeatureGrid, mmap: MultiChannelMap
) -> FeatureGrid:
    """Per-channel blend; a map with identical planes reduces to :func:`fuse` exactly."""
    if mmap.channels != conditional.channels:
        raise ValidationError(
            f"map has {mmap.channels} channels, grids have {conditional.channels}"
        )
    return _blend(conditional, warped, mmap.data)
