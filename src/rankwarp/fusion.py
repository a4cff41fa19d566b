"""Confidence-weighted fusion of conditional and warped-exemplar features.

A query block's confidence is the peak cosine between its block vector and
every exemplar block, clamped to [0, 1]: anti-correlation means the match is
unreliable, not negatively reliable.  A confidence map is a feature grid of
blocks_h x blocks_w x planes values in [0, 1], in the tensor file's layout;
:func:`confidence_map` builds one plane.  The map is upsampled to the pixel
grid by nearest neighbor and blended convexly per site:

    fused = conditional * (1 - c) + warped * c

so c = 0 keeps the conditional input bit-exactly and c = 1 keeps the warped
exemplar bit-exactly.  A map with one plane per feature channel (produced
elsewhere) blends each channel by its own plane; with every plane equal it
reduces exactly to the one-plane blend.
"""

from __future__ import annotations

import numpy as np

from .correspondence import BlockRanking
from .tensors import FeatureGrid, ValidationError


class ConfidenceMap(FeatureGrid):
    """blocks_h x blocks_w x planes confidence values in [0, 1]."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ValidationError("confidence values must lie in [0, 1]")


def confidence_map(ranking: BlockRanking) -> ConfidenceMap:
    """Peak block correlation per query block, clamped to [0, 1], as one plane."""
    part = ranking.partition
    values = np.clip(ranking.max_scores, 0.0, 1.0)
    return ConfidenceMap(values.reshape(part.blocks_h, part.blocks_w, 1).astype(np.float32))


def _blend(conditional: FeatureGrid, warped: FeatureGrid, cmap: ConfidenceMap) -> FeatureGrid:
    """Blend per site with the map upsampled by nearest neighbor, broadcast over the channels."""
    if conditional.data.shape != warped.data.shape:
        raise ValidationError("conditional and warped grids must share a shape")
    bh, bw = cmap.height, cmap.width
    height, width = conditional.height, conditional.width
    if height % bh or width % bw:
        raise ValidationError(f"cannot upsample {bh}x{bw} map to {height}x{width}")
    c = np.repeat(np.repeat(cmap.data.astype(np.float64), height // bh, axis=0), width // bw, axis=1)
    x = conditional.data.astype(np.float64)
    w = warped.data.astype(np.float64)
    # float64 blend, rounded once: keeps every output inside [min, max] of the
    # inputs after the float32 cast, and the c = 0 / c = 1 cases bit-exact
    return FeatureGrid((x * (1.0 - c) + w * c).astype(np.float32))


def fuse(conditional: FeatureGrid, warped: FeatureGrid, cmap: ConfidenceMap) -> FeatureGrid:
    """Blend per site: conditional * (1 - c) + warped * c, c from the covering block."""
    if cmap.channels != 1:
        raise ValidationError(f"map has {cmap.channels} planes, expected 1")
    return _blend(conditional, warped, cmap)


def fuse_multichannel(
    conditional: FeatureGrid, warped: FeatureGrid, cmap: ConfidenceMap
) -> FeatureGrid:
    """Per-channel blend; a map with identical planes reduces to :func:`fuse` exactly."""
    if cmap.channels != conditional.channels:
        raise ValidationError(
            f"map has {cmap.channels} channels, grids have {conditional.channels}"
        )
    return _blend(conditional, warped, cmap)
