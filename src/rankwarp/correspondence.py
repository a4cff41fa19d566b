"""Bi-level sparse correspondence between two feature grids.

Level one ranks exemplar blocks: both grids are partitioned into s x s blocks
(b = s^2 features each), block vectors are the b member features concatenated
in raster order and L2-normalized, and each query block retrieves the top-k
exemplar blocks by cosine similarity through the soft top-k, solved exactly
through its scalar dual.  Level two runs dense attention inside the retrieved
blocks only: query feature q gets weight gamma_block * exp(cos(q, e) / tau) on
each exemplar feature e of a retrieved block, renormalized per row.

The result is a row-stochastic L x L correspondence with at most k * b stored
entries per row instead of L, which is what makes warping large grids
affordable.  Retrieval is hard (k block indices) while the gamma weights stay
soft, so gradients flow through the ranking level.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensors import FeatureGrid, ValidationError, unit_rows
from .topk import dual_gamma

# chunk of query blocks ranked per solver sweep; bounds peak memory at
# O(chunk * N) while the full score matrix would be O(N^2)
_CHUNK = 256
# query sites warped per tile: a 1024 x d float64 output tile stays in cache
_WARP_ROWS = 1024


@dataclass(frozen=True)
class BlockPartition:
    """Geometry of an s x s block tiling of an H x W grid."""

    height: int
    width: int
    block_side: int

    def __post_init__(self) -> None:
        s = self.block_side
        if s < 1:
            raise ValidationError("block_side must be positive")
        if self.height % s or self.width % s:
            raise ValidationError(
                f"grid {self.height}x{self.width} not divisible by block side {s}"
            )

    @property
    def blocks_h(self) -> int:
        return self.height // self.block_side

    @property
    def blocks_w(self) -> int:
        return self.width // self.block_side

    @property
    def block_count(self) -> int:
        return self.blocks_h * self.blocks_w

    @property
    def block_area(self) -> int:
        """Features per block, b = s^2."""
        return self.block_side * self.block_side

    def feature_indices(self) -> np.ndarray:
        """(N, b) global feature indices of each block, raster order within the block."""
        s = self.block_side
        idx = np.arange(self.height * self.width).reshape(self.height, self.width)
        tiles = idx.reshape(self.blocks_h, s, self.blocks_w, s)
        return tiles.transpose(0, 2, 1, 3).reshape(self.block_count, self.block_area)


@dataclass(frozen=True)
class BlockFeatures:
    """Unit-norm concatenated per-block feature vectors."""

    partition: BlockPartition
    normalized: np.ndarray  # (N, b*d) float64, unit rows of the raster concatenation


def partition_blocks(grid: FeatureGrid, block_side: int) -> tuple[BlockPartition, BlockFeatures]:
    """Tile ``grid`` into s x s blocks and build the concatenated block vectors."""
    part = BlockPartition(grid.height, grid.width, block_side)
    s = block_side
    tiles = grid.data.reshape(part.blocks_h, s, part.blocks_w, s, grid.channels)
    vectors = tiles.transpose(0, 2, 1, 3, 4).reshape(part.block_count, s * s * grid.channels)
    return part, BlockFeatures(partition=part, normalized=unit_rows(vectors.astype(np.float64)))


@dataclass(frozen=True)
class BlockRanking:
    """Per-query-block retrieval: candidate exemplar blocks and their soft weights.

    ``candidates[i]`` holds the k exemplar block indices with the largest
    gamma for query block i, in ascending index order; ``gammas`` aligns with
    it.  ``max_scores`` is the peak cosine over all exemplar blocks, kept for
    the confidence map.
    """

    partition: BlockPartition
    exemplar_blocks: int
    k: int
    candidates: np.ndarray  # (N_q, k) int32, ascending per row
    gammas: np.ndarray  # (N_q, k) float64
    max_scores: np.ndarray  # (N_q,) float64
    iterations: np.ndarray  # (N_q,) int, Newton steps of the dual solve
    marginal_errors: np.ndarray  # (N_q,) float64, |sum(gamma) - k| over all exemplar blocks
    scored_pairs: int


def _rank_chunk(qn, en, k, lam, iters, tol):
    scores = qn @ en.T
    gamma, used, errs = dual_gamma(scores, k, lam, iters, tol)
    order = np.argsort(-gamma, axis=1, kind="stable")[:, :k]
    cand = np.sort(order, axis=1).astype(np.int32)
    g = np.take_along_axis(gamma, cand, axis=1)
    return cand, g, scores.max(axis=1), used, errs


def rank_blocks(
    query: BlockFeatures,
    exemplar: BlockFeatures,
    k: int,
    lam: float = 50.0,
    iters: int = 100,
    tol: float = 1e-6,
    workers: int = 0,
) -> BlockRanking:
    """Retrieve the top-k exemplar blocks for every query block.

    Each query block's N cosine scores form one ranking problem, solved to
    |sum(gamma) - k| <= ``tol`` in at most ``iters`` Newton steps by
    :func:`~rankwarp.topk.dual_gamma`.  Candidates are the k largest soft
    weights, ties toward the lower block index.
    ``workers`` > 1 ranks chunks of query blocks in parallel; the output is
    bit-identical at any worker count because chunks are independent.
    """
    if query.normalized.shape[1] != exemplar.normalized.shape[1]:
        raise ValidationError(
            f"block dims differ: {query.normalized.shape[1]} vs {exemplar.normalized.shape[1]}"
        )
    n_q = query.partition.block_count
    n_e = exemplar.partition.block_count
    if not 1 <= k <= n_e:
        raise ValidationError(f"k={k} out of range for {n_e} exemplar blocks")
    cand = np.empty((n_q, k), dtype=np.int32)
    gam = np.empty((n_q, k))
    mx = np.empty(n_q)
    used = np.empty(n_q, dtype=int)
    errs = np.empty(n_q)
    spans = [(c, min(c + _CHUNK, n_q)) for c in range(0, n_q, _CHUNK)]

    def run(span):
        c0, c1 = span
        out = _rank_chunk(query.normalized[c0:c1], exemplar.normalized, k, lam, iters, tol)
        cand[c0:c1], gam[c0:c1], mx[c0:c1], used[c0:c1], errs[c0:c1] = out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))
    else:
        for span in spans:
            run(span)
    return BlockRanking(
        partition=query.partition, exemplar_blocks=n_e, k=k, candidates=cand,
        gammas=gam, max_scores=mx, iterations=used, marginal_errors=errs,
        scored_pairs=n_q * n_e,
    )


@dataclass(frozen=True)
class SparseCorrespondence:
    """Row-stochastic query-to-exemplar links with uniform row width.

    ``indices`` is (L_q, m) with m <= k*b entries per query feature, ordered
    by (candidate block index, within-block offset); ``weights`` aligns with
    it and sums to 1 per row.
    """

    height: int
    width: int
    exemplar_sites: int
    weights: np.ndarray  # (L_q, m) float32
    indices: np.ndarray  # (L_q, m) int32

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.weights.shape[0] != self.height * self.width:
            raise ValidationError(f"weights shape {self.weights.shape} does not match grid")
        if self.indices.shape != self.weights.shape:
            raise ValidationError("indices and weights shapes differ")
        if self.indices.min() < 0 or self.indices.max() >= self.exemplar_sites:
            raise ValidationError("correspondence index out of range")

    @property
    def sites(self) -> int:
        return self.height * self.width

    @property
    def entry_count(self) -> int:
        """Stored weight entries, L * k * b for a ranked correspondence."""
        return self.weights.size


def block_attention(
    partition: BlockPartition,
    query_grid: FeatureGrid,
    exemplar_grid: FeatureGrid,
    ranking: BlockRanking,
    tau: float,
) -> SparseCorrespondence:
    """Dense attention from each query feature to the features of its retrieved blocks.

    Raw weight on exemplar feature e in candidate block j is
    gamma_j * exp(cos(x_q, z_e) / tau); rows are renormalized to sum 1.
    Candidate features are enumerated in fixed (block index, offset) order,
    so outputs are deterministic.
    """
    if tau <= 0:
        raise ValidationError("tau must be positive")
    if ranking.partition != partition:
        raise ValidationError("ranking was built over a different partition")
    if (query_grid.height, query_grid.width) != (partition.height, partition.width):
        raise ValidationError("query grid does not match the partition")
    e_part = BlockPartition(exemplar_grid.height, exemplar_grid.width, partition.block_side)
    if e_part.block_count != ranking.exemplar_blocks:
        raise ValidationError("exemplar grid does not match the ranking")
    if query_grid.channels != exemplar_grid.channels:
        raise ValidationError("channel counts differ")

    b = partition.block_area
    k = ranking.k
    qn = unit_rows(query_grid.vectors.astype(np.float64))
    en = unit_rows(exemplar_grid.vectors.astype(np.float64))
    q_feat = partition.feature_indices()  # (N_q, b)
    e_feat = e_part.feature_indices()  # (N_e, b)
    n_q = partition.block_count
    indices = np.empty((n_q * b, k * b), dtype=np.int32)
    weights = np.empty((n_q * b, k * b), dtype=np.float32)
    for c0 in range(0, n_q, _CHUNK):
        c1 = min(c0 + _CHUNK, n_q)
        cand_feat = e_feat[ranking.candidates[c0:c1]].reshape(c1 - c0, k * b)
        q_vec = qn[q_feat[c0:c1]]  # (c, b, d)
        e_vec = en[cand_feat]  # (c, k*b, d)
        # the softmax runs in place on the cosines' own buffer
        w = np.einsum("cbd,ced->cbe", q_vec, e_vec)
        # log-domain combination: the largest candidate gamma is never zero
        # (its column marginal is k/N), so the row max stays finite
        with np.errstate(divide="ignore"):
            log_g = np.log(ranking.gammas[c0:c1])
        w /= tau
        w += np.repeat(log_g, b, axis=1)[:, None, :]
        w -= w.max(axis=2, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=2, keepdims=True)
        # correspondence rows are raster site indices, not block-major order;
        # a block's sites share its candidates
        rows = q_feat[c0:c1]  # (c, b)
        indices[rows] = cand_feat[:, None, :]
        weights[rows] = w
    return SparseCorrespondence(
        height=partition.height, width=partition.width,
        exemplar_sites=exemplar_grid.site_count, weights=weights, indices=indices,
    )


def warp(correspondence: SparseCorrespondence, exemplar: FeatureGrid) -> FeatureGrid:
    """Re-arrange exemplar features through the correspondence: out_q = sum w_qe * z_e."""
    if exemplar.site_count != correspondence.exemplar_sites:
        raise ValidationError(
            f"exemplar has {exemplar.site_count} sites, correspondence indexes "
            f"{correspondence.exemplar_sites}"
        )
    z = exemplar.vectors.astype(np.float64)
    out = np.empty((correspondence.sites, exemplar.channels))
    linked = np.empty((min(_WARP_ROWS, correspondence.sites), exemplar.channels))
    # rows in tiles whose output stays in cache; each row's sum runs in the
    # same order as over the whole grid, so the bytes do not depend on the tile
    for r0 in range(0, correspondence.sites, _WARP_ROWS):
        rows = slice(r0, r0 + _WARP_ROWS)
        w = correspondence.weights[rows]
        idx = correspondence.indices[rows]
        if exemplar.channels == 1:
            # one channel: a plain row reduction, summed pairwise by numpy
            out[rows, 0] = (z[idx, 0] * w.astype(np.float64)).sum(axis=1)
        else:
            # one column of links at a time, in the order a (L, m, d) sum over
            # axis 1 adds them, without materializing the (L, m, d) gather;
            # indices are in range by construction, so "clip" never clips
            tile = out[rows]
            z_j = linked[: tile.shape[0]]
            np.take(z, idx[:, 0], axis=0, out=tile, mode="clip")
            tile *= w[:, :1]
            for j in range(1, w.shape[1]):
                np.take(z, idx[:, j], axis=0, out=z_j, mode="clip")
                z_j *= w[:, j : j + 1]
                tile += z_j
    shape = (correspondence.height, correspondence.width, exemplar.channels)
    return FeatureGrid(out.reshape(shape).astype(np.float32))
