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
affordable.  Every site of a query block attends to the same k * b exemplar
sites, so the links are stored once per query block and each site keeps only
its own weights; attention and warping run as batched matrix products over
query blocks.  Retrieval is hard (k block indices) while the gamma weights
stay soft, so gradients flow through the ranking level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensors import FeatureGrid, ValidationError, unit_rows
from .topk import dual_gamma

# query blocks in flight across all ranking threads; bounds peak memory at
# O(chunk * N) while the full score matrix would be O(N^2)
_CHUNK = 256
# bytes of a tile's largest float64 work array (gathered exemplar rows, the
# cosines) in attention and warp; 1 MiB stays in cache
_TILE_BYTES = 1 << 20


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


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rank_blocks(
    query: BlockFeatures,
    exemplar: BlockFeatures,
    k: int,
    lam: float = 50.0,
    iters: int = 100,
    tol: float = 1e-6,
) -> BlockRanking:
    """Retrieve the top-k exemplar blocks for every query block.

    Each query block's N cosine scores form one ranking problem, solved to
    |sum(gamma) - k| <= ``tol`` in at most ``iters`` Newton steps by
    :func:`~rankwarp.topk.dual_gamma`.  Candidates are the k largest soft
    weights, ties toward the lower block index.
    Two or more chunks of query blocks rank on min(CPUs, chunks) threads;
    rows are independent, so the output is bit-identical at any thread count.
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
    # a pool costs more than it saves below two chunks; threads share one chunk's rows
    threads = min(_cpus(), n_q // _CHUNK)
    rows = -(-_CHUNK // max(threads, 1))
    spans = [(c, min(c + rows, n_q)) for c in range(0, n_q, rows)]

    def run(span):
        c0, c1 = span
        out = _rank_chunk(query.normalized[c0:c1], exemplar.normalized, k, lam, iters, tol)
        cand[c0:c1], gam[c0:c1], mx[c0:c1], used[c0:c1], errs[c0:c1] = out

    if threads >= 2:
        with ThreadPoolExecutor(max_workers=threads) as pool:
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
    """Row-stochastic query-to-exemplar links, shared by the sites of a query block.

    Every site of query block g links to the same m <= k*b exemplar sites
    ``links[g]``, ordered by (candidate block index, within-block offset).
    ``weights`` holds each site's own m weights, in raster site order, and
    sums to 1 per row.  A per-site correspondence is the one over 1 x 1
    blocks.
    """

    partition: BlockPartition
    exemplar_sites: int
    weights: np.ndarray  # (L_q, m) float32, raster site order
    links: np.ndarray  # (N_q, m) int32, the exemplar sites of each query block

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.weights.shape[0] != self.sites:
            raise ValidationError(f"weights shape {self.weights.shape} does not match grid")
        if self.links.shape != (self.partition.block_count, self.weights.shape[1]):
            raise ValidationError(
                f"links shape {self.links.shape} does not match "
                f"{self.partition.block_count} blocks of {self.weights.shape[1]} links"
            )
        if self.links.min() < 0 or self.links.max() >= self.exemplar_sites:
            raise ValidationError("correspondence index out of range")

    @property
    def height(self) -> int:
        return self.partition.height

    @property
    def width(self) -> int:
        return self.partition.width

    @property
    def sites(self) -> int:
        return self.height * self.width

    @property
    def entry_count(self) -> int:
        """Stored weight entries, L * k * b for a ranked correspondence."""
        return self.weights.size

    def site_blocks(self) -> np.ndarray:
        """(L_q,) query block of each raster site."""
        part = self.partition
        rows = np.arange(part.height) // part.block_side * part.blocks_w
        return (rows[:, None] + np.arange(part.width) // part.block_side).reshape(-1)

    @property
    def indices(self) -> np.ndarray:
        """(L_q, m) exemplar sites of each query site, ``links`` expanded per site."""
        return self.links[self.site_blocks()]


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
    n_q = partition.block_count
    links = e_part.feature_indices()[ranking.candidates].reshape(n_q, k * b).astype(np.int32)
    weights = np.empty((n_q * b, k * b), dtype=np.float32)
    # the tile bounds both the gathered (c, k*b, d) exemplar rows and the cosines
    step = max(1, _TILE_BYTES // (k * b * max(b, query_grid.channels) * 8))
    for c0 in range(0, n_q, step):
        c1 = min(c0 + step, n_q)
        q_vec = qn[q_feat[c0:c1]]  # (c, b, d)
        e_vec = en[links[c0:c1]]  # (c, k*b, d)
        # the softmax runs in place on the cosines' own buffer
        w = np.matmul(q_vec, e_vec.transpose(0, 2, 1))
        # log-domain combination: the largest candidate gamma is never zero
        # (its column marginal is k/N), so the row max stays finite
        with np.errstate(divide="ignore"):
            log_g = np.log(ranking.gammas[c0:c1])
        w /= tau
        w += np.repeat(log_g, b, axis=1)[:, None, :]
        w -= w.max(axis=2, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=2, keepdims=True)
        # correspondence rows are raster site indices, not block-major order
        weights[q_feat[c0:c1]] = w
    return SparseCorrespondence(
        partition=partition, exemplar_sites=exemplar_grid.site_count,
        weights=weights, links=links,
    )


def warp(correspondence: SparseCorrespondence, exemplar: FeatureGrid) -> FeatureGrid:
    """Re-arrange exemplar features through the correspondence: out_q = sum w_qe * z_e.

    The sites of a query block share their links, so each block is one
    (b, m) @ (m, d) product, run as a batched GEMM over a tile of blocks.
    """
    if exemplar.site_count != correspondence.exemplar_sites:
        raise ValidationError(
            f"exemplar has {exemplar.site_count} sites, correspondence indexes "
            f"{correspondence.exemplar_sites}"
        )
    z = exemplar.vectors.astype(np.float64)
    links = correspondence.links
    sites_of = correspondence.partition.feature_indices()  # (N_q, b)
    out = np.empty((correspondence.sites, exemplar.channels))
    step = max(1, _TILE_BYTES // (links.shape[1] * exemplar.channels * 8))
    for g0 in range(0, links.shape[0], step):
        rows = sites_of[g0 : g0 + step]
        out[rows] = correspondence.weights[rows].astype(np.float64) @ z[links[g0 : g0 + step]]
    shape = (correspondence.height, correspondence.width, exemplar.channels)
    return FeatureGrid(out.reshape(shape).astype(np.float32))
