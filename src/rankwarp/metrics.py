"""Training-free alignment metrics and the memory-complexity benchmark.

The cycle loss asks whether the exemplar is recoverable from its own warp:
with T the row-stochastic correspondence, it measures ``|T' (T Z) - Z|`` per
element, where T' is the transposed correspondence with rows renormalized so
the reverse map is also an average.  The consistency loss is a plain mean
absolute difference between two feature grids.

The benchmark builds the ranked sparse correspondence and the dense
all-pairs baseline, which exists only as its reference point, over seeded
random grids of increasing size and records stored entries, ranking scores,
peak allocation during construction (traced allocator, not process RSS),
wall time, and the warp gap between the two methods.  Stored
entries must equal L*k*b (ranked) and L^2 (dense) exactly; peak allocation is
what demonstrates the linear-versus-quadratic memory behavior.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .correspondence import (
    _TILE_BYTES, BlockPartition, SparseCorrespondence, block_attention, partition_blocks, rank_blocks,
    warp,
)
from .tensors import FeatureGrid, ValidationError, unit_rows

CSV_HEADER = "method,L,b,k,entries,ranking_scores,peak_bytes,ms,warp_l1"


@dataclass(frozen=True)
class BenchRecord:
    method: str  # "dense" or "ras"
    sites: int  # L
    block_area: int  # b
    k: int
    entries: int
    ranking_scores: int
    peak_bytes: int
    ms: float
    warp_l1: float

    def csv_row(self) -> str:
        return (
            f"{self.method},{self.sites},{self.block_area},{self.k},"
            f"{self.entries},{self.ranking_scores},{self.peak_bytes},"
            f"{self.ms:.3f},{self.warp_l1:.8e}"
        )


def consistency_loss(features_a: FeatureGrid, features_b: FeatureGrid) -> float:
    """Mean absolute element difference between two same-shape grids."""
    if features_a.data.shape != features_b.data.shape:
        raise ValidationError(
            f"shapes differ: {features_a.data.shape} vs {features_b.data.shape}"
        )
    a = features_a.data.astype(np.float64)
    b = features_b.data.astype(np.float64)
    return float(np.abs(a - b).mean())


def cycle_loss(correspondence: SparseCorrespondence, exemplar: FeatureGrid) -> float:
    """Mean absolute error of the round trip exemplar -> warp -> reverse warp.

    The reverse map transposes the stored links and renormalizes each
    exemplar feature's row to sum 1; exemplar features never referenced by
    any query reconstruct to the zero vector.
    """
    warped = warp(correspondence, exemplar).vectors.astype(np.float64)
    z = exemplar.vectors.astype(np.float64)
    l_e, d = z.shape
    links = correspondence.links
    sites_of = correspondence.partition.feature_indices()  # (N_q, b)
    mass = np.zeros(l_e)
    num = np.zeros((l_e, d))
    # the transposed scatter runs per query block, whose sites share its
    # links: the block's weight column sums go to the mass and W_g' @ warped_g
    # to the numerator, a tile of blocks per bincount
    step = max(1, _TILE_BYTES // (links.shape[1] * max(d, sites_of.shape[1]) * 8))
    for g0 in range(0, links.shape[0], step):
        rows = sites_of[g0 : g0 + step]
        w = correspondence.weights[rows].astype(np.float64)  # (t, b, m)
        idx = links[g0 : g0 + step].reshape(-1)
        mass += np.bincount(idx, weights=w.sum(axis=1).reshape(-1), minlength=l_e)
        prod = np.matmul(w.transpose(0, 2, 1), warped[rows])  # (t, m, d)
        for c in range(d):
            num[:, c] += np.bincount(idx, weights=prod[:, :, c].reshape(-1), minlength=l_e)
    recon = np.divide(num, mass[:, None], out=np.zeros_like(num), where=mass[:, None] > 0)
    return float(np.abs(recon - z).mean())


def dense_correspondence_baseline(
    query_grid: FeatureGrid, exemplar_grid: FeatureGrid, tau: float
) -> np.ndarray:
    """(L_q, L_e) float32 softmax-over-cosine rows; the accuracy and memory reference point."""
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if query_grid.channels != exemplar_grid.channels:
        raise ValidationError("channel counts differ")
    qn = unit_rows(query_grid.vectors.astype(np.float64))
    en = unit_rows(exemplar_grid.vectors.astype(np.float64))
    l_q, l_e = qn.shape[0], en.shape[0]
    weights = np.empty((l_q, l_e), dtype=np.float32)
    chunk = max(1, 2**16 // l_e)
    for c0 in range(0, l_q, chunk):
        c1 = min(c0 + chunk, l_q)
        t = (qn[c0:c1] @ en.T) / tau
        t -= t.max(axis=1, keepdims=True)
        w = np.exp(t)
        w /= w.sum(axis=1, keepdims=True)
        weights[c0:c1] = w.astype(np.float32)
    return weights


def dense_warp(weights: np.ndarray, exemplar: FeatureGrid) -> np.ndarray:
    """(L_q, d) float32 warp through dense rows: out_q = sum_e w_qe * z_e."""
    if weights.shape[1] != exemplar.site_count:
        raise ValidationError(
            f"exemplar has {exemplar.site_count} sites, dense rows span {weights.shape[1]}"
        )
    z = exemplar.vectors.astype(np.float64)
    out = np.empty((weights.shape[0], exemplar.channels))
    chunk = max(1, 2**20 // weights.shape[1])
    for c0 in range(0, weights.shape[0], chunk):
        out[c0:c0 + chunk] = weights[c0:c0 + chunk].astype(np.float64) @ z
    return out.astype(np.float32)


def _traced(builder, repetitions: int) -> tuple[object, int, float]:
    """Time ``builder`` untraced, then trace one more build; returns (result, peak, median ms).

    The tracing allocator slows allocation-heavy builds by a varying amount,
    so it runs only for the build that measures the peak.  With no
    repetitions only the traced build runs and the median is NaN.
    """
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        builder()
        times.append((time.perf_counter() - t0) * 1000.0)
    tracemalloc.start()
    try:
        result = builder()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, float(np.median(times)) if times else math.nan


def run_bench(
    sizes: list[tuple[int, int, int]],
    block_side: int = 2,
    k: int = 3,
    tau: float = 0.07,
    lam: float = 50.0,
    repetitions: int = 1,
    seed: int = 0,
) -> list[BenchRecord]:
    """Benchmark dense and ranked correspondence construction per grid size.

    Feature grids are seeded uniform random in [-1, 1], so every run sees the
    same inputs.  A dense-baseline allocation failure is recorded as a zeroed
    row rather than aborting the sweep.  ``repetitions`` = 0 skips the timed
    builds and leaves ``ms`` NaN; peaks and counts are unchanged.
    """
    block_area = block_side * block_side
    # a size that does not tile, or has fewer than k blocks, fails before any build
    for height, width, _ in sizes:
        blocks = BlockPartition(height, width, block_side).block_count
        if k % 1 or not 1 <= k <= blocks:
            raise ValidationError(f"k={k} is not a whole count in 1..{blocks} blocks of {height}x{width}")
    records = []
    for height, width, depth in sizes:
        rng = np.random.default_rng([seed, height, width, depth])
        cond = FeatureGrid(rng.uniform(-1.0, 1.0, (height, width, depth)).astype(np.float32))
        exem = FeatureGrid(rng.uniform(-1.0, 1.0, (height, width, depth)).astype(np.float32))
        sites = height * width

        try:
            dense, dense_peak, dense_ms = _traced(
                lambda: dense_correspondence_baseline(cond, exem, tau), repetitions
            )
        except MemoryError:
            dense = None
            records.append(BenchRecord("dense", sites, block_area, k, 0, 0, 0, 0.0, math.nan))

        def build_ras():
            blocks = [partition_blocks(grid, block_side) for grid in (cond, exem)]
            ranking = rank_blocks(*blocks, k, lam=lam)
            return ranking, block_attention(cond, exem, ranking, tau)

        (ranking, ras), ras_peak, ras_ms = _traced(build_ras, repetitions)

        if dense is not None:
            gap = float(np.abs(
                dense_warp(dense, exem).astype(np.float64)
                - warp(ras, exem).vectors.astype(np.float64)
            ).mean())
            records.append(BenchRecord(
                "dense", sites, block_area, k, dense.size, 0,
                dense_peak, dense_ms, 0.0,
            ))
        else:
            gap = math.nan
        records.append(BenchRecord(
            "ras", sites, block_area, k, ras.entry_count, ranking.scored_pairs,
            ras_peak, ras_ms, gap,
        ))
    return records


def render_csv(records: list[BenchRecord]) -> str:
    """CSV text for a record list, header line included."""
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
