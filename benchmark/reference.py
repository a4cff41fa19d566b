"""Independent references the benchmark checks the program against.

Nothing here imports rankwarp.  The exact soft top-k comes from the scalar
dual of the two-point transport problem: with supports {-1, +1} and squared
costs, the entropic plan gives gamma_i = sigmoid(4 * lam * a_i + t), where t
is the one root of sum(gamma) = k.  t is found by bisection, and the gradient
of u . gamma with respect to the scores follows from the implicit function
theorem: 4 * lam * (s * u - s * (s . u) / sum(s)) with s = gamma * (1 - gamma).
"""

from __future__ import annotations

import struct

import numpy as np

_BISECTIONS = 100  # the bracket is under 8 * lam + 80 wide; 2**-100 of it is far below eps


def problem_scores(scores) -> np.ndarray:
    """Scores as a ranking problem holds them: clamped to [-1, 1], stored as float32."""
    return np.clip(np.asarray(scores, dtype=np.float64), -1.0, 1.0).astype(np.float32).astype(np.float64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def exact_gamma(scores, k: int, lam: float) -> np.ndarray:
    """Exact soft top-k weights of each row of ``scores`` (float64, rows sum to k)."""
    z = 4.0 * lam * np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n = z.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for N={n}")
    if k == n:
        return np.ones_like(z)
    # sum(gamma) < k at lo and > k at hi: every logit sits below -40 or above +40
    lo = -z.max(axis=1) - 40.0
    hi = -z.min(axis=1) + 40.0
    for _ in range(_BISECTIONS):
        t = 0.5 * (lo + hi)
        below = _sigmoid(z + t[:, None]).sum(axis=1) < k
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    return _sigmoid(z + (0.5 * (lo + hi))[:, None])


def exact_gradient(gamma: np.ndarray, upstream: np.ndarray, lam: float) -> np.ndarray:
    """d (upstream . gamma) / d scores at the exact solution ``gamma``, row by row."""
    g = np.atleast_2d(np.asarray(gamma, dtype=np.float64))
    u = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    s = g * (1.0 - g)
    total = s.sum(axis=1, keepdims=True)
    coupling = np.divide((s * u).sum(axis=1, keepdims=True), total, out=np.zeros_like(total), where=total > 0)
    return 4.0 * lam * (s * u - s * coupling)


def hard_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) indices of the k largest scores per row, ascending."""
    return np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :k], axis=1)


def kth_gap(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k-th largest score minus the (k+1)-th (inf when k == N)."""
    if k >= scores.shape[1]:
        return np.full(scores.shape[0], np.inf)
    part = -np.partition(-scores, (k - 1, k), axis=1)
    return part[:, k - 1] - part[:, k]


def read_ftn(path) -> np.ndarray:
    """Read an FTN1 file (float32 rank-3 or uint32 rank-2) straight from its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, code, ndim = struct.unpack_from("<4sBB", raw)
    if magic != b"FTN1" or (code, ndim) not in ((1, 3), (2, 2)):
        raise ValueError(f"{path}: not an FTN1 grid or mask")
    dims = struct.unpack_from(f"<{ndim}I", raw, 6)
    dtype = "<f4" if code == 1 else "<u4"
    count = int(np.prod(dims))
    if len(raw) != 6 + 4 * ndim + 4 * count:
        raise ValueError(f"{path}: payload length does not match dims {dims}")
    return np.frombuffer(raw, dtype, count=count, offset=6 + 4 * ndim).reshape(dims)


def unit_rows(v) -> np.ndarray:
    """Rows (last axis) scaled to unit L2 norm in float64; rows at or below 1e-8 become zero."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(norms > 1e-8, v / np.where(norms > 1e-8, norms, 1.0), 0.0)


def block_sites(size: int, block: int) -> np.ndarray:
    """(blocks, block * block) raster site indices of each block, blocks in raster order."""
    idx = np.arange(size * size).reshape(size // block, block, size // block, block)
    return idx.transpose(0, 2, 1, 3).reshape(-1, block * block)


def block_of(sites: np.ndarray, size: int, block: int) -> np.ndarray:
    """Raster block index of each raster site index."""
    return sites // size // block * (size // block) + sites % size // block


def region_coordinates(mask: np.ndarray) -> np.ndarray:
    """Per-label (x, y) offsets from the bounding-box centre, scaled to [-1, 1]."""
    out = np.zeros(mask.shape + (2,))
    for value in np.unique(mask):
        ys, xs = np.nonzero(mask == value)
        for axis, idx in ((0, xs), (1, ys)):
            lo, hi = idx.min(), idx.max()
            out[ys, xs, axis] = 0.0 if hi == lo else (idx - (lo + hi) / 2.0) / ((hi - lo) / 2.0)
    return out


def block_cosines(cond, exem, block: int, mask=None) -> np.ndarray:
    """Query-by-exemplar block cosine matrix, in float64 from the raw square grids.

    Sites are l2-normalized; with a mask, both grids get the per-region
    coordinate channels of that one mask, as ``rankwarp warp --mask`` does.
    """
    q, e = unit_rows(cond), unit_rows(exem)
    if mask is not None:
        pe = region_coordinates(np.asarray(mask))
        q, e = np.concatenate([q, pe], axis=2), np.concatenate([e, pe], axis=2)
    sites = block_sites(q.shape[0], block)
    qb = unit_rows(q.reshape(-1, q.shape[2])[sites].reshape(sites.shape[0], -1))
    eb = unit_rows(e.reshape(-1, e.shape[2])[sites].reshape(sites.shape[0], -1))
    return qb @ eb.T
