"""Checks of one warp-and-fuse job's output files against the known answer.

Everything is recomputed from the input files with the benchmark's own
readers and references (see ``reference.py``); nothing is compared with a
stored copy of an earlier output.
"""

from __future__ import annotations

import os

import numpy as np

from reference import block_cosines, block_of, block_sites, hard_topk, kth_gap, read_ftn

CSV_HEADER = "query_index,exemplar_index,weight"
# where the k-th and (k+1)-th block cosines differ by more than this, the
# retrieved blocks must be the hard top-k; below it, float32 features may
# legitimately swap the two
GAP_MARGIN = 1e-4
# mean |warped - conditional| over matched sites.  Attention leaks weight to
# the other sites of the retrieved blocks: about 0.006 at 2x2 blocks, and
# about 0.07 at 8x8 blocks with region coordinates, where neighbouring sites
# share nearly equal position channels.  Unrelated sites would give about 1.1.
MEAN_WARP_TOLERANCE = {2: 0.02, 8: 0.15}
# float32 rounding of a float64 result, with room for a different summation order
ULP_TOLERANCE = 1e-6


def load_inputs(inputs: str) -> dict:
    """Input grids, optional mask and truth of one generated pair, as the benchmark reads them."""
    data = {
        "cond": read_ftn(os.path.join(inputs, "cond.ftn")),
        "exem": read_ftn(os.path.join(inputs, "exem.ftn")),
        "mask": None,
    }
    mask_path = os.path.join(inputs, "mask.ftn")
    if os.path.exists(mask_path):
        data["mask"] = read_ftn(mask_path)
    with np.load(os.path.join(inputs, "truth.npz")) as truth:
        data.update({key: truth[key] for key in truth.files})
    data["block"] = int(data["block"])
    data["scores"] = block_cosines(data["cond"], data["exem"], data["block"], data["mask"])
    return data


def check_warp_job(pair: dict, out: str, k: int) -> list[str]:
    """Every violated property of the files in ``out``, as readable messages."""
    cond, exem, block = pair["cond"], pair["exem"], pair["block"]
    size, depth = cond.shape[0], cond.shape[2]
    sites_total, width = size * size, k * block * block
    with open(os.path.join(out, "correspondence.csv")) as fh:
        header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        return [f"correspondence header {header!r}"]
    table = np.loadtxt(os.path.join(out, "correspondence.csv"), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (sites_total * width, 3):
        return [f"correspondence has {table.shape[0]} entries, expected {sites_total} rows of {width}"]
    errors = []
    query = table[:, 0].astype(np.int64)
    links = table[:, 1].astype(np.int64).reshape(sites_total, width)
    weights = table[:, 2].astype(np.float32).reshape(sites_total, width)
    if not np.array_equal(query, np.repeat(np.arange(sites_total), width)):
        errors.append("correspondence rows are not k*b entries per query site in site order")
    if links.min() < 0 or links.max() >= sites_total:
        return errors + ["exemplar index out of range"]
    if weights.min() < 0.0 or weights.max() > 1.0:
        errors.append("weight outside [0, 1]")
    row_error = float(np.abs(weights.astype(np.float64).sum(axis=1) - 1.0).max())
    if row_error > 1e-5:
        errors.append(f"a correspondence row sums to 1 +- {row_error:.2e}")

    # retrieval: every site of a query block lists the same k whole blocks
    sites = block_sites(size, block)
    rows = links[sites[:, 0]]
    if not np.array_equal(links[sites], np.repeat(rows[:, None, :], block * block, axis=1)):
        errors.append("sites of one query block link to different exemplar sites")
    candidates = block_of(rows[:, :: block * block], size, block)
    if not np.array_equal(rows, sites[candidates].reshape(rows.shape)) or np.any(np.diff(candidates, axis=1) <= 0):
        errors.append("a row is not k distinct whole blocks in ascending order")
    matched = pair["matched"].astype(bool)
    hits = (candidates == pair["src_block"][:, None]).any(axis=1)
    if not hits[matched].all():
        errors.append(f"{int((~hits[matched]).sum())} matched query blocks miss their true source block")
    sure = kth_gap(pair["scores"], k) > GAP_MARGIN
    wrong = (candidates != hard_topk(pair["scores"], k)).any(axis=1) & sure
    if wrong.any():
        errors.append(f"{int(wrong.sum())} query blocks with a clear k-th gap retrieve other than the hard top-k")

    matched_sites = sites[matched].reshape(-1)
    strongest = links[matched_sites, weights[matched_sites].argmax(axis=1)]
    if not np.array_equal(strongest, pair["src_site"][matched_sites]):
        errors.append("a matched site's largest weight is not on its true source site")

    warped = read_ftn(os.path.join(out, "warped.ftn"))
    errors += _check_warped(warped, links, weights, exem)
    mean_error = float(np.abs(warped.reshape(-1, depth)[matched_sites] - cond.reshape(-1, depth)[matched_sites]).mean())
    if mean_error > MEAN_WARP_TOLERANCE[block]:
        errors.append(f"matched sites warp to the conditional within {mean_error:.3f} on average")

    cmap = read_ftn(os.path.join(out, "cmap.ftn"))
    blocks = size // block
    expected = np.clip(pair["scores"].max(axis=1), 0.0, 1.0).reshape(blocks, blocks)
    if cmap.shape != (blocks, blocks, 1) or cmap.min() < 0.0 or cmap.max() > 1.0:
        return errors + ["confidence map has the wrong shape or leaves [0, 1]"]
    if np.abs(cmap[:, :, 0] - expected).max() > 1e-5:
        errors.append("confidence is not the clamped peak block cosine")
    c = np.repeat(np.repeat(cmap.astype(np.float64), block, axis=0), block, axis=1)
    blend = cond.astype(np.float64) * (1.0 - c) + warped.astype(np.float64) * c
    fused = read_ftn(os.path.join(out, "fused.ftn"))
    if fused.shape != cond.shape or np.abs(fused - blend).max() > ULP_TOLERANCE * max(1.0, np.abs(blend).max()):
        errors.append("fused grid is not the convex blend of the conditional and warped grids")
    return errors


def _check_warped(warped: np.ndarray, links: np.ndarray, weights: np.ndarray, exem: np.ndarray) -> list[str]:
    if warped.shape != exem.shape:
        return [f"warped grid has shape {warped.shape}, expected {exem.shape}"]
    z = exem.reshape(-1, exem.shape[2]).astype(np.float64)
    flat = warped.reshape(-1, exem.shape[2])
    worst = 0.0
    for c0 in range(0, links.shape[0], 1024):
        w = weights[c0:c0 + 1024].astype(np.float64)
        ref = np.einsum("lm,lmd->ld", w, z[links[c0:c0 + 1024]])
        worst = max(worst, float((np.abs(flat[c0:c0 + 1024] - ref) / np.maximum(1.0, np.abs(ref))).max()))
    if worst > ULP_TOLERANCE:
        return [f"warped grid differs from sum(w * z) of the correspondence by {worst:.2e}"]
    return []
