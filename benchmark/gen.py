"""Seeded input generator for the benchmark workloads.

Run as its own process (``python3 benchmark/gen.py --workload W --seed N
--out DIR``) so that the benchmark's set-up time covers what a user's process
pays before a job: starting the interpreter, importing numpy and rankwarp,
generating the inputs and writing them as FTN1 files.

Every pair has a known answer.  The exemplar is the conditional with whole
units (24x24-site regions for ``attend-coarse``, 2x2 blocks for the
``topk-grad`` pair) moved by a seeded permutation, plus uniform noise of at
most ``NOISE`` per element.  A share of the conditional's blocks are left
unmatched: their destination in the exemplar holds fresh content instead.
The truth (true source block and site per query block and site, and which
blocks are matched) goes to ``truth.npz``, which only the benchmark reads.

``topk-grad`` ranking problems are the block-cosine rows of one fixed pair
with 2x2 blocks.  They do not depend on ``--seed``: the workload keeps a
known solver fault counted as failures, and the failed share has to repeat
exactly from run to run.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import rankwarp.cli  # noqa: E402,F401  (the import a user's job pays for)
from rankwarp.tensors import FeatureGrid, LabelMask, write_tensor  # noqa: E402

from reference import block_cosines, block_of, block_sites  # noqa: E402

# grid side, channels, block side, region side (None: blocks move one by one);
# for topk-grad, the shape of the fixed pair its problems come from
SHAPES = {
    "attend-coarse": (96, 32, 8, 24),
    "topk-grad": (40, 16, 2, None),
}
NOISE = 0.01
UNMATCHED_SHARE = 0.2
# topk-grad: a fixed pair, a fixed set of rows and a fixed upstream gradient
TOPK_SEED = 20240
TOPK_PROBLEMS = 128


def make_pair(seed: int, size: int, depth: int, block: int, region: int | None) -> dict:
    """Conditional, exemplar, optional region mask and the known correspondence."""
    rng = np.random.default_rng([seed, size, depth, block])
    unit = region or block
    cond = rng.standard_normal((size, size, depth)).astype(np.float32)
    units = size // unit
    perm = rng.permutation(units * units)  # conditional unit u lands at exemplar unit perm[u]
    src_site = np.empty((size, size), dtype=np.int64)
    exem = np.empty_like(cond)
    noise = rng.uniform(-NOISE, NOISE, cond.shape).astype(np.float32)
    for u, v in enumerate(perm):
        uy, ux = divmod(u, units)
        vy, vx = divmod(int(v), units)
        qs = np.s_[uy * unit:(uy + 1) * unit, ux * unit:(ux + 1) * unit]
        es = np.s_[vy * unit:(vy + 1) * unit, vx * unit:(vx + 1) * unit]
        exem[es] = cond[qs] + noise[es]
        ys, xs = np.mgrid[es[0], es[1]]
        src_site[qs] = ys * size + xs

    src_site = src_site.reshape(-1)
    blocks = size // block
    q_block_sites = block_sites(size, block)
    src_block = block_of(src_site[q_block_sites[:, 0]], size, block)
    unmatched = rng.choice(blocks * blocks, int(UNMATCHED_SHARE * blocks * blocks), replace=False)
    matched = np.ones(blocks * blocks, dtype=bool)
    matched[unmatched] = False
    flat = exem.reshape(size * size, depth)
    for q in unmatched:
        flat[src_site[q_block_sites[q]]] = rng.standard_normal((block * block, depth))
    pair = {
        "cond": cond,
        "exem": flat.reshape(size, size, depth),
        "src_site": src_site,
        "src_block": src_block,
        "matched": matched,
        "block": block,
    }
    if region is not None:
        labels = np.arange(units * units, dtype=np.uint32).reshape(units, units)
        pair["mask"] = np.repeat(np.repeat(labels, region, axis=0), region, axis=1)
    return pair


def topk_problems(pair: dict) -> dict:
    """The fixed topk-grad set: score rows of the pair and one upstream gradient per row."""
    scores = block_cosines(pair["cond"], pair["exem"], pair["block"])
    rng = np.random.default_rng(TOPK_SEED)
    rows = np.sort(rng.choice(scores.shape[0], TOPK_PROBLEMS, replace=False))
    return {"scores": scores[rows], "upstream": rng.standard_normal((TOPK_PROBLEMS, scores.shape[1]))}


def write_inputs(workload: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "topk-grad":
        pair = make_pair(TOPK_SEED, *SHAPES["topk-grad"])
        np.savez(os.path.join(out, "problems.npz"), **topk_problems(pair))
    else:
        pair = make_pair(seed, *SHAPES[workload])
    write_tensor(FeatureGrid(pair["cond"]), os.path.join(out, "cond.ftn"))
    write_tensor(FeatureGrid(pair["exem"]), os.path.join(out, "exem.ftn"))
    if "mask" in pair:
        write_tensor(LabelMask(pair["mask"]), os.path.join(out, "mask.ftn"))
    np.savez(
        os.path.join(out, "truth.npz"),
        **{key: pair[key] for key in ("src_site", "src_block", "matched", "block")},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
