"""Command-line surface: warp, topk, gradcheck, spe, fuse, bench.

Every command is deterministic for fixed arguments and inputs: rerunning
produces byte-identical output files.  The benchmark's wall-time and
traced-peak columns are the unavoidable exceptions; every content column is
reproduced exactly.  File I/O uses the FTN1 tensor format throughout.

Exit codes: 0 success, 2 argument error, 3 I/O error, 4 shape or validation
error (including malformed tensor files), 5 check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import correspondence
from .correspondence import SparseCorrespondence, block_attention, partition_blocks, rank_blocks, warp
from .fusion import ConfidenceMap, MultiChannelMap, confidence_map, fuse, fuse_multichannel
from .metrics import render_csv, run_bench
from .posenc import append_position, semantic_pe
from .tensors import (
    FeatureGrid,
    LabelMask,
    TensorFormatError,
    ValidationError,
    l2_normalize_features,
    read_tensor,
    write_tensor,
)
from .topk import EXACT_TOLERANCE, TopKProblem, dual_gamma_vjp, finite_difference_gradient, soft_topk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_CHECK = 5


@dataclass(frozen=True)
class RunConfig:
    """Pipeline defaults; every knob has a matching CLI flag."""

    block_side: int = 2
    k: int = 3
    lam: float = 50.0
    max_iters: int = 100
    tolerance: float = 1e-6
    tau: float = 0.07
    spe_weight: float = 1.0
    seed: int = 0


_DEFAULTS = RunConfig()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _read_grid(path: str) -> FeatureGrid:
    grid = read_tensor(path)
    if not isinstance(grid, FeatureGrid):
        raise ValidationError(f"{path}: expected a feature grid, found a label mask")
    return grid


def _read_mask(path: str) -> LabelMask:
    mask = read_tensor(path)
    if not isinstance(mask, LabelMask):
        raise ValidationError(f"{path}: expected a label mask, found a feature grid")
    return mask


# CSV entries formatted per chunk; bounds the writer's peak at O(chunk) beside
# the links' exemplar fields, and keeps a chunk's line matrix (40 bytes a line
# for 4-digit indices) in cache
_CSV_CHUNK_ENTRIES = 1 << 14

# The CSV is built as a row-major byte matrix, one line per row, whose fields
# sit at fixed columns with NUL padding; dropping every NUL byte leaves the
# text.  A line is the query's digits right-aligned after NUL padding, a
# comma, the exemplar's digits right-aligned, then three 8-byte words of
# weight: a right-aligned head with its comma, the fraction digits and a
# left-aligned tail.  The bytes of a full-width line form two runs, which is
# what the NUL drop pays for.


def _quad_tables() -> np.ndarray:
    """ASCII of the 4-digit groups 0..9999 in four tables, one uint32 per group.

    The tables print a group with leading zeros as NUL and 0 as all NUL (a
    group above every digit), with leading zeros as NUL (the lowest group),
    zero-padded (a group below a nonzero one) and with trailing zeros as NUL
    (a fraction, which %g strips).  Each is the 100 x 100 grid of two-digit
    pairs with some digits cleared.
    """
    pairs = (np.arange(100) // np.array([[10], [1]]) % 10 + ord("0")).astype(np.uint8)
    pairs = pairs.T.copy().view(np.uint16)[:, 0]
    quads = np.empty((4, 100, 100, 2), dtype=np.uint16)
    quads[..., 0] = pairs[:, None]
    quads[..., 1] = pairs
    digits = quads.view(np.uint8).reshape(4, 10**4, 4)
    for j in range(4):
        digits[:2, : 10 ** (3 - j), j] = 0  # leading zeros
        digits[3, :: 10 ** (4 - j), j] = 0  # trailing zeros
    digits[1, 0, 3] = ord("0")  # the lowest group prints 0 as one digit
    return digits.view(np.uint32)[..., 0]


_QUADS = _quad_tables()
_GROUPS, _STRIPPED = _QUADS[:3], _QUADS[3]
# first four fraction digits: zero-padded, or stripped when the last four are 0
_FRAC_HIGH = _QUADS[2:].reshape(-1)
# a weight w in [1e-14, 1) prints as head, 8 fraction digits and tail; with
# X = floor(log10 w), both are indexed by (X, first digit, fraction is 0):
# the head is "0." and -X-1 zeros then the digit for X >= -4, else "d." (or
# "d" before an empty fraction), and the tail "e-XX" for X < -4
_EXPONENTS = range(-14, 0)
_HEADS = np.frombuffer(b"".join(
    (f",0.{'0' * (-x - 1)}{d}" if x >= -4 else f",{d}{'' if zero else '.'}").encode().rjust(8, b"\0")
    for x in _EXPONENTS for d in range(10) for zero in (False, True)
), np.uint64)
_TAILS = np.frombuffer(b"".join(
    ("\n" if x >= -4 else f"e-{-x:02d}\n").encode().ljust(8, b"\0")
    for x in _EXPONENTS for d in range(10) for zero in (False, True)
), np.uint64)
# 10**(8 - X) by X - _EXPONENTS[0]; each is exact in float64, so w * 10**(8 - X)
# is rounded once
_SCALES = 10.0 ** (8 - np.array(_EXPONENTS))


def _digit_groups(slots: np.ndarray, values: np.ndarray) -> None:
    """Fill ``slots`` (n, g) with ints in [0, 10**(4 g)), right-aligned, leading zeros as NUL."""
    groups = slots.shape[1]
    rest = values
    for g in range(groups - 1, 0, -1):
        rest, quad = np.divmod(rest, 10**4)
        slots[:, g] = _GROUPS[np.where(rest > 0, 2, int(g == groups - 1)), quad]
    slots[:, 0] = _GROUPS[int(groups == 1), rest]


def _weight_words(words: np.ndarray, w: np.ndarray) -> None:
    """Fill ``words`` (n, 3) with ``","``, ``f"{float(w):.9g}"`` and a newline, for float32 weights.

    Weights in [1e-14, 1) are rounded to 9 significant digits from the float64
    product w * 10**(8 - X), with X = floor(log10 w).  The product carries
    one rounding error of at most 2**-53 relative, far inside the 1e-6 guard
    around halfway cases.  Zero, values outside that range and near-halfway
    rows go through Python's own formatter, so every row matches it byte for
    byte.  The arithmetic runs in place, in float64 and then intp.
    """
    w64 = w.astype(np.float64)
    plain = w64 >= 1e-14
    plain &= w64 < 1.0
    np.putmask(w64, ~plain, 1e-8)  # keeps every product finite
    exp = np.log10(w64)
    np.floor(exp, out=exp)
    x = exp.astype(np.intp)
    x -= _EXPONENTS[0]
    np.clip(x, 0, len(_EXPONENTS) - 1, out=x)
    scaled = np.take(_SCALES, x)
    scaled *= w64
    mant = np.rint(scaled)
    # a mantissa outside [1e8, 1e9) means log10 or the rounding crossed a
    # power of ten; such rows and near-halfway rows fall back
    scaled -= mant
    np.abs(scaled, out=scaled)
    plain &= scaled < 0.5 - 1e-6
    plain &= mant >= 1e8
    plain &= mant < 1e9
    np.putmask(mant, ~plain, 1e8)
    frac = mant.astype(np.intp)
    lead = frac // 10**8
    frac -= lead * 10**8
    high = frac // 10**4
    low = frac - high * 10**4
    # the (X, first digit, fraction is 0) index of head and tail
    x *= 20
    x += lead
    x += lead
    x += frac == 0
    words[:, 0] = np.take(_HEADS, x)
    words[:, 2] = np.take(_TAILS, x)
    high += (low == 0) * 10**4
    fraction = words[:, 1:2].view(np.uint32)
    fraction[:, 0] = np.take(_FRAC_HIGH, high)
    fraction[:, 1] = np.take(_STRIPPED, low)
    fallback = np.flatnonzero(~plain)
    if fallback.size:  # a float32 prints in at most 15 bytes
        text = b"".join(f",{float(v):.9g}\n".encode().ljust(24, b"\0") for v in w[fallback])
        words[fallback] = np.frombuffer(text, np.uint64).reshape(-1, 3)


def _emit(fh, lines: np.ndarray) -> None:
    """Drop the NUL bytes of a line matrix and write the text."""
    text = lines.view(np.uint8).reshape(-1)
    fh.write(text[text != 0])


def _write_correspondence_csv(path: str, corr: SparseCorrespondence) -> None:
    """Write the ``q,e,w`` lines of a ranked correspondence, w as ``%.9g`` of the float32 weight.

    Each chunk of whole query rows is formatted into a line matrix, then
    emitted: its NUL bytes are dropped and the text written in one call.  A
    row's exemplar indices are its block's links.  With two or more CPUs and
    chunks, one worker thread emits chunk i, first in first out, while this
    thread formats chunk i + 1 into the other of two buffers; the NUL drop
    and the write release the GIL.  Otherwise the emits run inline.
    """
    sites, m = corr.weights.shape
    blocks = corr.site_blocks()
    q_groups = -(-len(str(sites - 1)) // 4)
    e_groups = -(-len(str(corr.exemplar_sites - 1)) // 4)
    # NUL padding before the query puts the exemplar on 4-byte and the
    # weight on 8-byte columns
    pad = -(4 * (q_groups + e_groups) + 1) % 8
    e0 = (pad + 4 * q_groups + 1) // 4  # first exemplar slot
    w0 = (e0 + e_groups) // 2  # first weight word
    # the sites of a block share its links, so each block's exemplar fields
    # are formatted once
    exemplar = np.empty((corr.links.size, e_groups), dtype=np.uint32)
    _digit_groups(exemplar, corr.links.reshape(-1))
    exemplar = exemplar.reshape(*corr.links.shape, e_groups)
    rows_per_chunk = max(1, _CSV_CHUNK_ENTRIES // m)
    starts = range(0, sites, rows_per_chunk)
    threaded = correspondence._cpus() >= 2 and len(starts) >= 2
    # a buffer is formatted again only once its emit has finished; reusing
    # them spares faulting in fresh pages for every chunk
    buffers = [
        np.empty((min(rows_per_chunk, sites) * m, w0 + 3), dtype=np.uint64)
        for _ in range(1 + threaded)
    ]

    def format_chunk(lines: np.ndarray, r0: int, r1: int) -> np.ndarray:
        lines = lines[: (r1 - r0) * m]
        slots = lines.view(np.uint32)
        # the padded query and its comma, once per row, then on its m lines
        query = np.zeros((r1 - r0, e0), dtype=np.uint32)
        digits = np.empty((r1 - r0, q_groups), dtype=np.uint32)
        _digit_groups(digits, np.arange(r0, r1))
        query_bytes = query.view(np.uint8)
        query_bytes[:, pad : pad + 4 * q_groups] = digits.view(np.uint8)
        query_bytes[:, -1] = ord(",")
        for j in range(e0):
            slots[:, j].reshape(r1 - r0, m)[:] = query[:, j : j + 1]
        slots[:, e0 : 2 * w0].reshape(r1 - r0, m, e_groups)[:] = exemplar[blocks[r0:r1]]
        _weight_words(lines[:, w0:], corr.weights[r0:r1].reshape(-1))
        return lines

    # leaving the pool's block joins the worker, also on an error, before
    # the file closes
    with open(path, "wb") as fh, (
        ThreadPoolExecutor(max_workers=1) if threaded else nullcontext()
    ) as pool:
        fh.write(b"query_index,exemplar_index,weight\n")
        pending = []
        for i, r0 in enumerate(starts):
            if len(pending) == len(buffers):
                pending.pop(0).result()
            lines = format_chunk(buffers[i % len(buffers)], r0, min(r0 + rows_per_chunk, sites))
            if pool is None:
                _emit(fh, lines)
            else:
                pending.append(pool.submit(_emit, fh, lines))
        for done in pending:
            done.result()


def cmd_warp(args) -> int:
    if args.exemplar_mask is not None and args.mask is None:
        print("error: --exemplar-mask requires --mask", file=sys.stderr)
        return EXIT_USAGE
    cond = _read_grid(args.conditional)
    exem = _read_grid(args.exemplar)
    if (cond.height, cond.width) != (exem.height, exem.width):
        raise ValidationError(
            f"grids differ: {cond.height}x{cond.width} vs {exem.height}x{exem.width}"
        )
    if cond.channels != exem.channels:
        raise ValidationError(f"channel counts differ: {cond.channels} vs {exem.channels}")
    # the conditional's mask, then the exemplar's if it has its own
    masks = [_read_mask(path) for path in (args.mask, args.exemplar_mask) if path is not None]
    for mask in masks:
        if (mask.height, mask.width) != (cond.height, cond.width):
            raise ValidationError("mask dimensions do not match the grids")

    # raw inputs (pixels or features) are normalized per site, then optionally
    # augmented with each grid's region coordinates; without an exemplar mask
    # both grids take the conditional's
    query = l2_normalize_features(cond)
    target = l2_normalize_features(exem)
    if masks:
        channels = [semantic_pe(mask) for mask in masks]
        query = append_position(query, channels[0], args.spe_weight)
        target = append_position(target, channels[-1], args.spe_weight)

    part, q_blocks = partition_blocks(query, args.block_side)
    _, e_blocks = partition_blocks(target, args.block_side)
    ranking = rank_blocks(
        q_blocks, e_blocks, args.k, lam=args.lam, iters=args.max_iters, tol=args.tolerance,
    )
    corr = block_attention(part, query, target, ranking, args.tau)
    warped = warp(corr, exem)  # warp carries the original exemplar features
    cmap = confidence_map(ranking)

    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(warped, os.path.join(args.out_dir, "warped.ftn"))
    write_tensor(
        FeatureGrid(cmap.data[:, :, None]), os.path.join(args.out_dir, "cmap.ftn")
    )
    _write_correspondence_csv(os.path.join(args.out_dir, "correspondence.csv"), corr)
    return EXIT_OK


def cmd_topk(args) -> int:
    try:
        scores = np.array([float(v) for v in args.scores.split(",")])
    except ValueError:
        print(f"error: could not parse scores {args.scores!r}", file=sys.stderr)
        return EXIT_USAGE
    problem = TopKProblem(
        scores, k=args.k, lam=args.lam, max_iters=args.max_iters, tolerance=args.tolerance
    )
    selection = soft_topk(problem)
    print("gamma: " + ",".join(f"{g:.6f}" for g in selection.gamma))
    print("selected: " + ",".join(str(i) for i in np.flatnonzero(selection.hard)))
    # a solve ends above the tolerance only by using every Newton step
    error = abs(selection.gamma.sum() - problem.k)
    if error > problem.tolerance:
        print(
            f"warning: Newton solve stopped at --max-iters {problem.max_iters} "
            f"with |sum(gamma) - k| = {error:.1e} above --tolerance {problem.tolerance:g}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.k > args.n:
        print(f"error: k={args.k} exceeds N={args.n}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        # stay clear of the clamp boundary: the operator is genuinely
        # non-differentiable where scores pin at +-1
        scores = rng.uniform(-0.95, 0.95, args.n)
        problem = TopKProblem(
            scores, k=args.k, lam=args.lam, max_iters=args.max_iters, tolerance=args.tolerance
        )
        upstream = rng.standard_normal(args.n)
        grad = dual_gamma_vjp(soft_topk(problem).gamma, upstream, problem.lam)
        reference = finite_difference_gradient(problem, upstream, step=args.step)
        meaningful = np.abs(reference) > 1e-6
        if meaningful.any():
            rel = np.abs(grad - reference)[meaningful] / np.abs(reference)[meaningful]
            worst = max(worst, float(rel.max()))
    passed = worst < 1e-3
    print(f"max relative error: {worst:.3e} over {args.trials} trials")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_CHECK


def cmd_spe(args) -> int:
    channels = semantic_pe(_read_mask(args.mask))
    write_tensor(FeatureGrid(channels.data), args.out)
    return EXIT_OK


def cmd_fuse(args) -> int:
    cond = _read_grid(args.conditional)
    warped = _read_grid(args.warped)
    cgrid = _read_grid(args.cmap)
    if cgrid.channels == 1:
        fused = fuse(cond, warped, ConfidenceMap(cgrid.data[:, :, 0]))
    elif cgrid.channels == cond.channels:
        fused = fuse_multichannel(
            cond, warped, MultiChannelMap(np.moveaxis(cgrid.data, 2, 0))
        )
    else:
        raise ValidationError(
            f"confidence map has {cgrid.channels} channels; expected 1 or {cond.channels}"
        )
    write_tensor(fused, args.out)
    return EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int, int]]:
    sizes = []
    for item in text.split(","):
        parts = item.lower().split("x")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad size {item!r}, expected HxWxD")
        size = tuple(int(p) for p in parts)
        if min(size) < 1:
            raise argparse.ArgumentTypeError(f"bad size {item!r}, dimensions must be positive")
        sizes.append(size)
    return sizes


def cmd_bench(args) -> int:
    records = run_bench(
        args.sizes, block_area=args.block_side * args.block_side, k=args.k,
        tau=args.tau, lam=args.lam, repetitions=args.repetitions, seed=args.seed,
    )
    text = render_csv(records)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _add_solver_flags(sub, stop_flags: bool = True) -> None:
    sub.add_argument("--k", type=_positive_int, default=_DEFAULTS.k)
    sub.add_argument("--lambda", dest="lam", type=_positive_float, default=_DEFAULTS.lam)
    if stop_flags:  # bench runs the solver at its defaults
        sub.add_argument("--max-iters", type=_positive_int, default=_DEFAULTS.max_iters,
                         help="cap on Newton steps per problem")
        sub.add_argument("--tolerance", type=_positive_float, default=_DEFAULTS.tolerance,
                         help="stop at |sum(gamma) - k| <= this")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankwarp",
        description="Block-ranked sparse correspondence: warping, soft top-k, "
        "position encoding, confidence fusion, benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    warp_p = subs.add_parser("warp", help="warp an exemplar grid onto a conditional grid")
    warp_p.add_argument("conditional")
    warp_p.add_argument("exemplar")
    warp_p.add_argument("--mask", default=None, help="label mask of the conditional")
    warp_p.add_argument("--exemplar-mask", default=None,
                        help="label mask of the exemplar (default: the --mask)")
    warp_p.add_argument("--out-dir", default=".")
    warp_p.add_argument("--block-side", type=_positive_int, default=_DEFAULTS.block_side)
    warp_p.add_argument("--tau", type=_positive_float, default=_DEFAULTS.tau)
    warp_p.add_argument("--spe-weight", type=_finite_float, default=_DEFAULTS.spe_weight)
    _add_solver_flags(warp_p)
    warp_p.set_defaults(func=cmd_warp)

    topk_p = subs.add_parser("topk", help="soft top-k selection over a score list")
    topk_p.add_argument("--scores", required=True, help="comma-separated scores in [-1,1]")
    _add_solver_flags(topk_p)
    topk_p.set_defaults(func=cmd_topk)

    grad_p = subs.add_parser("gradcheck", help="verify solver gradients against finite differences")
    grad_p.add_argument("--n", type=_positive_int, default=8)
    grad_p.add_argument("--trials", type=_positive_int, default=50)
    grad_p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    grad_p.add_argument("--step", type=_positive_float, default=1e-4)
    _add_solver_flags(grad_p)
    # the gradient is the exact solution's, so gamma is solved as tightly as the differences
    grad_p.set_defaults(func=cmd_gradcheck, lam=20.0, tolerance=EXACT_TOLERANCE)

    spe_p = subs.add_parser("spe", help="semantic position channels from a label mask")
    spe_p.add_argument("mask")
    spe_p.add_argument("out")
    spe_p.set_defaults(func=cmd_spe)

    fuse_p = subs.add_parser("fuse", help="confidence-weighted fusion of two grids")
    fuse_p.add_argument("conditional")
    fuse_p.add_argument("warped")
    fuse_p.add_argument("cmap")
    fuse_p.add_argument("out")
    fuse_p.set_defaults(func=cmd_fuse)

    bench_p = subs.add_parser("bench", help="memory and timing benchmark, CSV output")
    bench_p.add_argument(
        "--sizes", type=_parse_sizes, default=[(32, 32, 8), (64, 64, 8), (128, 128, 8)]
    )
    bench_p.add_argument("--block-side", type=_positive_int, default=_DEFAULTS.block_side)
    bench_p.add_argument("--tau", type=_positive_float, default=_DEFAULTS.tau)
    bench_p.add_argument("--repetitions", type=_positive_int, default=1)
    bench_p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    bench_p.add_argument("--out", default=None)
    _add_solver_flags(bench_p, stop_flags=False)
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TensorFormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
