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
from dataclasses import dataclass

import numpy as np

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
from .topk import (
    TopKProblem,
    finite_difference_gradient,
    selection_from_tape,
    sinkhorn_solve,
    soft_topk_backward,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_CHECK = 5

# worker count behind --parallel; any count gives bit-identical outputs
_PARALLEL_WORKERS = 4


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


# ASCII digits of 0..999: row j holds digit j of every zero-padded triple
_TRIPLES = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
# CSV entries formatted per chunk; bounds the writer's peak at O(chunk)
_CSV_CHUNK_ENTRIES = 1 << 18
# 10**k is exact in float64 up to k = 22, so w * 10**(8 - X) is rounded once
_POW10 = 10.0 ** np.arange(23)
_ZERO, _DOT = ord("0"), ord(".")

# The CSV is built as character matrices with one column per line and one
# row per character position; NUL marks a character that is dropped.


def _digits(values: np.ndarray, width: int) -> list[np.ndarray]:
    """ASCII digit rows, most significant first, of ints in [0, 1000**ceil(width / 3))."""
    rows = []
    for g in range(-(-width // 3) - 1, -1, -1):
        triple = values // 1000**g % 1000
        rows += [row[triple] for row in _TRIPLES]
    return rows


def _int_chars(values: np.ndarray, width: int) -> np.ndarray:
    """Character matrix of ints in [0, 10**width), leading zeros as NUL."""
    rows = _digits(values, width)
    lead = np.ones(values.shape, dtype=bool)
    for row in rows[:-1]:  # zero itself prints one digit
        lead &= row == _ZERO
        row *= ~lead
    return np.stack(rows)


def _weight_chars(w: np.ndarray) -> np.ndarray:
    """Character matrix of ``f"{float(w):.9g}"`` for float32 weights.

    Weights in [1e-14, 1) are rounded to 9 significant digits from the float64
    product w * 10**(8 - X), with X = floor(log10 w).  The product carries
    one rounding error of at most 2**-53 relative, far inside the 1e-6 guard
    around halfway cases.  Zero, values outside that range and near-halfway
    rows go through Python's own formatter, so every row matches it byte for
    byte.
    """
    w64 = w.astype(np.float64)
    plain = (w64 >= 1e-14) & (w64 < 1.0)
    exp = np.floor(np.log10(np.where(plain, w64, 1e-8))).astype(np.int64)
    scaled = w64 * _POW10[np.clip(8 - exp, 0, 22)]
    mant = np.rint(scaled)
    # a mantissa outside [1e8, 1e9) means log10 or the rounding crossed a
    # power of ten; such rows and near-halfway rows fall back
    plain &= (mant >= 1e8) & (mant < 1e9) & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    d = _digits(np.where(plain, mant, 1e8).astype(np.int32), 9)
    trailing = np.ones(w.shape, dtype=bool)
    for row in d[:0:-1]:  # %g strips trailing zeros; the first digit is never 0
        trailing &= row == _ZERO
        row *= ~trailing

    # fixed, 1e-4 <= w < 1: "0." then -X-1 zeros then the digits;
    # scientific, w < 1e-4: "d.dddddddde-XX", or "de-XX" for d.00000000
    sci = exp < -4
    fixed = [np.uint8(_ZERO), np.uint8(_DOT)]
    fixed += [np.where(exp + 4 <= j, _ZERO, 0).astype(np.uint8) for j in range(3)] + d
    scientific = d[:1] + [np.where(trailing, 0, _DOT).astype(np.uint8)] + d[1:]
    scientific += [np.uint8(ord("e")), np.uint8(ord("-")), _TRIPLES[1][-exp], _TRIPLES[2][-exp]]
    out = np.stack([np.where(sci, s, f) for s, f in zip(scientific, fixed)])

    fallback = np.flatnonzero(~plain)
    if fallback.size:
        text = [f"{float(v):.9g}".encode() for v in w[fallback]]
        width = max(14, *map(len, text))
        if width > 14:
            out = np.pad(out, ((0, width - 14), (0, 0)))
        padded = b"".join(t.ljust(width, b"\0") for t in text)
        out[:, fallback] = np.frombuffer(padded, np.uint8).reshape(-1, width).T
    return out


def _write_correspondence_csv(path: str, corr: SparseCorrespondence) -> None:
    """Write the ``q,e,w`` lines of a ranked correspondence, w as ``%.9g`` of the float32 weight.

    Each chunk of whole query rows becomes one character matrix, which is
    compacted and written in one call.
    """
    sites, m = corr.weights.shape
    q_width = len(str(sites - 1))
    e_width = len(str(corr.exemplar_sites - 1))
    rows_per_chunk = max(1, _CSV_CHUNK_ENTRIES // m)
    with open(path, "wb") as fh:
        fh.write(b"query_index,exemplar_index,weight\n")
        for r0 in range(0, sites, rows_per_chunk):
            r1 = min(r0 + rows_per_chunk, sites)
            q = np.repeat(_int_chars(np.arange(r0, r1), q_width), m, axis=1)
            e = _int_chars(corr.indices[r0:r1].reshape(-1), e_width)
            w = _weight_chars(corr.weights[r0:r1].reshape(-1))
            sep = np.full((1, q.shape[1]), ord(","), dtype=np.uint8)
            end = np.full_like(sep, ord("\n"))
            line = np.concatenate([q, sep, e, sep, w, end]).T.copy()
            fh.write(line[line != 0].tobytes())


def cmd_warp(args) -> int:
    cond = _read_grid(args.conditional)
    exem = _read_grid(args.exemplar)
    if (cond.height, cond.width) != (exem.height, exem.width):
        raise ValidationError(
            f"grids differ: {cond.height}x{cond.width} vs {exem.height}x{exem.width}"
        )
    if cond.channels != exem.channels:
        raise ValidationError(f"channel counts differ: {cond.channels} vs {exem.channels}")
    mask = None
    if args.mask is not None:
        mask = _read_mask(args.mask)
        if (mask.height, mask.width) != (cond.height, cond.width):
            raise ValidationError("mask dimensions do not match the grids")

    # raw inputs (pixels or features) are normalized per site, then optionally
    # augmented with the mask's position channels on both sides
    query = l2_normalize_features(cond)
    target = l2_normalize_features(exem)
    if mask is not None:
        channels = semantic_pe(mask)
        query = append_position(query, channels, args.spe_weight)
        target = append_position(target, channels, args.spe_weight)

    part, q_blocks = partition_blocks(query, args.block_side)
    _, e_blocks = partition_blocks(target, args.block_side)
    workers = _PARALLEL_WORKERS if args.parallel else 0
    ranking = rank_blocks(
        q_blocks, e_blocks, args.k, lam=args.lam, iters=args.max_iters,
        tol=args.tolerance, workers=workers,
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
    plan, tape = sinkhorn_solve(problem)
    selection = selection_from_tape(problem, tape)
    print("gamma: " + ",".join(f"{g:.6f}" for g in selection.gamma))
    print("selected: " + ",".join(str(i) for i in np.flatnonzero(selection.hard)))
    if plan.marginal_error > problem.tolerance:
        print(
            f"warning: Sinkhorn stopped at --max-iters after {plan.iterations_used} steps "
            f"with marginal error {plan.marginal_error:.1e} above --tolerance {problem.tolerance:g}",
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
        _, tape = sinkhorn_solve(problem)
        upstream = rng.standard_normal(args.n)
        grad = soft_topk_backward(tape, upstream)
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
        workers=_PARALLEL_WORKERS if args.parallel else 0,
    )
    text = render_csv(records)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


# --max-iters and --tolerance help of topk and gradcheck, which run the Sinkhorn reference
_SINKHORN_HELP = ("Sinkhorn step cap", "stop once every plan marginal is within half this")


def _add_solver_flags(sub, solver_help: tuple[str, str] | None = None) -> None:
    sub.add_argument("--k", type=_positive_int, default=_DEFAULTS.k)
    sub.add_argument("--lambda", dest="lam", type=_positive_float, default=_DEFAULTS.lam)
    if solver_help:  # bench runs the ranking solver at its defaults
        sub.add_argument("--max-iters", type=_positive_int, default=_DEFAULTS.max_iters,
                         help=solver_help[0])
        sub.add_argument("--tolerance", type=_positive_float, default=_DEFAULTS.tolerance,
                         help=solver_help[1])


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
    warp_p.add_argument("--mask", default=None)
    warp_p.add_argument("--out-dir", default=".")
    warp_p.add_argument("--block-side", type=_positive_int, default=_DEFAULTS.block_side)
    warp_p.add_argument("--tau", type=_positive_float, default=_DEFAULTS.tau)
    warp_p.add_argument("--spe-weight", type=_finite_float, default=_DEFAULTS.spe_weight)
    warp_p.add_argument("--parallel", action="store_true")
    _add_solver_flags(warp_p, ("cap on Newton steps per problem", "stop at |sum(gamma) - k| <= this"))
    warp_p.set_defaults(func=cmd_warp)

    topk_p = subs.add_parser("topk", help="soft top-k selection over a score list")
    topk_p.add_argument("--scores", required=True, help="comma-separated scores in [-1,1]")
    _add_solver_flags(topk_p, _SINKHORN_HELP)
    topk_p.set_defaults(func=cmd_topk)

    grad_p = subs.add_parser("gradcheck", help="verify solver gradients against finite differences")
    grad_p.add_argument("--n", type=_positive_int, default=8)
    grad_p.add_argument("--trials", type=_positive_int, default=50)
    grad_p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    grad_p.add_argument("--step", type=_positive_float, default=1e-4)
    _add_solver_flags(grad_p, _SINKHORN_HELP)
    grad_p.set_defaults(func=cmd_gradcheck, lam=20.0, max_iters=5000)

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
    bench_p.add_argument("--parallel", action="store_true")
    _add_solver_flags(bench_p)
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
