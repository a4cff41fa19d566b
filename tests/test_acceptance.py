"""End-to-end acceptance battery: ten go/no-go checks, one verdict line each.

Every test prints a single [PASS]/[FAIL] line straight to the terminal
(past pytest's capture) and then asserts, so a plain
``pytest tests/test_acceptance.py`` shows the whole scorecard.  The
complexity check builds a 16384-site dense baseline and dominates the
runtime at a few minutes; everything else finishes in seconds.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

from rankwarp.cli import main
from rankwarp.correspondence import (
    block_attention,
    partition_blocks,
    rank_blocks,
    warp,
)
from rankwarp.fusion import ConfidenceMap, MultiChannelMap, fuse, fuse_multichannel
from rankwarp.metrics import cycle_loss, run_bench
from rankwarp.posenc import semantic_pe, vanilla_pe
from rankwarp.tensors import (
    FeatureGrid,
    LabelMask,
    l2_normalize_features,
    write_tensor,
)
from rankwarp.topk import (
    TopKProblem,
    dual_gamma,
    hard_topk_oracle,
    sinkhorn_solve,
)


def _verdict(capsys, ok: bool, label: str, detail: str) -> None:
    # write through the capture machinery so the scorecard always reaches
    # the console, -s or not
    state = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{state}] {label}: {detail}", flush=True)


def test_01_topk_identifies_oracle_set(capsys):
    # 500 instances, N in 4..64, k in 1..N, score gap at the k boundary at
    # least 0.05 (vacuous when k == N); solved sharply at lambda = 200
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    instances = []
    for _ in range(500):
        n = int(rng.integers(4, 65))
        k = int(rng.integers(1, n + 1))
        while True:
            scores = rng.uniform(-1.0, 1.0, n)
            if k == n:
                break
            ordered = np.sort(scores)[::-1]
            if ordered[k - 1] - ordered[k] >= 0.05:
                break
        instances.append((n, k, scores))

    by_n: dict[int, list[tuple[int, np.ndarray]]] = {}
    for n, k, scores in instances:
        by_n.setdefault(n, []).append((k, scores))
    exact = 0
    for n, group in by_n.items():
        ks = np.array([k for k, _ in group])
        block = np.stack([s for _, s in group])
        gamma, _, _ = dual_gamma(block, ks, 200.0, max_iters=4000, tolerance=1e-4)
        for row, (k, scores) in zip(gamma, group):
            picked = np.sort(np.argsort(-row, kind="stable")[:k])
            if np.array_equal(picked, np.flatnonzero(hard_topk_oracle(scores, k))):
                exact += 1
    elapsed = time.perf_counter() - start

    ok = exact == 500 and elapsed < 10.0
    _verdict(capsys, ok, "top-k identification", f"{exact}/500 oracle-exact in {elapsed:.1f} s")
    assert exact == 500
    assert elapsed < 10.0


def test_02_plan_marginals_within_tolerance(capsys):
    # row sums must hit 1/N and column sums ((N-k)/N, k/N) within 1e-6 on
    # the float32 plan of every converged solve.  Iterations to converge
    # grow like exp(lambda * boundary gap), so the full-range group keeps
    # lambda moderate and the high-lambda group keeps scores soft; with a
    # 400k budget all 60 instances converge by the solver's own stop rule.
    rng = np.random.default_rng(11)
    worst = 0.0
    converged = 0
    for trial in range(60):
        n = int(rng.integers(2, 49))
        k = int(rng.integers(1, n + 1))
        if trial < 50:
            lam = float(rng.uniform(2.0, 18.0))
            scores = rng.uniform(-1.0, 1.0, n)
        else:
            lam = float(rng.uniform(40.0, 80.0))
            scores = rng.uniform(-0.1, 0.1, n)
        problem = TopKProblem(scores, k, lam=lam, max_iters=400000, tolerance=1e-6)
        plan, _ = sinkhorn_solve(problem)
        if plan.marginal_error > 0.5 * problem.tolerance:
            continue  # the bound is claimed for converged plans only
        converged += 1
        t = plan.plan.astype(np.float64)
        row_dev = np.abs(t.sum(axis=1) - 1.0 / n).max()
        col_dev = np.abs(t.sum(axis=0) - np.array([(n - k) / n, k / n])).max()
        worst = max(worst, float(row_dev), float(col_dev))

    ok = converged == 60 and worst <= 1e-6
    _verdict(
        capsys,
        ok,
        "marginal feasibility",
        f"{converged}/60 converged, worst deviation {worst:.2e}",
    )
    assert converged == 60
    assert worst <= 1e-6


def test_03_gradcheck_command_passes(capsys):
    # the shipped command at its defaults: N=8, k=3, lambda=20, 50 trials,
    # central differences; exit 0 means max relative error < 1e-3
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["gradcheck"])
    reported = buf.getvalue().splitlines()[0].split(":")[1].strip()

    ok = code == 0
    _verdict(capsys, ok, "gradient check", f"exit {code}, {reported}")
    assert code == 0


def test_04_complexity_scaling(capsys):
    sizes = [(32, 32, 8), (64, 64, 8), (128, 128, 8)]
    # the check reads peaks and counts only, so no timed builds
    records = run_bench(sizes, block_area=4, k=3, repetitions=0)
    ras = {r.sites: r for r in records if r.method == "ras"}
    dense = {r.sites: r for r in records if r.method == "dense"}
    lengths = [1024, 4096, 16384]

    entries_ok = all(ras[n].entries == n * 3 * 4 for n in lengths)
    entries_ok &= all(dense[n].entries == n * n for n in lengths)
    scores_ok = all(ras[n].ranking_scores == (n // 4) ** 2 for n in lengths)

    stored_ratio = dense[4096].entries / ras[4096].entries
    work_ratio = dense[4096].entries / (ras[4096].entries + ras[4096].ranking_scores)
    ratios_ok = dense[4096].entries == 16_777_216 and ras[4096].entries == 49_152
    ratios_ok &= abs(stored_ratio - 341.33) < 0.01
    ratios_ok &= abs(work_ratio - 15.3) < 0.05

    logs = np.log(np.array(lengths, dtype=np.float64))
    ras_slope = float(np.polyfit(logs, np.log([ras[n].peak_bytes for n in lengths]), 1)[0])
    dense_slope = float(
        np.polyfit(logs, np.log([dense[n].peak_bytes for n in lengths]), 1)[0]
    )
    slopes_ok = ras_slope <= 1.2 and dense_slope >= 1.8

    ok = entries_ok and scores_ok and ratios_ok and slopes_ok
    _verdict(
        capsys,
        ok,
        "complexity scaling",
        f"stored ratio {stored_ratio:.0f}x, work ratio {work_ratio:.2f}x, "
        f"peak slopes ranked {ras_slope:.2f} / dense {dense_slope:.2f}",
    )
    assert entries_ok
    assert scores_ok
    assert ratios_ok
    assert slopes_ok


def test_05_self_alignment_is_identity(capsys):
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.standard_normal((32, 32, 8)).astype(np.float32))
    part, blocks = partition_blocks(grid, 2)
    identity = True
    worst_linf = 0.0
    worst_cycle = 0.0
    for k in (1, 3):
        ranking = rank_blocks(blocks, blocks, k)
        corr = block_attention(part, grid, grid, ranking, 0.002)
        warped = warp(corr, grid)
        best = corr.indices[
            np.arange(corr.indices.shape[0]), corr.weights.argmax(axis=1)
        ]
        identity &= bool(np.array_equal(best, np.arange(grid.site_count)))
        worst_linf = max(worst_linf, float(np.abs(warped.data - grid.data).max()))
        worst_cycle = max(worst_cycle, cycle_loss(corr, grid))

    ok = identity and worst_linf < 1e-5 and worst_cycle < 1e-5
    _verdict(
        capsys,
        ok,
        "self-alignment",
        f"identity argmax {identity}, warp Linf {worst_linf:.1e}, "
        f"cycle {worst_cycle:.1e}",
    )
    assert identity
    assert worst_linf < 1e-5
    assert worst_cycle < 1e-5


def test_06_block_shift_recovery(capsys):
    rng = np.random.default_rng(7)
    cond = FeatureGrid(rng.standard_normal((16, 16, 8)).astype(np.float32))
    exem = FeatureGrid(np.roll(cond.data, (4, 6), axis=(0, 1)))
    query = l2_normalize_features(cond)
    target = l2_normalize_features(exem)
    part, q_blocks = partition_blocks(query, 2)
    _, e_blocks = partition_blocks(target, 2)
    ranking = rank_blocks(q_blocks, e_blocks, 1)
    corr = block_attention(part, query, target, ranking, 0.01)
    warped = warp(corr, exem)
    l1 = float(np.abs(warped.data.astype(np.float64) - cond.data).mean())

    ok = l1 < 1e-3
    _verdict(capsys, ok, "shift recovery", f"per-element L1 {l1:.2e} after a (4, 6) block shift")
    assert l1 < 1e-3


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return np.where(norms > 1e-8, v / np.where(norms > 1e-8, norms, 1.0), 0.0)


def test_07_matches_masked_dense_oracle(capsys):
    # the sparse path must agree with a from-scratch float64 evaluation of
    # dense attention masked to the stored entries; cases span 16..256 sites
    rng = np.random.default_rng(2028)
    cases = [
        (4, 4, 3, 1, 1),
        (4, 4, 8, 2, 2),
        (8, 8, 4, 2, 1),
        (8, 8, 8, 2, 3),
        (16, 16, 3, 2, 3),
        (16, 16, 8, 4, 2),
        (16, 16, 4, 4, 1),
        (8, 8, 6, 1, 3),
    ]
    worst = 0.0
    for h, w, d, side, k in cases:
        query = FeatureGrid(rng.standard_normal((h, w, d)).astype(np.float32))
        exem = FeatureGrid(rng.standard_normal((h, w, d)).astype(np.float32))
        part, q_blocks = partition_blocks(query, side)
        _, e_blocks = partition_blocks(exem, side)
        ranking = rank_blocks(q_blocks, e_blocks, k)
        corr = block_attention(part, query, exem, ranking, 0.07)
        got = warp(corr, exem).data.astype(np.float64)

        cos = (
            _unit_rows(query.vectors.astype(np.float64))
            @ _unit_rows(exem.vectors.astype(np.float64)).T
        )
        z = exem.vectors.astype(np.float64)
        expect = np.zeros((h * w, d))
        area = side * side
        sites_of = part.feature_indices()
        for block in range(part.block_count):
            gammas = np.repeat(ranking.gammas[block], area)
            for site in sites_of[block]:
                cols = corr.indices[site]
                logits = cos[site, cols] / 0.07 + np.log(gammas)
                logits -= logits.max()
                weights = np.exp(logits)
                expect[site] = (weights / weights.sum()) @ z[cols]
        worst = max(worst, float(np.abs(got - expect.reshape(h, w, d)).max()))

    ok = worst <= 1e-5
    _verdict(
        capsys,
        ok,
        "masked-dense oracle",
        f"worst Linf {worst:.2e} over {len(cases)} cases up to 256 sites",
    )
    assert worst <= 1e-5


def test_08_position_encoding_properties(capsys):
    whole = semantic_pe(LabelMask(np.zeros((9, 13), dtype=np.int32)))
    whole_ok = whole.data.tobytes() == vanilla_pe(9, 13).data.tobytes()

    labels = np.zeros((12, 12), dtype=np.int32)
    labels[2:5, 3:7] = 1
    labels[7:10, 6:10] = 2
    channels = semantic_pe(LabelMask(labels))
    congruent_ok = (
        channels.data[2:5, 3:7].tobytes() == channels.data[7:10, 6:10].tobytes()
    )

    rng = np.random.default_rng(3)
    noisy = semantic_pe(LabelMask(rng.integers(0, 4, (10, 11)).astype(np.int32)))
    range_ok = bool((np.abs(noisy.data) <= 1.0).all())

    single = np.zeros((6, 6), dtype=np.int32)
    single[4, 2] = 9
    pixel_ok = tuple(semantic_pe(LabelMask(single)).data[4, 2]) == (0.0, 0.0)

    ok = whole_ok and congruent_ok and range_ok and pixel_ok
    _verdict(
        capsys,
        ok,
        "position encoding",
        f"whole-image ramp {whole_ok}, congruent regions {congruent_ok}, "
        f"range {range_ok}, single pixel {pixel_ok}",
    )
    assert whole_ok
    assert congruent_ok
    assert range_ok
    assert pixel_ok


def test_09_confidence_fusion_algebra(capsys):
    rng = np.random.default_rng(5)
    cond = FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32))
    warped = FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32))
    zeros = ConfidenceMap(np.zeros((4, 4), dtype=np.float32))
    ones = ConfidenceMap(np.ones((4, 4), dtype=np.float32))
    boundary_ok = (
        fuse(cond, warped, zeros).data.tobytes() == cond.data.tobytes()
        and fuse(cond, warped, ones).data.tobytes() == warped.data.tobytes()
    )

    convex_ok = True
    for _ in range(100):
        a = FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32))
        b = FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32))
        cmap = ConfidenceMap(rng.uniform(0.0, 1.0, (4, 4)).astype(np.float32))
        fused = fuse(a, b, cmap).data
        low = np.minimum(a.data, b.data)
        high = np.maximum(a.data, b.data)
        convex_ok &= bool(((fused >= low) & (fused <= high)).all())

    cmap = ConfidenceMap(rng.uniform(0.0, 1.0, (4, 4)).astype(np.float32))
    stacked = MultiChannelMap(np.repeat(cmap.data[None, :, :], 3, axis=0))
    multi_ok = (
        fuse_multichannel(cond, warped, stacked).data.tobytes()
        == fuse(cond, warped, cmap).data.tobytes()
    )

    ok = boundary_ok and convex_ok and multi_ok
    _verdict(
        capsys,
        ok,
        "confidence fusion",
        f"boundaries {boundary_ok}, convexity {convex_ok}, "
        f"replicated channels {multi_ok}",
    )
    assert boundary_ok
    assert convex_ok
    assert multi_ok


def test_10_reruns_are_byte_identical(capsys, tmp_path, ranking_cpus):
    rng = np.random.default_rng(9)
    cond_path = tmp_path / "cond.ftn"
    exem_path = tmp_path / "exem.ftn"
    write_tensor(FeatureGrid(rng.standard_normal((16, 16, 6)).astype(np.float32)), cond_path)
    write_tensor(FeatureGrid(rng.standard_normal((16, 16, 6)).astype(np.float32)), exem_path)

    outputs = ("warped.ftn", "cmap.ftn", "correspondence.csv")

    # the parallel legs rank on two threads (chunks of 16 query blocks), the others serially
    def run_warp(out_dir, parallel):
        ranking_cpus(2 if parallel else 1)
        assert main(["warp", str(cond_path), str(exem_path), "--out-dir", str(out_dir)]) == 0
        return [(out_dir / name).read_bytes() for name in outputs]

    first = run_warp(tmp_path / "a", False)
    warp_ok = (
        run_warp(tmp_path / "b", False) == first
        and run_warp(tmp_path / "c", True) == first
    )

    def run_bench_cli(out, parallel):
        ranking_cpus(2 if parallel else 1)
        assert main(["bench", "--sizes", "16x16x8,32x32x8", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        # wall time and traced peak are the two physical, non-reproducible
        # columns; every content column must come back identical
        return [
            tuple(field for i, field in enumerate(line.split(",")) if i not in (6, 7))
            for line in rows
        ]

    base = run_bench_cli(tmp_path / "b1.csv", False)
    bench_ok = (
        run_bench_cli(tmp_path / "b2.csv", False) == base
        and run_bench_cli(tmp_path / "b3.csv", True) == base
    )

    ok = warp_ok and bench_ok
    _verdict(
        capsys,
        ok,
        "determinism",
        f"warp files byte-identical {warp_ok}, bench content columns stable {bench_ok}",
    )
    assert warp_ok
    assert bench_ok
