"""The benchmark's tracer still wraps and observes the library it measures.

``benchmark/run.py`` replaces rankwarp functions by name and reads fields of
their results; a rename in the library would only show up in a traced
benchmark run.  This runs one small traced ``warp --mask`` + ``fuse`` job and
one small traced ``topk-grad`` batch.
"""

import os
from pathlib import Path

import numpy as np

from rankwarp import cli, topk
from rankwarp.correspondence import partition_blocks
from rankwarp.posenc import append_position, semantic_pe
from rankwarp.tensors import FeatureGrid, LabelMask, l2_normalize_features, read_tensor, write_tensor

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_install_spans_records_a_warp_and_fuse_job(tmp_path, monkeypatch):
    # run.py pins OPENBLAS_NUM_THREADS at import; put the old value back after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import run
    from spans import Tracer

    rng = np.random.default_rng(170)
    cond, exem, mask = (str(tmp_path / f) for f in ("cond.ftn", "exem.ftn", "mask.ftn"))
    write_tensor(FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32)), cond)
    write_tensor(FeatureGrid(rng.standard_normal((8, 8, 3)).astype(np.float32)), exem)
    write_tensor(LabelMask(np.repeat([[0] * 4 + [1] * 4], 8, axis=0)), mask)
    out = tmp_path / "out"
    warp_argv = ["warp", cond, exem, "--mask", mask, "--out-dir", str(out)]
    fuse_argv = ["fuse", cond] + [str(out / f) for f in ("warped.ftn", "cmap.ftn", "fused.ftn")]

    original_warp = cli.warp
    tracer = Tracer()
    try:
        run.install_spans(tracer)
        with tracer.recording("job0"):
            codes = [cli.main(warp_argv), cli.main(fuse_argv)]
    finally:
        tracer.close()
    assert codes == [0, 0]
    assert cli.warp is original_warp

    observed = {o["name"]: o for o in tracer.observed}
    rank = observed["correspondence.rank"]
    assert rank["scored_pairs"] == 16 * 16
    assert rank["candidates"].shape == rank["gammas"].shape == (16, 3)
    assert len(rank["iterations"]) == 16
    # run.py counts a problem as capped at max_iters; none may be
    config = cli.RunConfig()
    assert all(0 <= i < config.max_iters for i in rank["iterations"])
    # the observed (candidate) gammas, extended to all 16 exemplar blocks
    # through the dual scalar t they imply, gamma_j = sigmoid(z_j + t), sum to k
    channels = semantic_pe(read_tensor(mask))
    blocks = [
        partition_blocks(append_position(l2_normalize_features(read_tensor(p)), channels), 2)
        for p in (cond, exem)
    ]
    scores = blocks[0].normalized @ blocks[1].normalized.T
    z = 4.0 * config.lam * np.clip(scores, -1.0, 1.0).astype(np.float32).astype(np.float64)
    for row, cand, gam in zip(z, rank["candidates"], rank["gammas"]):
        c = np.argmax(gam * (1.0 - gam))
        t = np.log(gam[c]) - np.log1p(-gam[c]) - row[cand[c]]
        assert abs((1.0 / (1.0 + np.exp(-(row + t)))).sum() - 3) <= config.tolerance
    assert observed["correspondence.attention"]["entries"] == 64 * 3 * 4
    spans = {s["name"] for s in tracer.spans}
    # every stage the job runs, each through the cli namespace run.py wraps
    assert spans == {
        "tensors.read", "tensors.normalize", "tensors.write",
        "posenc.spe", "posenc.append",
        "correspondence.partition", "correspondence.rank", "correspondence.attention",
        "correspondence.warp",
        "fusion.cmap", "fusion.fuse",
        "cli.warp", "cli.fuse",
    }


def test_install_spans_records_a_topk_grad_batch(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import run
    from spans import Tracer

    rng = np.random.default_rng(171)
    scores = rng.uniform(-0.95, 0.95, (2, 40))
    upstream = rng.standard_normal((2, 40))
    original_solve = topk.sinkhorn_solve
    tracer = Tracer()
    try:
        run.install_spans(tracer)
        with tracer.recording("batch0"):
            results = run.solve_problems(scores, upstream, 3, [1, 0])
    finally:
        tracer.close()
    assert topk.sinkhorn_solve is original_solve
    assert [i for i, _, _ in results] == [1, 0]

    # each problem is one forward span, observed, then one backward span
    spans = tracer.spans
    assert [s["name"] for s in spans] == ["topk.forward", "topk.backward"] * 2
    assert all(s["job"] == "batch0" and s["parent"] is None and s["end"] >= s["start"] for s in spans)
    forward = [o for o in tracer.observed if o["name"] == "topk.forward"]
    assert len(forward) == 2
    config = cli.RunConfig()
    for observed, (i, gamma, grad) in zip(forward, results):
        problem = topk.TopKProblem(
            scores[i], 3, lam=config.lam, max_iters=config.max_iters, tolerance=config.tolerance
        )
        plan, tape = topk.sinkhorn_solve(problem)
        assert observed["iterations"] == [plan.iterations_used]
        assert observed["tape_states"] == len(tape.states) >= 1
        assert gamma.tobytes() == topk.selection_from_tape(problem, tape).gamma.tobytes()
        assert grad.tobytes() == topk.soft_topk_backward(tape, upstream[i]).tobytes()
