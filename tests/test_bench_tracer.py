"""The benchmark's tracer still wraps and observes the library it measures.

``benchmark/run.py`` replaces rankwarp functions by name and reads fields of
their results; a rename in the library would only show up in a traced
benchmark run.  This runs one small traced ``warp --mask`` + ``fuse`` job.
"""

import os
from pathlib import Path

import numpy as np

from rankwarp import cli
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
        partition_blocks(append_position(l2_normalize_features(read_tensor(p)), channels), 2)[1]
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
    assert {"fusion.fuse", "correspondence.warp", "cli.warp", "cli.fuse"} <= spans
