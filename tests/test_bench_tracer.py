"""The benchmark's tracer still wraps and observes the library it measures.

``benchmark/run.py`` replaces rankwarp functions by name and reads fields of
their results; a rename in the library would only show up in a traced
benchmark run.  This runs one small traced ``warp --mask`` + ``fuse`` job.
"""

import os
from pathlib import Path

import numpy as np

from rankwarp import cli
from rankwarp.tensors import FeatureGrid, LabelMask, write_tensor

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
    assert observed["correspondence.attention"]["entries"] == 64 * 3 * 4
    spans = {s["name"] for s in tracer.spans}
    assert {"fusion.fuse", "correspondence.warp", "cli.warp", "cli.fuse"} <= spans
