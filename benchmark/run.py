"""Benchmark of rankwarp: one command per workload, outputs checked, metrics as JSON.

    python3 benchmark/run.py --workload attend-coarse --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Set-up generates the workload's inputs in a
separate process, several times, and reports the median.  Then one untimed
job is checked in full against the known answer, jobs are timed until their
measured time reaches ``--seconds``, and one more job runs in a fresh
process for its peak resident memory.  Each repeated job must reproduce the
first job's outputs bit for bit.  ``--trace 1`` instead alternates untraced and traced jobs,
records a span around every call into rankwarp's public functions, and
reports per-layer figures; the spans go to ``.bench_out/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads, here and in the processes started
# from here.  On 2 cores an idle OpenBLAS worker spins after each matmul and
# slows the main thread by a varying amount.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from reference import exact_gamma, exact_gradient, hard_topk, kth_gap, problem_scores  # noqa: E402
from spans import Tracer  # noqa: E402

# rankwarp and gen (which imports rankwarp) load only after main() has found
# the sources

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
WORKLOADS = ("attend-coarse", "topk-grad")
# a topk-grad problem fails when gamma or the gradient misses the exact soft
# top-k by more than the gradcheck gate
GATE = 1e-3
MIB = float(1 << 20)
# layers the attend-coarse job never calls are timed on a few of the
# workload's own ranking problems
TOPK_PROBE_PROBLEMS = 16


def _median(values) -> float:
    return float(statistics.median(values))


class WarpJob:
    """One user job: ``rankwarp warp`` then ``rankwarp fuse``, in-process through ``rankwarp.cli.main``."""

    ops = 1
    failed = 0

    def __init__(self, inputs: str, work: str, shape: tuple) -> None:
        self.inputs = inputs
        self.out = os.path.join(work, "out")
        self.first = os.path.join(work, "first")
        self.pair = None
        _, _, block, region = shape
        cond, exem = os.path.join(inputs, "cond.ftn"), os.path.join(inputs, "exem.ftn")
        self.warp_argv = ["warp", cond, exem, "--out-dir", self.out, "--block-side", str(block)]
        if region is not None:
            self.warp_argv += ["--mask", os.path.join(inputs, "mask.ftn")]
        self.fuse_argv = ["fuse", cond] + [os.path.join(self.out, f) for f in ("warped.ftn", "cmap.ftn", "fused.ftn")]

    def run(self):
        from rankwarp import cli

        return [cli.main(self.warp_argv), cli.main(self.fuse_argv)]

    def summary(self, codes) -> list:
        """What a repeated job must reproduce, beyond its files: the exit codes."""
        return codes

    def check_first(self, codes) -> list[str]:
        if codes != [0, 0]:
            return [f"warp and fuse exited with {codes}"]
        self.pair = checks.load_inputs(self.inputs)
        errors = checks.check_warp_job(self.pair, self.out, cli_defaults().k)
        shutil.copytree(self.out, self.first)
        return errors

    def check_repeat(self, codes) -> list[str]:
        if codes != [0, 0]:
            return [f"warp and fuse exited with {codes}"]
        names = sorted(os.listdir(self.first))
        _, mismatch, missing = filecmp.cmpfiles(self.first, self.out, names, shallow=False)
        return [f"{name} differs from the first job's" for name in mismatch + missing]


class TopkBatch:
    """One batch: every fixed topk-grad problem, solved forward then backward, in a seeded order."""

    def __init__(self, inputs: str, seed: int) -> None:
        with np.load(os.path.join(inputs, "problems.npz")) as data:
            self.scores, self.upstream = data["scores"], data["upstream"]
        self.k = cli_defaults().k
        self.order = np.random.default_rng(seed).permutation(len(self.scores))
        self.ops = len(self.scores)
        self.failed = 0
        self.first = None

    def run(self):
        return solve_problems(self.scores, self.upstream, self.k, self.order)

    def summary(self, results) -> str:
        """Digest of every gamma and gradient of a batch, in order."""
        digest = hashlib.sha256()
        for i, gamma, grad in results:
            digest.update(i.to_bytes(4, "little") + gamma.tobytes() + grad.tobytes())
        return digest.hexdigest()

    def check_first(self, results) -> list[str]:
        from rankwarp import topk

        cfg = cli_defaults()
        scores = problem_scores(self.scores)
        exact = exact_gamma(scores, self.k, cfg.lam)
        errors = []
        if np.abs(exact_gradient(exact, np.ones_like(exact), cfg.lam)).max() > 1e-9:
            errors.append("the reference gives a nonzero gradient for a uniform upstream")
        self.gamma_errors = np.empty(len(results))
        fails = np.zeros(len(results), dtype=bool)
        for j, (i, gamma, grad) in enumerate(results):
            self.gamma_errors[j] = np.abs(gamma - exact[i]).max()
            ref = exact_gradient(exact[i], self.upstream[i], cfg.lam)[0]
            rel = np.linalg.norm(grad - ref) / np.linalg.norm(ref)
            fails[j] = self.gamma_errors[j] > GATE or rel > GATE
            if gamma.min() < 0.0 or gamma.max() > 1.0 or abs(gamma.sum() - self.k) > 1e-6:
                errors.append(f"problem {i}: gamma leaves [0, 1] or does not sum to k")
            if kth_gap(scores[i : i + 1], self.k)[0] > 1e-4 and not np.array_equal(
                np.sort(np.argsort(-gamma, kind="stable")[: self.k]), hard_topk(scores[i : i + 1], self.k)[0]
            ):
                errors.append(f"problem {i}: the k largest weights are not the k largest scores")
            problem = topk.TopKProblem(self.scores[i], self.k, lam=cfg.lam, max_iters=cfg.max_iters, tolerance=cfg.tolerance)
            _, tape = topk.sinkhorn_solve(problem)
            if np.abs(topk.soft_topk_backward(tape, np.ones(problem.n))).max() > 1e-9 * cfg.lam:
                errors.append(f"problem {i}: a uniform upstream gives a nonzero gradient")
        self.failed = int(fails.sum())
        self.first = self.summary(results)
        return errors

    def check_repeat(self, summary) -> list[str]:
        return [] if summary == self.first else ["a batch did not reproduce the first batch bit for bit"]


def solve_problems(scores, upstream, k: int, order):
    """Forward and backward through the public pair ``gradcheck`` uses; (index, gamma, gradient) each."""
    from rankwarp import topk

    cfg = cli_defaults()
    out = []
    for i in order:
        problem = topk.TopKProblem(scores[i], k, lam=cfg.lam, max_iters=cfg.max_iters, tolerance=cfg.tolerance)
        _, tape = topk.sinkhorn_solve(problem)
        gamma = topk.selection_from_tape(problem, tape).gamma
        out.append((int(i), gamma, topk.soft_topk_backward(tape, upstream[i])))
    return out


def cli_defaults():
    from rankwarp.cli import RunConfig

    return RunConfig()


def set_up(workload: str, seed: int, work: str) -> tuple[str, float]:
    """Generate the inputs SETUP_REPEATS times in fresh processes; (input dir, median seconds)."""
    times, dirs = [], []
    for rep in range(SETUP_REPEATS):
        out = os.path.join(work, f"inputs{rep}")
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms, which
        # would quantize the measured time
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed), "--out", out],
            check=True,
        )
        times.append(time.perf_counter() - start)
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    for other in dirs[1:]:
        if filecmp.cmpfiles(dirs[0], other, names, shallow=False)[0] != names:
            raise RuntimeError("the generator wrote different inputs for the same seed")
    return dirs[0], _median(times)


def make_job(workload: str, seed: int, inputs: str, work: str):
    import gen

    if workload == "topk-grad":
        return TopkBatch(inputs, seed)
    return WarpJob(inputs, work, gen.SHAPES[workload])


def peak_pass(workload: str, seed: int, inputs: str, work: str):
    """One job in a fresh process; (its peak resident KiB, the job's summary)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "peak.py"), workload, str(seed), inputs, work],
        check=True, timeout=170, capture_output=True, text=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["peak_kib"], report["summary"]


def timed_run(workload: str, seed: int, job, seconds: float, setup_s: float, inputs: str, work: str):
    errors = job.check_first(job.run())
    rounds = 1
    walls, cpus = [], []
    while sum(walls) < seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = job.run()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        errors += job.check_repeat(job.summary(result))
        rounds += 1
    print(f"{len(walls)} timed jobs, wall s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    peak_kib, summary = peak_pass(workload, seed, inputs, work)
    errors += job.check_repeat(summary)
    rounds += 1
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s": (_median(walls), "s"),
        "job_cpu_s": (_median(cpus), "s"),
        "peak_mib": (peak_kib / 1024.0, "MiB"),
    }
    return metrics, errors, rounds


def install_spans(tracer) -> None:
    """Wrap every public call a warp, fuse or topk-grad job makes into rankwarp."""
    from rankwarp import cli, topk

    layers = {
        "read_tensor": "tensors.read",
        "write_tensor": "tensors.write",
        "l2_normalize_features": "tensors.normalize",
        "semantic_pe": "posenc.spe",
        "append_position": "posenc.append",
        "partition_blocks": "correspondence.partition",
        "warp": "correspondence.warp",
        "confidence_map": "fusion.cmap",
        "fuse": "fusion.fuse",
        "fuse_multichannel": "fusion.fuse",
    }
    for attr, layer in layers.items():
        tracer.wrap(cli, attr, layer)
    tracer.wrap(cli, "rank_blocks", "correspondence.rank", observe=lambda r: {
        "iterations": r.iterations.tolist(), "scored_pairs": r.scored_pairs,
        "candidates": r.candidates.copy(), "gammas": r.gammas.copy(),
    })
    tracer.wrap(cli, "block_attention", "correspondence.attention", observe=lambda c: {"entries": c.entry_count})
    tracer.wrap(cli, "cmd_warp", "cli.warp", leaf=False)
    tracer.wrap(cli, "cmd_fuse", "cli.fuse", leaf=False)
    tracer.wrap(topk, "sinkhorn_solve", "topk.forward", observe=lambda r: {
        "iterations": [r[0].iterations_used], "tape_states": len(r[1].states),
    })
    tracer.wrap(topk, "soft_topk_backward", "topk.backward")


def probes(layers, job, inputs: str, work: str) -> list:
    """(call, check or None) for each layer group the job never called, on the workload's own inputs."""
    import gen
    calls = []
    if "correspondence.rank" not in layers:
        # the pipeline layers, on the pair whose block-cosine rows are the problems
        pair_job = WarpJob(inputs, os.path.join(work, "probe"), gen.SHAPES["topk-grad"])
        calls.append((pair_job.run, pair_job.check_first))
    if "topk.forward" not in layers:
        scores = job.pair["scores"][:TOPK_PROBE_PROBLEMS]
        upstream = np.random.default_rng(0).standard_normal(scores.shape)
        calls.append((lambda: solve_problems(scores, upstream, cli_defaults().k, range(len(scores))), None))
    if "posenc.spe" not in layers:
        calls.append((lambda: region_coordinate_probe(inputs), None))
    return calls


def region_coordinate_probe(inputs: str) -> None:
    """semantic_pe and append_position as ``warp --mask`` calls them, with a 4 x 4 region mask."""
    from rankwarp import cli, tensors

    grid = tensors.l2_normalize_features(tensors.read_tensor(os.path.join(inputs, "cond.ftn")))
    side = grid.height // 4
    labels = np.repeat(np.repeat(np.arange(16, dtype=np.uint32).reshape(4, 4), side, axis=0), side, axis=1)
    channels = cli.semantic_pe(tensors.LabelMask(labels))
    for _ in range(2):
        cli.append_position(grid, channels, cli_defaults().spe_weight)


def traced_run(workload: str, job, seconds: float, inputs: str, work: str, trace_path: str):
    tracer = Tracer()
    install_spans(tracer)
    try:
        errors = job.check_first(job.run())
        rounds = 1
        plain, traced = [], []
        while sum(plain) + sum(traced) < seconds:
            start = time.perf_counter()
            result = job.run()
            plain.append(time.perf_counter() - start)
            errors += job.check_repeat(job.summary(result))
            with tracer.recording(f"job{len(traced)}"):
                start = time.perf_counter()
                result = job.run()
                traced.append(time.perf_counter() - start)
            errors += job.check_repeat(job.summary(result))
            rounds += 2
        with tracer.recording("memory", mode="memory"):
            result = job.run()
        errors += job.check_repeat(job.summary(result))
        rounds += 1
        for call, check in probes(tracer.durations("job0"), job, inputs, work):
            with tracer.recording("probe"):
                result = call()
            if check is not None:
                errors += check(result)
            with tracer.recording("probe-memory", mode="memory"):
                call()
    finally:
        tracer.close()

    jobs = [f"job{i}" for i in range(len(traced))]
    per_job = [tracer.durations(j) for j in jobs]
    probe = tracer.durations("probe")

    def ms(layer: str) -> float:
        if layer in per_job[0]:
            return 1000.0 * _median([d.get(layer, 0.0) for d in per_job])
        return 1000.0 * probe.get(layer, 0.0)

    def per_call_ms(layer: str) -> float:
        for source in (jobs[0], "probe"):
            found = [s["end"] - s["start"] for s in tracer.spans if s["job"] == source and s["name"] == layer]
            if found:
                return 1000.0 * _median(found)
        return 0.0

    def peak_mib(layer: str) -> float:
        for source in ("memory", "probe-memory"):
            found = [p["bytes"] for p in tracer.peaks if p["job"] == source and p["name"] == layer]
            if found:
                return max(found) / MIB
        return 0.0

    def observed(layer: str) -> list[dict]:
        for source in (jobs[0], "probe"):
            found = [o for o in tracer.observed if o["job"] == source and o["name"] == layer]
            if found:
                return found
        return []

    cfg = cli_defaults()
    solver = observed("correspondence.rank") if workload != "topk-grad" else observed("topk.forward")
    iterations = np.concatenate([o["iterations"] for o in solver])
    rank = observed("correspondence.rank")[0]
    if workload == "topk-grad":
        worst_gamma = float(job.gamma_errors.max())
    else:
        rows = problem_scores(job.pair["scores"])
        exact = np.take_along_axis(exact_gamma(rows, rank["candidates"].shape[1], cfg.lam), rank["candidates"].astype(np.int64), axis=1)
        worst_gamma = float(np.abs(rank["gammas"] - exact).max())
    out_dir = job.out if workload != "topk-grad" else os.path.join(work, "probe", "out")
    values = {
        "correspondence.rank_ms": (ms("correspondence.rank"), "ms"),
        "correspondence.rank_peak_mib": (peak_mib("correspondence.rank"), "MiB"),
        "topk.iters_median": (float(np.median(iterations)), "count"),
        "topk.iters_max": (int(iterations.max()), "count"),
        "topk.capped": (int((iterations >= cfg.max_iters).sum()), "count"),
        "topk.problems": (int(iterations.size), "count"),
        "correspondence.attention_ms": (ms("correspondence.attention"), "ms"),
        "correspondence.attention_peak_mib": (peak_mib("correspondence.attention"), "MiB"),
        "correspondence.warp_ms": (ms("correspondence.warp"), "ms"),
        "correspondence.warp_peak_mib": (peak_mib("correspondence.warp"), "MiB"),
        "cli.output_ms": (ms("cli.warp.self"), "ms"),
        "cli.csv_mib": (os.path.getsize(os.path.join(out_dir, "correspondence.csv")) / MIB, "MiB"),
        "posenc.spe_ms": (ms("posenc.spe"), "ms"),
        "posenc.append_ms": (ms("posenc.append"), "ms"),
        "topk.forward_ms": (per_call_ms("topk.forward"), "ms"),
        "topk.backward_ms": (per_call_ms("topk.backward"), "ms"),
        "topk.tape_states": (_median([o["tape_states"] for o in observed("topk.forward")]), "count"),
        "topk.backward_peak_mib": (peak_mib("topk.backward"), "MiB"),
        "tensors.read_ms": (ms("tensors.read"), "ms"),
        "tensors.normalize_ms": (ms("tensors.normalize"), "ms"),
        "tensors.write_ms": (ms("tensors.write"), "ms"),
        "correspondence.partition_ms": (ms("correspondence.partition"), "ms"),
        "fusion.cmap_ms": (ms("fusion.cmap"), "ms"),
        "fusion.fuse_ms": (ms("fusion.fuse"), "ms"),
        "correspondence.scored_pairs": (rank["scored_pairs"], "count"),
        "correspondence.entries": (observed("correspondence.attention")[0]["entries"], "count"),
        "topk.worst_gamma_err": (worst_gamma, "1"),
        "trace.overhead_ms": (1000.0 * (_median(traced) - _median(plain)), "ms"),
    }
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path, {"workload": workload, "plain_s": plain, "traced_s": traced})
    return values, errors, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rankwarp benchmark: one workload, one JSON line of metrics")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rankwarp", "__init__.py")):
        print(f"error: no rankwarp sources under {SRC}; run from the root of a rankwarp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(OUT_ROOT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs, setup_s = set_up(args.workload, args.seed, work)
        job = make_job(args.workload, args.seed, inputs, work)
        if args.trace:
            trace_path = os.path.join(OUT_ROOT, "traces", f"{args.workload}-seed{args.seed}.json")
            values, errors, rounds = traced_run(args.workload, job, args.seconds, inputs, work, trace_path)
        else:
            values, errors, rounds = timed_run(args.workload, args.seed, job, args.seconds, setup_s, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": rounds * job.ops,
        "failed": rounds * job.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
