"""Forward behavior of the transport-based soft top-k solver."""

import warnings

import numpy as np
import pytest

from rankwarp import topk
from rankwarp.correspondence import partition_blocks, rank_blocks
from rankwarp.metrics import run_bench
from rankwarp.tensors import FeatureGrid, ValidationError
from rankwarp.topk import (
    TopKProblem,
    dual_gamma,
    finite_difference_gradient,
    hard_topk_oracle,
    selection_from_tape,
    sinkhorn_solve,
    soft_topk,
    soft_topk_backward,
)


def _marginal_dev(plan, n, k):
    t = plan.astype(np.float64)
    row = np.abs(t.sum(axis=1) - 1.0 / n).max()
    col = np.abs(t.sum(axis=0) - np.array([(n - k) / n, k / n])).max()
    return max(row, col)


_FOUR_BLOCKS = partition_blocks(FeatureGrid(np.ones((4, 4, 2), dtype=np.float32)), 2)
# every public entry point that takes k, each over N = 4 scores or blocks
_K_ENTRY_POINTS = {
    "TopKProblem": lambda k: TopKProblem(np.zeros(4), k),
    "hard_topk_oracle": lambda k: hard_topk_oracle(np.zeros(4), k),
    "dual_gamma": lambda k: dual_gamma(np.zeros((2, 4)), k, lam=50.0),
    "rank_blocks": lambda k: rank_blocks(_FOUR_BLOCKS, _FOUR_BLOCKS, k),
    "run_bench": lambda k: run_bench([(4, 4, 2)], block_side=2, k=k),
}


@pytest.mark.parametrize("k", [0, 1.5, np.nan, np.inf, np.float64(np.inf), 5, np.array([3])],
                         ids=["0", "1.5", "nan", "inf", "numpy-inf", "N+1", "array"])
@pytest.mark.parametrize("entry", sorted(_K_ENTRY_POINTS))
def test_every_entry_point_refuses_a_k_that_is_not_a_whole_count(entry, k):
    # a RuntimeWarning (NaN or inf through numpy's %) is an error here, not a ValidationError
    with pytest.raises(ValidationError) as refused:
        _K_ENTRY_POINTS[entry](k)
    assert str(refused.value).startswith(f"k={k} ")


class TestHardOracle:
    def test_max_element(self):
        assert hard_topk_oracle(np.array([0.9, 0.1, -0.5]), 1).tolist() == [True, False, False]

    def test_full_selection(self):
        assert hard_topk_oracle(np.array([0.2, -0.3, 0.7]), 3).all()

    def test_tie_toward_lower_index(self):
        assert hard_topk_oracle(np.array([0.5, 0.5, 0.1]), 1).tolist() == [True, False, False]

    def test_k_out_of_range(self):
        # the refusals are in test_every_entry_point_refuses_a_k_that_is_not_a_whole_count;
        # a whole count given as a float selects as the int does
        assert hard_topk_oracle(np.array([0.1, 0.3, 0.2]), 2.0).tolist() == [False, True, True]


class TestProblem:
    def test_scores_clamped(self):
        p = TopKProblem(np.array([2.0, -3.0]), k=1)
        assert p.scores.tolist() == [1.0, -1.0]

    def test_whole_float_counts_accepted(self):
        # a whole count given as a float is stored as that int and solves as it does (the
        # refusals are in test_every_entry_point_refuses_a_k_that_is_not_a_whole_count and
        # TestBatch::test_bad_solver_parameters)
        scores = np.array([0.5, 0.1, -0.2, 0.3])
        exact = soft_topk(TopKProblem(scores, k=3, lam=1.0, max_iters=3))
        for counts in (dict(k=3.0, max_iters=3), dict(k=3, max_iters=np.float64(3.0))):
            whole = TopKProblem(scores, lam=1.0, **counts)
            assert (type(whole.k), type(whole.max_iters)) == (int, int)
            assert soft_topk(whole).hard.tolist() == [True, True, False, True]
            assert soft_topk(whole).gamma.tobytes() == exact.gamma.tobytes()
        gamma, iters, _ = dual_gamma(scores[None], 3, 1.0, max_iters=np.float64(3.0))
        assert gamma.tobytes() == exact.gamma[None].tobytes()
        assert iters.tolist() == [3]

    def test_inputs_are_admitted_once(self, monkeypatch):
        # soft_topk solves the scores TopKProblem admitted; finite_difference_gradient
        # admits only its perturbed rows
        admit, calls = topk._admit, []

        def counting_admit(*args):
            calls.append(args)
            return admit(*args)

        monkeypatch.setattr(topk, "_admit", counting_admit)
        problem = TopKProblem(np.array([0.5, 0.1, -0.2, 0.3]), k=2)
        gamma = soft_topk(problem).gamma
        assert len(calls) == 1
        finite_difference_gradient(problem, np.ones(4))
        assert len(calls) == 2
        assert gamma.tobytes() == dual_gamma(problem.scores[None], 2, problem.lam)[0][0].tobytes()


class TestSolve:
    def test_uniform_scores_split_evenly(self):
        p = TopKProblem(np.zeros(4), k=2)
        plan, _ = sinkhorn_solve(p)
        assert np.allclose(plan.plan[:, 1], 0.125, atol=1e-7)
        assert np.allclose(soft_topk(p).gamma, 0.5, atol=1e-6)

    def test_sharp_lambda_selects_max(self):
        p = TopKProblem(np.array([0.9, 0.1, -0.5]), k=1, lam=100.0)
        gamma = soft_topk(p).gamma
        assert np.abs(gamma - np.array([1.0, 0.0, 0.0])).max() < 1e-3

    def test_marginals_at_convergence(self):
        rng = np.random.default_rng(21)
        converged = 0
        for _ in range(60):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, n))
            lam = float(rng.choice([5.0, 20.0, 50.0]))
            p = TopKProblem(rng.uniform(-1, 1, n), k=k, lam=lam, max_iters=3000)
            plan, _ = sinkhorn_solve(p)
            if plan.marginal_error <= p.tolerance:
                converged += 1
                assert _marginal_dev(plan.plan, n, k) <= 1e-6
                gamma = soft_topk(p).gamma
                assert abs(gamma.sum() - k) < 1e-4
                # gamma is n * row mass, so a row-sum slack of tol admits
                # an overshoot of n * tol above 1
                assert gamma.min() > -1e-9
                assert gamma.max() < 1 + n * p.tolerance
        assert converged >= 40, f"only {converged} instances converged"

    def test_nonconvergence_is_reported_not_raised(self):
        p = TopKProblem(np.array([0.5, 0.49, -0.7]), k=1, lam=80.0, max_iters=3)
        plan, _ = sinkhorn_solve(p)
        assert plan.iterations_used == 3
        assert plan.marginal_error > 0.1

    def test_refused_exactly_past_the_step_range(self):
        # N=2, k=1 has logit(k/N) = 0, so the bound is max(|z_top|, z_top - z_min)
        # with z = 4 * lam * a: 8 * lam for scores +-1 and 4 * lam for equal ones
        for scores, edge in (([1.0, -1.0], 87.5), ([1.0, 1.0], 175.0), ([-1.0, -1.0], 175.0)):
            plan, tape = sinkhorn_solve(TopKProblem(np.array(scores), k=1, lam=edge))
            assert np.isfinite(tape.states).all() and np.isfinite(plan.plan).all()
            with pytest.raises(ValidationError, match="lambda"):
                sinkhorn_solve(TopKProblem(np.array(scores), k=1, lam=np.nextafter(edge, np.inf)))
        # k == N runs no step, so no lambda is out of range
        assert sinkhorn_solve(TopKProblem(np.array([1.0, -1.0]), k=2, lam=1e5))[0].iterations_used == 0

    def test_topk_grad_shape_always_accepted(self):
        # the benchmark's problems (N=400, k=3, lambda=50) at the widest score
        # spreads: |logit(3/400)| + 8 * 50 is about 405, well inside 700
        rng = np.random.default_rng(23)
        one_top = np.full(400, -1.0)
        one_top[7] = 1.0
        for scores in (one_top, -one_top, np.ones(400), -np.ones(400), rng.choice([-1.0, 1.0], 400)):
            p = TopKProblem(scores, k=3, lam=50.0)
            plan, tape = sinkhorn_solve(p)
            grad = soft_topk_backward(tape, rng.standard_normal(400))
            assert np.isfinite(tape.states).all() and np.isfinite(plan.plan).all()
            assert np.isfinite(grad).all()

    def test_nonnegative_every_iteration(self):
        # the plan after each step m is the plan of a solve cut at m steps,
        # whose gaps are the first m + 1 of the full solve's
        a = np.array([0.8, -0.2, 0.3, -0.9])
        _, tape = sinkhorn_solve(TopKProblem(a, k=2, lam=80.0, max_iters=50, tolerance=1e-300))
        assert np.isfinite(tape.states).all()
        for m in range(1, 51):
            plan, cut = sinkhorn_solve(TopKProblem(a, k=2, lam=80.0, max_iters=m, tolerance=1e-300))
            assert cut.states == tape.states[: m + 1]
            assert plan.plan.min() >= 0.0 and np.isfinite(plan.plan).all()

    def test_k_equals_n_fully_constrained(self):
        p = TopKProblem(np.array([0.7, -0.7]), k=2)
        plan, _ = sinkhorn_solve(p)
        assert np.array_equal(plan.plan, np.array([[0.0, 0.5], [0.0, 0.5]], dtype=np.float32))
        assert soft_topk(p).gamma.tolist() == [1.0, 1.0]

    def test_single_score(self):
        p = TopKProblem(np.array([-0.3]), k=1)
        assert soft_topk(p).gamma.tolist() == [1.0]

    def test_determinism(self):
        a = np.random.default_rng(9).uniform(-1, 1, 16)
        p1, t1 = sinkhorn_solve(TopKProblem(a, k=4, lam=30.0))
        p2, t2 = sinkhorn_solve(TopKProblem(a, k=4, lam=30.0))
        assert p1.plan.tobytes() == p2.plan.tobytes()
        assert t1.states == t2.states


class TestIndicatorLimit:
    def test_separated_scores_match_oracle(self):
        # sharpness x gap = 60 * 0.2 >> 1, so converged gamma is an indicator;
        # the stop tolerance must sit well under the asserted deviation, as
        # residual gamma error tracks n * tolerance rather than the true leak
        rng = np.random.default_rng(31)
        converged = 0
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, n))
            boundary = rng.uniform(-0.7, 0.7)
            top = rng.uniform(boundary + 0.2, 1.0, k)
            bot = rng.uniform(-1.0, boundary, n - k)
            a = np.concatenate([top, bot])[rng.permutation(n)]
            p = TopKProblem(a, k=k, lam=60.0, max_iters=3000, tolerance=2e-8)
            plan, tape = sinkhorn_solve(p)
            if plan.marginal_error > p.tolerance:
                continue
            converged += 1
            sel = selection_from_tape(p, tape)
            worst = max(worst, np.abs(sel.gamma - sel.hard.astype(np.float64)).max())
        assert converged >= 25, f"only {converged} instances converged"
        assert worst < 1e-3, f"worst converged deviation {worst:.2e}"

    def test_hard_limit_argsort_consistency(self):
        # identification needs no convergence, only enough dual progress
        rng = np.random.default_rng(32)
        for trial in range(100):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, n))
            boundary = rng.uniform(-0.8, 0.8)
            top = rng.uniform(boundary + 0.1, 1.0, k)
            bot = rng.uniform(-1.0, boundary, n - k)
            a = np.concatenate([top, bot])[rng.permutation(n)]
            lam = float(rng.choice([100.0, 200.0]))
            p = TopKProblem(a, k=k, lam=lam, max_iters=4000)
            sel = soft_topk(p)
            got = np.sort(np.argsort(-sel.gamma, kind="stable")[:k])
            want = np.sort(np.flatnonzero(sel.hard))
            assert np.array_equal(got, want), f"trial {trial} mis-identified"


class TestMonotonicity:
    def test_gamma_monotone_in_own_score(self):
        rng = np.random.default_rng(41)
        for trial in range(25):
            n = int(rng.integers(3, 17))
            k = int(rng.integers(1, n))
            a = rng.uniform(-0.9, 0.9, n)
            i = int(rng.integers(0, n))
            before = soft_topk(TopKProblem(a, k=k, lam=20.0, max_iters=3000)).gamma[i]
            bumped = a.copy()
            bumped[i] = min(bumped[i] + 0.08, 1.0)
            after = soft_topk(TopKProblem(bumped, k=k, lam=20.0, max_iters=3000)).gamma[i]
            assert after >= before - 1e-5, f"trial {trial}: {before:.6f} -> {after:.6f}"


def _sinkhorn_reference(scores, k, lam):
    """Per-row gamma from sinkhorn_solve and whether its own stop rule ended the run."""
    p = TopKProblem(scores, k=k, lam=lam, max_iters=5000, tolerance=1e-10)
    plan, tape = sinkhorn_solve(p)
    return selection_from_tape(p, tape).gamma, plan.marginal_error <= 0.5 * p.tolerance


class TestBatch:
    # Sinkhorn slows to a crawl on rows whose k-th score gap is wide at this
    # lambda (still off by 1e-6 in plan units after 20000 steps), so the
    # 1e-8 bound applies to the rows it converges on; every row must still
    # rank the same k first.
    def _check_against_sinkhorn(self, scores, k, lam):
        gamma, _, errs = dual_gamma(scores, k, lam, tolerance=1e-12)
        assert errs.max() <= 1e-12
        converged = 0
        for i in range(len(scores)):
            ref, done = _sinkhorn_reference(scores[i], k, lam)
            top = np.sort(np.argsort(-gamma[i], kind="stable")[:k])
            assert np.array_equal(top, np.sort(np.argsort(-ref, kind="stable")[:k])), f"row {i}"
            if done:
                converged += 1
                assert np.abs(gamma[i] - ref).max() <= 1e-8, f"row {i} off converged Sinkhorn"
        return converged

    def test_matches_converged_single_solves(self):
        rng = np.random.default_rng(51)
        scores = rng.uniform(-1, 1, (20, 24))
        assert self._check_against_sinkhorn(scores, 5, 50.0) >= 10

    def test_k_equals_n(self):
        gamma, iters, errs = dual_gamma(np.zeros((3, 4)), k=4, lam=50.0)
        assert np.array_equal(gamma, np.ones((3, 4)))
        assert iters.tolist() == [0, 0, 0]
        assert errs.tolist() == [0.0, 0.0, 0.0]

    def test_per_problem_k_matches_converged_single_solves(self):
        # mixed counts, one call per count, k == n rows included
        rng = np.random.default_rng(52)
        scores = rng.uniform(-1, 1, (9, 12))
        ks = np.array([1, 3, 12, 5, 7, 2, 12, 9, 4])
        assert sum(self._check_against_sinkhorn(scores[ks == k], k, 35.0) for k in np.unique(ks)) >= 6
        gamma, iters, _ = dual_gamma(scores[ks == 12], 12, lam=35.0)
        assert np.array_equal(gamma, np.ones((2, 12)))
        assert iters.tolist() == [0, 0]

    def test_stopped_rows_meet_tolerance(self):
        rng = np.random.default_rng(53)
        for lam in (50.0, 200.0, 1000.0):
            for n in (4, 64, 1024, 4096):
                scores = rng.uniform(-1, 1, (16, n))
                ks = rng.integers(1, n + 1, 16)
                for row, k in zip(scores, ks):
                    gamma, iters, errs = dual_gamma(row[None], k, lam, max_iters=100, tolerance=1e-6)
                    true_err = np.abs(gamma.sum(axis=1) - k)
                    stopped = iters < 100
                    assert stopped.all(), f"lam={lam} N={n} k={k}: the row used all 100 steps"
                    assert (true_err[stopped] <= 1e-6).all(), f"lam={lam} N={n} k={k}"
                    assert np.array_equal(errs, true_err)
                    assert ((gamma >= 0) & (gamma <= 1)).all()

    def test_step_cap_reports_true_error(self):
        rng = np.random.default_rng(54)
        scores = rng.uniform(-1, 1, (32, 1024))
        gamma, iters, errs = dual_gamma(scores, 3, lam=1000.0, max_iters=1, tolerance=1e-12)
        capped = errs > 1e-12
        assert capped.any()
        assert (iters[capped] == 1).all()
        assert np.array_equal(errs, np.abs(gamma.sum(axis=1) - 3))

    def test_per_problem_k_validation(self):
        # k is one count for every row: an array of counts is refused, even one that
        # matches the rows and holds only valid counts
        for ks in (np.array([1, 2]), np.array([1, 0, 2]), np.array([1, 5, 2]), np.array([1, 2.5, 2]),
                   np.array([1, np.nan, 2]), np.array([1, np.inf, 2]), np.array([1, 2, 3])):
            with pytest.raises(ValidationError, match="^k="):
                dual_gamma(np.zeros((3, 4)), ks, lam=50.0)

    @pytest.mark.parametrize(
        "knobs",
        [{"lam": np.nan}, {"lam": np.inf}, {"lam": 0.0}, {"tolerance": np.nan},
         {"tolerance": np.inf}, {"tolerance": 0.0}, {"max_iters": 0},
         {"scores": np.array([[0.1, np.nan]])}, {"scores": np.array([[np.inf, 0.0]])},
         {"k": 2.7}, {"k": np.nan}, {"lam": 1e308}, {"max_iters": 2.5},
         {"max_iters": np.nan}, {"max_iters": np.inf}, {"max_iters": np.float64(np.inf)}],
    )
    def test_bad_solver_parameters(self, knobs):
        # dual_gamma and TopKProblem admit their inputs by one rule: each refusal is a
        # ValidationError from both, with no RuntimeWarning on the way
        problem = {"scores": np.zeros((3, 4)), "k": 1, "lam": 50.0, **knobs}
        for entry in (dual_gamma, TopKProblem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError):
                    entry(**problem)

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            dual_gamma(np.zeros(4), k=1, lam=50.0)
