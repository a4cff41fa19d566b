"""Reverse-mode gradients of the solver versus finite differences."""

import math

import numpy as np
import pytest

from rankwarp.tensors import ValidationError
from rankwarp.topk import (
    TopKProblem,
    build_cost,
    finite_difference_gradient,
    selection_from_tape,
    sinkhorn_solve,
    soft_topk_backward,
)


def _worst_rel(grad, reference, floor=1e-6):
    mask = np.abs(reference) > floor
    if not mask.any():
        return 0.0
    return float((np.abs(grad - reference)[mask] / np.abs(reference)[mask]).max())


class TestStructure:
    def test_sum_gamma_gradient_vanishes(self):
        # sum(gamma) = k is pinned by the column marginal
        p = TopKProblem(np.array([0.3, -0.2, 0.8, 0.1]), k=2, lam=20.0, max_iters=3000)
        _, tape = sinkhorn_solve(p)
        grad = soft_topk_backward(tape, np.ones(4))
        assert np.abs(grad).max() < 1e-3

    def test_zero_upstream_zero_gradient(self):
        p = TopKProblem(np.array([0.5, -0.5, 0.1]), k=1, lam=20.0)
        _, tape = sinkhorn_solve(p)
        assert np.array_equal(soft_topk_backward(tape, np.zeros(3)), np.zeros(3))

    def test_k_equals_n_gradient_is_zero(self):
        p = TopKProblem(np.array([0.9, -0.9]), k=2)
        _, tape = sinkhorn_solve(p)
        assert np.array_equal(soft_topk_backward(tape, np.array([1.0, -2.0])), np.zeros(2))

    def test_shape_mismatch(self):
        p = TopKProblem(np.array([0.1, 0.2]), k=1)
        _, tape = sinkhorn_solve(p)
        with pytest.raises(ValidationError):
            soft_topk_backward(tape, np.ones(3))

    def test_gradient_deterministic(self):
        a = np.random.default_rng(4).uniform(-1, 1, 12)
        up = np.random.default_rng(5).standard_normal(12)
        grads = []
        for _ in range(2):
            _, tape = sinkhorn_solve(TopKProblem(a, k=3, lam=25.0, max_iters=2000))
            grads.append(soft_topk_backward(tape, up))
        assert grads[0].tobytes() == grads[1].tobytes()


class TestFiniteDifferences:
    def test_single_instance_step_1e3(self):
        # one random N=8, k=3, lambda=20 instance at the coarse 1e-3 step;
        # the coarse oracle carries ~(4*lam*h)^2/6 = 1e-3 truncation on tail
        # components, so the instance must keep those below the mask floor
        rng = np.random.default_rng(22)
        a = rng.uniform(-0.95, 0.95, 8)
        p = TopKProblem(a, k=3, lam=20.0, max_iters=5000)
        _, tape = sinkhorn_solve(p)
        up = rng.standard_normal(8)
        grad = soft_topk_backward(tape, up)
        reference = finite_difference_gradient(p, up, step=1e-3)
        worst = _worst_rel(grad, reference)
        assert worst < 1e-3, f"worst relative error {worst:.3e}"

    def test_battery_step_1e4(self):
        # finer step keeps the oracle's own truncation error out of the metric
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            a = rng.uniform(-0.95, 0.95, 8)
            p = TopKProblem(a, k=3, lam=20.0, max_iters=5000)
            _, tape = sinkhorn_solve(p)
            up = rng.standard_normal(8)
            grad = soft_topk_backward(tape, up)
            worst = max(worst, _worst_rel(grad, finite_difference_gradient(p, up, step=1e-4)))
        assert worst < 1e-3, f"worst relative error {worst:.3e}"

    def test_truncated_map_gradient(self):
        # the unrolled gradient differentiates exactly what was computed,
        # converged or not: check a 3-iteration truncation
        rng = np.random.default_rng(10)
        for trial in range(5):
            a = rng.uniform(-0.9, 0.9, 6)
            p = TopKProblem(a, k=2, lam=40.0, max_iters=3)
            _, tape = sinkhorn_solve(p)
            up = rng.standard_normal(6)
            grad = soft_topk_backward(tape, up)
            reference = finite_difference_gradient(p, up, step=1e-5)
            worst = _worst_rel(grad, reference)
            assert worst < 1e-3, f"trial {trial}: {worst:.3e}"

    def test_varied_k_and_lambda(self):
        rng = np.random.default_rng(12)
        for trial in range(12):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            lam = float(rng.choice([5.0, 15.0, 40.0]))
            a = rng.uniform(-0.9, 0.9, n)
            p = TopKProblem(a, k=k, lam=lam, max_iters=4000)
            _, tape = sinkhorn_solve(p)
            up = rng.standard_normal(n)
            grad = soft_topk_backward(tape, up)
            worst = _worst_rel(grad, finite_difference_gradient(p, up, step=1e-4))
            assert worst < 1e-3, f"trial {trial} (n={n} k={k} lam={lam}): {worst:.3e}"


class TestTape:
    def test_replay_reproduces_plan_bit_exactly(self):
        # a solve pinned to the recorded step count, as finite_difference_gradient
        # runs it, replays every gap and the plan bit for bit
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = rng.uniform(-1, 1, 10)
            plan, tape = sinkhorn_solve(TopKProblem(a, k=3, lam=30.0))
            pinned = TopKProblem(a, k=3, lam=30.0, max_iters=plan.iterations_used, tolerance=1e-300)
            replayed, again = sinkhorn_solve(pinned)
            assert again.states == tape.states
            assert np.array_equal(replayed.plan, plan.plan)

    def test_tape_length_matches_iterations(self):
        plan, tape = sinkhorn_solve(TopKProblem(np.array([0.4, -0.1, 0.6]), k=1, lam=10.0))
        assert len(tape.states) == plan.iterations_used + 1


def _legacy_sinkhorn(problem, upstream):
    """The N x 2 log-domain Sinkhorn and its unrolled backward that the gap
    recursion replaced, kept as its oracle; (iterations, error, gamma, gradient)."""
    n, k = problem.n, problem.k
    log_mu = -math.log(n)
    log_nu = np.log(np.array([(n - k) / n, k / n]))
    a = problem.scores.astype(np.float64)

    def row_step(s):
        return s + (log_mu - np.logaddexp(s[:, 0], s[:, 1]))[:, None]

    def col_step(s):
        mx = s.max(axis=0, keepdims=True)
        return s + (log_nu - (mx + np.log(np.exp(s - mx).sum(axis=0, keepdims=True))))

    states = [-problem.lam * build_cost(a)]
    for _ in range(problem.max_iters):
        states.append(col_step(row_step(states[-1])))
        t = np.exp(states[-1])
        row = np.abs(t.sum(axis=1) - 1.0 / n).max()
        err = max(row, np.abs(t.sum(axis=0) - np.exp(log_nu)).max())
        if err <= 0.5 * problem.tolerance:
            break
    ds = np.zeros((n, 2))
    ds[:, 1] = upstream * n * np.exp(states[-1][:, 1])
    for m in range(len(states) - 2, -1, -1):
        ds = ds - np.exp(states[m + 1] - log_nu) * ds.sum(axis=0, keepdims=True)
        ds = ds - np.exp(row_step(states[m]) - log_mu) * ds.sum(axis=1, keepdims=True)
    dcost = -problem.lam * ds
    grad = dcost[:, 0] * 2.0 * (a + 1.0) + dcost[:, 1] * 2.0 * (a - 1.0)
    return len(states) - 1, err, n * np.exp(states[-1][:, 1]), grad


def _cross_check_cases():
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 65))
        cases.append((rng.uniform(-1, 1, n), int(rng.integers(1, n)), float(rng.choice([5.0, 20.0, 50.0, 200.0])), 100))
    cases += [
        (np.full(16, 0.5), 4, 1000.0, 100),  # every score equal: sigmoid(-x) underflows
        (np.full(16, -0.7), 4, 1000.0, 100),  # and sigmoid(x)
        (rng.uniform(-1, 1, 24), 5, 1e5, 100),
        (rng.uniform(-1, 1, 24), 23, 50.0, 100),  # k = N - 1
        (rng.uniform(-1, 1, 24), 6, 50.0, 3),  # truncated
        (rng.uniform(-1, 1, 400), 3, 50.0, 100),  # the backward replays the steps in several blocks
    ]
    return cases


class TestGapRecursion:
    @pytest.mark.parametrize("case", _cross_check_cases())
    def test_matches_legacy_sinkhorn(self, case):
        scores, k, lam, max_iters = case
        problem = TopKProblem(scores, k=k, lam=lam, max_iters=max_iters)
        upstream = np.random.default_rng(15).standard_normal(problem.n)
        iters, err, gamma, grad = _legacy_sinkhorn(problem, upstream)
        plan, tape = sinkhorn_solve(problem)
        assert plan.iterations_used == iters
        # the legacy states hold lam * cost, so they round at about 1e-16 * lam:
        # that floor bounds the error and gradient of an all-equal row
        assert abs(plan.marginal_error - err) <= 1e-12
        assert np.abs(selection_from_tape(problem, tape).gamma - gamma).max() <= 1e-12
        got = soft_topk_backward(tape, upstream)
        floor = 1e-13 * lam * np.linalg.norm(upstream)
        assert np.linalg.norm(got - grad) <= 1e-10 * np.linalg.norm(grad) + floor
