"""Gradients of the soft top-k versus finite differences.

The exact dual's closed-form VJP is checked against central differences of the
exact map; the Sinkhorn replay that the benchmark times is checked against
its legacy log-domain form, its own truncated map and the dual VJP, and its
direct steps against its own log-domain steps.
"""

import math

import numpy as np
import pytest

from rankwarp import topk
from rankwarp.tensors import ValidationError
from rankwarp.topk import (
    EXACT_TOLERANCE,
    TopKProblem,
    dual_gamma_vjp,
    finite_difference_gradient,
    selection_from_tape,
    sinkhorn_solve,
    soft_topk,
    soft_topk_backward,
)


def _worst_rel(grad, reference, floor=1e-6):
    mask = np.abs(reference) > floor
    if not mask.any():
        return 0.0
    return float((np.abs(grad - reference)[mask] / np.abs(reference)[mask]).max())


def _exact(scores, k, lam):
    """A problem whose soft_topk solve stands for the exact map."""
    return TopKProblem(scores, k=k, lam=lam, tolerance=EXACT_TOLERANCE)


def _dual_gradient(problem, upstream):
    return dual_gamma_vjp(soft_topk(problem).gamma, upstream, problem.lam)


class TestStructure:
    """Properties every soft top-k gradient has: here Sinkhorn's replay,
    in the subclass below the dual VJP."""

    @staticmethod
    def backward(problem, upstream):
        _, tape = sinkhorn_solve(problem)
        return soft_topk_backward(tape, upstream)

    def test_sum_gamma_gradient_vanishes(self):
        # sum(gamma) = k is pinned by the column marginal
        p = TopKProblem(np.array([0.3, -0.2, 0.8, 0.1]), k=2, lam=20.0, max_iters=3000)
        assert np.abs(self.backward(p, np.ones(4))).max() < 1e-3

    def test_zero_upstream_zero_gradient(self):
        p = TopKProblem(np.array([0.5, -0.5, 0.1]), k=1, lam=20.0)
        assert np.array_equal(self.backward(p, np.zeros(3)), np.zeros(3))

    def test_k_equals_n_gradient_is_zero(self):
        p = TopKProblem(np.array([0.9, -0.9]), k=2)
        assert np.array_equal(self.backward(p, np.array([1.0, -2.0])), np.zeros(2))

    def test_shape_mismatch(self):
        p = TopKProblem(np.array([0.1, 0.2]), k=1)
        with pytest.raises(ValidationError):
            self.backward(p, np.ones(3))

    def test_gradient_deterministic(self):
        a = np.random.default_rng(4).uniform(-1, 1, 12)
        up = np.random.default_rng(5).standard_normal(12)
        p = TopKProblem(a, k=3, lam=25.0, max_iters=2000)
        grads = [self.backward(p, up) for _ in range(2)]
        assert grads[0].tobytes() == grads[1].tobytes()


class TestDualStructure(TestStructure):
    backward = staticmethod(_dual_gradient)

    def test_rows_along_the_last_axis(self):
        rng = np.random.default_rng(6)
        problems = [_exact(rng.uniform(-1, 1, 7), k, 30.0) for k in (1, 3, 7)]
        up = rng.standard_normal((3, 7))
        gamma = np.stack([soft_topk(p).gamma for p in problems])
        rows = [dual_gamma_vjp(g, u, 30.0) for g, u in zip(gamma, up)]
        assert np.array_equal(dual_gamma_vjp(gamma, up, 30.0), np.stack(rows))

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lambda(self, lam):
        with pytest.raises(ValidationError):
            dual_gamma_vjp(np.full(3, 0.5), np.ones(3), lam)


class TestFiniteDifferences:
    def test_single_instance_step_1e3(self):
        # one random N=8, k=3, lambda=20 instance at the coarse 1e-3 step;
        # the coarse oracle carries ~(4*lam*h)^2/6 = 1e-3 truncation on tail
        # components, so the instance must keep those below the mask floor
        rng = np.random.default_rng(22)
        p = _exact(rng.uniform(-0.95, 0.95, 8), 3, 20.0)
        up = rng.standard_normal(8)
        reference = finite_difference_gradient(p, up, step=1e-3)
        worst = _worst_rel(_dual_gradient(p, up), reference)
        assert worst < 1e-3, f"worst relative error {worst:.3e}"

    def test_battery_step_1e4(self):
        # finer step keeps the oracle's own truncation error out of the metric
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            p = _exact(rng.uniform(-0.95, 0.95, 8), 3, 20.0)
            up = rng.standard_normal(8)
            reference = finite_difference_gradient(p, up, step=1e-4)
            worst = max(worst, _worst_rel(_dual_gradient(p, up), reference))
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
            reference = _pinned_sinkhorn_difference(p, up, step=1e-5)
            worst = _worst_rel(grad, reference)
            assert worst < 1e-3, f"trial {trial}: {worst:.3e}"

    def test_upstream_size_mismatch(self):
        p = TopKProblem(np.array([0.1, 0.2, 0.3]), k=1)
        for upstream in (np.ones(2), np.ones(4)):
            with pytest.raises(ValidationError):
                finite_difference_gradient(p, upstream)

    def test_varied_k_and_lambda(self):
        rng = np.random.default_rng(12)
        for trial in range(12):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            lam = float(rng.choice([5.0, 15.0, 40.0]))
            p = _exact(rng.uniform(-0.9, 0.9, n), k, lam)
            up = rng.standard_normal(n)
            worst = _worst_rel(_dual_gradient(p, up), finite_difference_gradient(p, up, step=1e-4))
            assert worst < 1e-3, f"trial {trial} (n={n} k={k} lam={lam}): {worst:.3e}"


def _pinned_sinkhorn_difference(problem, upstream, step):
    """Central differences of the Sinkhorn map cut at the base solve's step count.

    The divisor is the realized float32 score difference, not the nominal step.
    """
    iters = max(sinkhorn_solve(problem)[0].iterations_used, 1)
    grad = np.zeros(problem.n)
    for i in range(problem.n):
        losses, realized = [], []
        for sign in (+1.0, -1.0):
            a = problem.scores.astype(np.float64)
            a[i] += sign * step
            pert = TopKProblem(a, k=problem.k, lam=problem.lam, max_iters=iters, tolerance=1e-300)
            realized.append(float(pert.scores[i]))
            gamma = selection_from_tape(pert, sinkhorn_solve(pert)[1]).gamma
            losses.append(float(gamma @ upstream))
        grad[i] = (losses[0] - losses[1]) / (realized[0] - realized[1])
    return grad


class TestTape:
    def test_replay_reproduces_plan_bit_exactly(self):
        # a solve pinned to the recorded step count, as the pinned central
        # difference runs it, replays every gap and the plan bit for bit
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

    states = [-problem.lam * np.stack([(a + 1.0) ** 2, (a - 1.0) ** 2], axis=-1)]
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


def _step_form_cases():
    rng = np.random.default_rng(17)
    cases = [(rng.uniform(-1, 1, 400), 3, 50.0, 100) for _ in range(3)]  # the topk-grad shape
    cases.append((rng.uniform(-1, 1, 400), 3, 200.0, 100))  # the first steps lie out of range
    for n in (3, 9, 50):
        for lam in (5.0, 50.0, 200.0):
            cases += [(rng.uniform(-1, 1, n), 1, lam, 100), (rng.uniform(-1, 1, n), n - 1, lam, 100)]
    cases.append((rng.uniform(-1, 1, 24), 6, 50.0, 3))  # truncated
    return cases


class TestStepForms:
    def test_direct_steps_match_log_domain_steps(self, monkeypatch):
        # the same battery solved and replayed twice: with the direct step
        # wherever |z_top + t| is in range, then with a range that admits no
        # step, so that every step runs in the log domain
        rng = np.random.default_rng(18)
        runs = []
        for scores, k, lam, max_iters in _step_form_cases():
            problem = TopKProblem(scores, k=k, lam=lam, max_iters=max_iters)
            upstream = rng.standard_normal(problem.n)
            plan, tape = sinkhorn_solve(problem)
            runs.append((problem, upstream, plan, tape, soft_topk_backward(tape, upstream)))
        limit = topk._DIRECT_LIMIT
        monkeypatch.setattr(topk, "_DIRECT_LIMIT", -1.0)
        direct, steps, straddling = 0, 0, 0
        for problem, upstream, plan, tape, grad in runs:
            log_plan, log_tape = sinkhorn_solve(problem)
            assert plan.iterations_used == log_plan.iterations_used
            assert np.abs(tape.gamma - log_tape.gamma).max() <= 1e-12
            log_grad = soft_topk_backward(log_tape, upstream)
            # both forms round at about 1e-16 * lam per replayed step: on a
            # saturated N=3 row both give 1e-73 for a gradient whose exact
            # value is 8.8e-95, so the bound has the legacy cross-check's floor
            floor = 1e-13 * problem.lam * np.linalg.norm(upstream)
            assert np.linalg.norm(grad - log_grad) <= 1e-10 * np.linalg.norm(log_grad) + floor
            inside = np.abs(tape.z.max() + np.array(tape.states[:-1])) <= limit
            direct, steps = direct + int(inside.sum()), steps + inside.size
            # the backward replays all but the last step in blocks, last block first
            replayed, rows = inside[:-1], max(1, topk._BACKWARD_ENTRIES // problem.n)
            blocks = [replayed[max(0, hi - rows) : hi] for hi in range(replayed.size, 0, -rows)]
            straddling += sum(block.any() and not block.all() for block in blocks)
        assert direct >= 0.8 * steps, f"only {direct} of {steps} steps took the direct form"
        assert straddling >= 2, f"only {straddling} backward blocks straddle the range limit"


class TestSinkhornLimit:
    def test_converged_battery_matches_dual_vjp(self):
        # the battery's instances: where Sinkhorn meets a 1e-12 marginal
        # tolerance within 5000 steps, its replayed gradient is the exact map's.
        # At the default 1e-6 the truncated map's gradient can miss it many
        # times over even where the stop rule is met, and the slowest
        # instances do not reach 1e-12 at all.
        rng = np.random.default_rng(9)
        worst, converged = 0.0, 0
        for _ in range(50):
            a = rng.uniform(-0.95, 0.95, 8)
            p = TopKProblem(a, k=3, lam=20.0, max_iters=5000, tolerance=1e-12)
            plan, tape = sinkhorn_solve(p)
            up = rng.standard_normal(8)
            if plan.marginal_error <= 0.5 * p.tolerance:
                converged += 1
                exact = _dual_gradient(_exact(a, 3, 20.0), up)
                worst = max(worst, _worst_rel(soft_topk_backward(tape, up), exact))
        assert converged >= 15, f"only {converged} instances converged"
        assert worst < 1e-3, f"worst relative error {worst:.3e}"
