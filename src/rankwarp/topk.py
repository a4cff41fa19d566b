"""Differentiable top-k selection via entropic transport.

Selecting the k largest of N correlation scores is cast as an earth mover's
problem between the scores and the two-point support {-1, +1}: mass moved to
+1 marks a score as selected.  Costs are squared distances to -1 and +1, row
marginals 1/N and column marginals ((N - k)/N, k/N).  Score i's soft weight
gamma_i = N * T[i, 1] of the entropic plan T is sigmoid(4 * lambda * a_i + t)
for one dual gap t per problem.  :func:`dual_gamma` solves for t exactly and
:func:`dual_gamma_vjp` differentiates the solution in closed form; every
caller in the package runs this pair.  A Sinkhorn solver and its replayed
backward remain for the benchmark's ``topk-grad`` workload alone.  Their
steps form sigmoid(z + t) from u = exp(z - z_top), computed once per problem,
and one scalar exp(z_top + t); a problem whose steps could take |z_top + t|
past 700, where e^x nears float64 overflow, is refused (never at lambda <= 85).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensors import ValidationError

EXACT_TOLERANCE = 1e-13  # |sum(gamma) - k| of the solves a gradient check takes as exact


def _check_lambda(lam) -> None:
    # the logits are 4 * lam * a, so 4 * lam must be finite as well as lam
    if not (lam > 0 and math.isfinite(4.0 * float(lam))):
        raise ValidationError(f"lambda must be positive with 4 * lambda finite, got {lam}")


def _whole_count(k, n: float = math.inf, of: str = "scores", name: str = "k") -> int:
    """``name`` as an int in 1..n: one whole count, given as an int or a whole float."""
    # the range test comes first, and is k < n + 1 so that NaN and inf never reach %,
    # also with no upper bound (n = inf); an array, even of one count, is refused
    if np.ndim(k) == 0 and 1 <= k < n + 1 and not k % 1:
        return int(k)
    raise ValidationError(f"{name}={k} is not a whole count in 1..{n} {of}")


def _admit(scores, k, lam, max_iters, tolerance):
    """The one check of :func:`dual_gamma`'s and :class:`TopKProblem`'s inputs.

    Returns the (B, N) scores clamped to [-1, 1] and rounded to float32, and
    ``k`` and ``max_iters`` as ints.
    """
    raw = np.asarray(scores, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] < 1:
        raise ValidationError(f"scores must be (B, N) with N >= 1, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValidationError("scores must be finite")
    k = _whole_count(k, raw.shape[1], "scores per row")
    _check_lambda(lam)
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ValidationError("tolerance must be finite and positive")
    max_iters = _whole_count(max_iters, of="Newton steps", name="max_iters")
    return np.clip(raw, -1.0, 1.0).astype(np.float32), k, max_iters


@dataclass(frozen=True)
class TopKProblem:
    """One ranking instance: N scores in [-1, 1], a selection size k, and solver knobs."""

    scores: np.ndarray
    k: int
    lam: float = 50.0
    max_iters: int = 100
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        row = np.asarray(self.scores).reshape(1, -1)
        scores, k, max_iters = _admit(row, self.k, self.lam, self.max_iters, self.tolerance)
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores[0])
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "max_iters", max_iters)

    @property
    def n(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class SoftSelection:
    """Soft membership weights gamma_i = N * T[i, 1] plus the hard oracle set."""

    gamma: np.ndarray  # float64 in [0, 1] at convergence
    hard: np.ndarray  # bool, exactly k True


def hard_topk_oracle(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest scores, ties broken toward the lower index."""
    a = np.asarray(scores).reshape(-1)
    k = _whole_count(k, a.size)
    mask = np.zeros(a.size, dtype=bool)
    mask[np.argsort(-a, kind="stable")[:k]] = True
    return mask


def dual_gamma(
    scores: np.ndarray, k: int, lam: float, max_iters: int = 100, tolerance: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve B ranking problems (rows of ``scores``) exactly through their scalar dual.

    Every plan row has mass 1/N, so gamma_i = sigmoid(4 * lam * a_i + t) with t
    the root of sum(gamma) = k, found by Newton steps that bisect a bracket on
    the root whenever they leave it.  The inputs pass :class:`TopKProblem`'s
    check, and the scores its clamp and float32 rounding; ``k`` is one whole
    count for every row.  A row stops once |sum(gamma) - k| <= ``tolerance``
    or after ``max_iters`` steps.  Returns gamma (B, N) float64, the Newton
    steps per row and the final |sum(gamma) - k| per row.  The gradient needs
    only gamma: see :func:`dual_gamma_vjp`.
    """
    a, k, max_iters = _admit(scores, k, lam, max_iters, tolerance)
    z = 4.0 * lam * a.astype(np.float64)
    del a  # z carries the scores from here, so the float32 copy adds nothing to the peak
    return _solve(z, k, max_iters, tolerance)


def _solve(z: np.ndarray, k: int, max_iters: int, tolerance: float):
    """:func:`dual_gamma` on logits z = 4 * lam * a of scores that :func:`_admit` passed."""
    b, n = z.shape
    if k == n:
        # the column constraint forces gamma = 1 exactly, with no step to take
        return np.ones((b, n)), np.zeros(b, dtype=int), np.zeros(b)
    gamma, iters, errors = np.empty((b, n)), np.zeros(b, dtype=int), np.empty(b)
    # every logit is at most logit(k/N) at lo, so sum(gamma) <= k there; >= k at hi
    logit = np.log(k) - np.log(n - k)
    lo, hi = logit - z.max(axis=1), logit - z.min(axis=1)
    active = np.arange(b)
    top = -np.sort(-z, axis=1)
    t = np.minimum(np.maximum(-0.5 * (top[:, k - 1] + top[:, k]), lo), hi)
    for m in range(max_iters + 1):
        # sigmoid as exp(-log(1 + e^-x)), which keeps tiny weights' relative precision
        g = np.exp(-np.logaddexp(0.0, -(z[active] + t[active, None])))
        excess = g.sum(axis=1) - k
        gamma[active], errors[active] = g, np.abs(excess)
        keep = np.abs(excess) > tolerance
        if m == max_iters or not keep.any():
            break
        active, g, excess = active[keep], g[keep], excess[keep]
        iters[active] = m + 1
        lo[active[excess < 0]] = t[active[excess < 0]]
        hi[active[excess > 0]] = t[active[excess > 0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t[active] - excess / (g * (1.0 - g)).sum(axis=1)
        inside = (step > lo[active]) & (step < hi[active])
        t[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
    return gamma, iters, errors


def dual_gamma_vjp(gamma: np.ndarray, upstream: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of a scalar loss with respect to the (clamped) scores, from gamma alone.

    Implicit differentiation of sum(gamma) = k gives 4 * lam * (s * u - s *
    (s . u) / sum(s)) for u = d loss / d gamma and s = gamma * (1 - gamma).
    Rows lie along the last axis, as :func:`dual_gamma` returns them; no tape,
    O(N) memory.

    The result is the derivative at the gamma it is given.  A gamma solved
    only to |sum(gamma) - k| <= tol is off in its dual by about tol / sum(s),
    and so is the gradient: at tol = 1e-6 one ``gradcheck`` instance was 0.297
    off in relative error.  A caller who needs the gradient solves to
    :data:`EXACT_TOLERANCE`, as ``gradcheck`` does.
    """
    g = np.asarray(gamma, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != g.shape:
        raise ValidationError(f"upstream has shape {u.shape}, gamma has {g.shape}")
    _check_lambda(lam)
    s = g * (1.0 - g)
    su = s * u
    total = s.sum(axis=-1, keepdims=True)  # 0 only where s, and so s . u, is 0
    return 4.0 * lam * (su - s * (su.sum(axis=-1, keepdims=True) / np.where(total > 0, total, 1.0)))


def soft_topk(problem: TopKProblem) -> SoftSelection:
    """Soft weights from :func:`dual_gamma` under the problem's knobs, with the hard oracle mask."""
    z = 4.0 * problem.lam * problem.scores[None].astype(np.float64)
    gamma, _, _ = _solve(z, problem.k, problem.max_iters, problem.tolerance)
    return SoftSelection(gamma=gamma[0], hard=hard_topk_oracle(problem.scores, problem.k))


def finite_difference_gradient(
    problem: TopKProblem, upstream: np.ndarray, step: float = 1e-4
) -> np.ndarray:
    """Central-difference reference gradient for :func:`dual_gamma_vjp`.

    All 2N perturbed rows are solved together by the exact dual to
    EXACT_TOLERANCE.  The divisor is the realized float32 score difference, not
    the nominal step, which keeps the oracle accurate near the rounding floor.
    """
    n = problem.n
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    if up.size != n:
        raise ValidationError(f"upstream has {up.size} entries, expected N={n}")
    diag = np.arange(n)
    rows = np.tile(problem.scores.astype(np.float64), (2 * n, 1))
    rows[diag, diag] += step
    rows[n + diag, diag] -= step
    # the clamp and rounding of TopKProblem, so the divisor sees the scores solved
    rows = _admit(rows, problem.k, problem.lam, problem.max_iters, EXACT_TOLERANCE)[0].astype(np.float64)
    gamma, _, _ = _solve(4.0 * problem.lam * rows, problem.k, problem.max_iters, EXACT_TOLERANCE)
    losses = gamma @ up
    denom = rows[diag, diag] - rows[n + diag, diag]
    # a step too small to realize leaves both rows, and so both losses, equal
    return (losses[:n] - losses[n:]) / np.where(denom == 0.0, 1.0, denom)


# stop slightly inside the requested tolerance so the float32 plan's marginal
# sums still meet it after rounding
_STOP_FACTOR = 0.5
# entries of the step-by-score block the backward pass replays at once
_BACKWARD_ENTRIES = 1 << 12


@dataclass(frozen=True)
class TransportPlan:
    """Solved N x 2 plan of :func:`sinkhorn_solve`, with convergence diagnostics."""

    plan: np.ndarray  # float32, nonnegative
    iterations_used: int
    marginal_error: float


@dataclass
class SinkhornTape:
    """Recorded dual gaps of :func:`sinkhorn_solve`, sufficient to replay it forward or backward.

    ``states[m]`` is the gap t before double-step m; ``states[-1]`` is the
    gap after the last step.  ``z_top`` is the largest logit 4 * lam * a and
    ``u`` holds exp(z - z_top).  ``gamma`` and ``slope`` are the last step's
    soft weights k * sigmoid(x) / S1 and gamma * sigmoid(-x), at x = z +
    ``states[-2]``.  When k == N the plan is fully constrained: no step runs,
    t is +inf, gamma is 1 and the slope 0.
    """

    n: int
    k: int
    lam: float
    z_top: float
    u: np.ndarray
    states: list = field(default_factory=list)
    gamma: np.ndarray | None = None
    slope: np.ndarray | None = None


# the widest |z_top + t| a step takes: e^x overflows float64 just past 709,
# and below -700 the sum of sigmoid(x) would come near the smallest normal double
_DIRECT_LIMIT = 700.0


def _sigmoids(u: np.ndarray, scale):
    """(sigmoid(x), sigmoid(-x)) at e^x = scale * u, for a scalar scale or a column of them."""
    v = u * scale
    p0 = v + 1.0
    np.reciprocal(p0, out=p0)
    return np.multiply(v, p0, out=v), p0


def sinkhorn_solve(problem: TopKProblem) -> tuple[TransportPlan, SinkhornTape]:
    """Sinkhorn iteration on the dual gap, for the benchmark's ``topk-grad`` workload only.

    Each double-step scales the rows to 1/N and then the columns to their
    marginals, which on the two-point support moves only the gap, from t = 0:
    t <- t + logit(k/N) - log sum sigmoid(z + t) + log sum sigmoid(-z - t)
    with z = 4 * lam * a.  A step forms both sums from u = exp(z - z_top),
    computed once per problem, and exp(z_top + t), so |z_top + t| must stay
    within 700.  Every step after the first lands t in [logit(k/N) - z_top,
    logit(k/N) - z_min], as S1 / S0 is a weighted mean of e^(z + t); so a
    problem with k < N and max(|z_top|, |logit(k/N)| + z_top - z_min) > 700
    raises :class:`ValidationError` (never at lambda <= 85).  Steps run,
    recording every t, until the worst marginal violation drops inside the
    tolerance or ``max_iters`` is exhausted.  Non-convergence is not an
    error: the plan is returned with ``marginal_error`` set.  Returns the
    float32 plan and the tape for gradient replay.
    """
    n, k = problem.n, problem.k
    z = 4.0 * problem.lam * problem.scores.astype(np.float64)
    top, bottom = int(z.argmax()), int(z.argmin())
    z_top = z.item(top)
    tape = SinkhornTape(n=n, k=k, lam=problem.lam, z_top=z_top, u=np.exp(z - z_top))
    if k == n:
        # the column constraint forces T[i] = (0, 1/N) exactly
        tape.states.append(math.inf)
        tape.gamma, tape.slope = np.ones(n), np.zeros(n)
        plan = np.zeros((n, 2), dtype=np.float32)
        plan[:, 1] = np.float32(1.0 / n)
        return TransportPlan(plan=plan, iterations_used=0, marginal_error=0.0), tape
    logit = math.log(k / (n - k))
    reach = max(abs(z_top), abs(logit) + z_top - z.item(bottom))
    if reach > _DIRECT_LIMIT:
        raise ValidationError(f"lambda={problem.lam:g} is out of the Sinkhorn reference's range: "
                              f"|z_top + t| may reach {reach:.4g}, above {_DIRECT_LIMIT:g}")
    t, err = 0.0, math.inf
    for _ in range(problem.max_iters):
        tape.states.append(t)
        p1, p0 = _sigmoids(tape.u, math.exp(z_top + t))
        s1, s0 = float(p1.sum()), float(p0.sum())
        # the column sums are exact after the column step; each row's mass is
        # affine in sigmoid(x_i), so the worst row is at the largest or smallest x
        err = max(abs(k * p1.item(i) / s1 + (n - k) * p0.item(i) / s0 - 1.0) for i in (top, bottom)) / n
        t += logit - math.log(s1) + math.log(s0)
        if err <= _STOP_FACTOR * problem.tolerance:
            break
    tape.states.append(t)
    tape.gamma = k / s1 * p1
    tape.slope = tape.gamma * p0
    plan = (np.stack([(n - k) / s0 * p0, tape.gamma], axis=1) / n).astype(np.float32)
    return TransportPlan(plan=plan, iterations_used=len(tape.states) - 1, marginal_error=err), tape


def selection_from_tape(problem: TopKProblem, tape: SinkhornTape) -> SoftSelection:
    """Soft selection from a Sinkhorn tape's last step, for the ``topk-grad`` workload only."""
    return SoftSelection(gamma=tape.gamma, hard=hard_topk_oracle(problem.scores, problem.k))


def soft_topk_backward(tape: SinkhornTape, upstream: np.ndarray) -> np.ndarray:
    """Sinkhorn's gradient of a scalar loss in the scores, for the ``topk-grad`` workload only.

    Replays the recorded gap recursion in reverse: the last step maps x = z + t
    to gamma = k * sigmoid(x) / S1, and each earlier step moves t by a function
    of x with d t / d x_i = -sigmoid(x_i) * sigmoid(-x_i) * (1/S1 + 1/S0), where
    S1 and S0 sum sigmoid(x) and sigmoid(-x).  ``upstream`` is the (N,) d loss /
    d gamma, and the tape comes from :func:`sinkhorn_solve`, converged or
    truncated.  Returns the (N,) float64 d loss / d scores.
    """
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    if up.size != tape.n:
        raise ValidationError(f"upstream has {up.size} entries, tape expects {tape.n}")
    # the last step: d gamma_i / d x_j = gamma_j * sigmoid(-x_j) * (delta_ij - gamma_i / k)
    dz = tape.slope * (up - (up @ tape.gamma) / tape.k)
    dt = dz.sum()  # d loss / d t_{M-1}
    # the earlier steps m < M - 1, a block of rows x = z + t_m at a time, last block first
    steps = np.array(tape.states[:-2])
    rows = max(1, _BACKWARD_ENTRIES // tape.n)
    for hi in range(steps.size, 0, -rows):
        lo = max(0, hi - rows)
        p1, p0 = _sigmoids(tape.u, np.exp(tape.z_top + steps[lo:hi, None]))
        dt_dx = p1 * p0  # times the row factor below, d t_{m+1} / d x
        dt_dx *= -(1.0 / p1.sum(axis=1, keepdims=True) + 1.0 / p0.sum(axis=1, keepdims=True))
        # d t_{m+1} / d t_m = 1 + sum(d t_{m+1} / d x); carry[j] = d t_hi / d t_(lo + j)
        carry = np.cumprod(np.append(1.0 + dt_dx.sum(axis=1), 1.0)[::-1])[::-1]
        dz += dt * (carry[1:] @ dt_dx)
        dt *= carry[0]
    return 4.0 * tape.lam * dz
