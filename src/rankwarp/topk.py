"""Differentiable top-k selection via entropic transport.

Selecting the k largest of N correlation scores is cast as an earth mover's
problem between the scores and the two-point support {-1, +1}: mass moved to
+1 marks a score as selected.  Costs are squared distances, so the N x 2 cost
matrix is C[i] = ((a_i + 1)^2, (a_i - 1)^2).  Row marginals are uniform 1/N;
column marginals are ((N - k)/N, k/N).  Score i's soft selection weight is
gamma_i = N * T[i, 1] for the entropic plan T.  Block ranking solves for T
exactly through its one dual scalar per problem (:func:`dual_gamma`).  The
reference, :func:`sinkhorn_solve`, runs log-domain Sinkhorn iteration on the
kernel exp(-lambda * C), which keeps lambda up to the thousands finite, and
records a tape; replaying it in reverse gives the exact gradients of the
truncated map actually computed, whether or not it converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensors import ValidationError

# stop slightly inside the requested tolerance so the float32 plan's marginal
# sums still meet it after rounding
_STOP_FACTOR = 0.5


@dataclass(frozen=True)
class TopKProblem:
    """One ranking instance: N scores in [-1, 1], a selection size k, and solver knobs."""

    scores: np.ndarray
    k: int
    lam: float = 50.0
    max_iters: int = 100
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        a = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if a.size < 1:
            raise ValidationError("scores must be non-empty")
        if not np.isfinite(a).all():
            raise ValidationError("scores must be finite")
        if not 1 <= self.k <= a.size:
            raise ValidationError(f"k={self.k} out of range for N={a.size}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValidationError("lambda must be finite and positive")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError("tolerance must be finite and positive")
        clamped = np.clip(a, -1.0, 1.0).astype(np.float32)
        clamped.flags.writeable = False
        object.__setattr__(self, "scores", clamped)

    @property
    def n(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class TransportPlan:
    """Solved N x 2 plan with convergence diagnostics."""

    plan: np.ndarray  # float32, nonnegative
    iterations_used: int
    marginal_error: float


@dataclass(frozen=True)
class SoftSelection:
    """Soft membership weights gamma_i = N * T[i, 1] plus the hard oracle set."""

    gamma: np.ndarray  # float64 in [0, 1] at convergence
    hard: np.ndarray  # bool, exactly k True


@dataclass
class SinkhornTape:
    """Recorded iteration states, sufficient to replay forward or backward.

    ``states[m]`` is the log-domain plan before double-step m; ``states[-1]``
    is the final log plan.  ``trivial`` marks the k == N case, where the plan
    is fully constrained and no iteration ran.
    """

    n: int
    k: int
    lam: float
    log_mu: float
    log_nu: np.ndarray
    scores64: np.ndarray
    states: list = field(default_factory=list)
    trivial: bool = False

    def replay(self) -> np.ndarray:
        """Re-run the recorded iterations from the initial state; returns the final log plan."""
        if self.trivial:
            return self.states[-1]
        s = self.states[0]
        for _ in range(len(self.states) - 1):
            s = _col_step(_row_step(s, self.log_mu), self.log_nu)
        return s


def build_cost(scores: np.ndarray) -> np.ndarray:
    """Squared-distance cost to the supports -1 and +1; entries lie in [0, 4]."""
    a = np.asarray(scores, dtype=np.float64)
    return np.stack([(a + 1.0) ** 2, (a - 1.0) ** 2], axis=-1)


def hard_topk_oracle(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest scores, ties broken toward the lower index."""
    a = np.asarray(scores).reshape(-1)
    if not 1 <= k <= a.size:
        raise ValidationError(f"k={k} out of range for N={a.size}")
    mask = np.zeros(a.size, dtype=bool)
    mask[np.argsort(-a, kind="stable")[:k]] = True
    return mask


def _row_step(s: np.ndarray, log_mu: float) -> np.ndarray:
    # scale each row to mass 1/N; two columns, so the row LSE is a single logaddexp
    return s + (log_mu - np.logaddexp(s[..., 0], s[..., 1]))[..., None]


def _col_step(s: np.ndarray, log_nu: np.ndarray) -> np.ndarray:
    # scale each column to its marginal; LSE over N entries via max-shift
    mx = s.max(axis=-2, keepdims=True)
    lse = mx + np.log(np.exp(s - mx).sum(axis=-2, keepdims=True))
    return s + (log_nu - lse)


def _marginal_error(t: np.ndarray, n: int, k: int) -> np.ndarray:
    target = np.array([(n - k) / n, k / n])
    row = np.abs(t.sum(axis=-1) - 1.0 / n).max(axis=-1)
    col = np.abs(t.sum(axis=-2) - target).max(axis=-1)
    return np.maximum(row, col)


def _trivial_solve(problem: TopKProblem) -> tuple[TransportPlan, SinkhornTape]:
    # k == N: the column constraint forces T[i] = (0, 1/N) exactly
    n = problem.n
    final = np.full((n, 2), -np.inf)
    final[:, 1] = -math.log(n)
    plan = np.zeros((n, 2), dtype=np.float32)
    plan[:, 1] = np.float32(1.0 / n)
    tape = SinkhornTape(
        n=n, k=problem.k, lam=problem.lam, log_mu=-math.log(n),
        log_nu=np.array([-np.inf, 0.0]), scores64=problem.scores.astype(np.float64),
        states=[final], trivial=True,
    )
    return TransportPlan(plan=plan, iterations_used=0, marginal_error=0.0), tape


def sinkhorn_solve(problem: TopKProblem) -> tuple[TransportPlan, SinkhornTape]:
    """Solve the regularized transport problem by log-domain Sinkhorn iteration.

    Iterates row scaling then column scaling, recording every state, until the
    worst marginal violation drops inside the tolerance or ``max_iters`` is
    exhausted.  Non-convergence is not an error: the plan is returned with
    ``marginal_error`` set and the caller decides.

    Returns
    -------
    (TransportPlan, SinkhornTape)
        The plan (float32) and the tape for gradient replay.
    """
    n, k = problem.n, problem.k
    if k == n:
        return _trivial_solve(problem)
    log_mu = -math.log(n)
    log_nu = np.log(np.array([(n - k) / n, k / n]))
    a64 = problem.scores.astype(np.float64)
    s = -problem.lam * build_cost(a64)
    tape = SinkhornTape(
        n=n, k=k, lam=problem.lam, log_mu=log_mu, log_nu=log_nu, scores64=a64
    )
    err = np.inf
    iters = 0
    for m in range(problem.max_iters):
        tape.states.append(s)
        s = _col_step(_row_step(s, log_mu), log_nu)
        iters = m + 1
        err = float(_marginal_error(np.exp(s), n, k))
        if err <= _STOP_FACTOR * problem.tolerance:
            break
    tape.states.append(s)
    plan = np.exp(s).astype(np.float32)
    return TransportPlan(plan=plan, iterations_used=iters, marginal_error=err), tape


def selection_from_tape(problem: TopKProblem, tape: SinkhornTape) -> SoftSelection:
    """Build the soft selection from a solve's final state (float64, not the float32 plan)."""
    gamma = problem.n * np.exp(tape.states[-1][:, 1])
    return SoftSelection(gamma=gamma, hard=hard_topk_oracle(problem.scores, problem.k))


def soft_topk(problem: TopKProblem) -> SoftSelection:
    """Solve and return soft selection weights alongside the hard oracle mask."""
    _, tape = sinkhorn_solve(problem)
    return selection_from_tape(problem, tape)


def soft_topk_backward(tape: SinkhornTape, upstream: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss with respect to the scores.

    Replays the recorded row/column scalings in reverse, then backs through
    the exponential kernel and the cost construction.  ``upstream`` is the
    loss gradient with respect to gamma.

    Parameters
    ----------
    tape: SinkhornTape
        Tape from :func:`sinkhorn_solve` (converged or truncated).
    upstream: numpy.ndarray
        Shape (N,) gradient d loss / d gamma.

    Returns
    -------
    numpy.ndarray
        Shape (N,) float64 gradient d loss / d scores.
    """
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    if up.size != tape.n:
        raise ValidationError(f"upstream has {up.size} entries, tape expects {tape.n}")
    if tape.trivial:
        # gamma is identically 1; nothing depends on the scores
        return np.zeros(tape.n)
    # d loss / d (final log state): gamma_i = N * exp(S[i, 1])
    ds = np.zeros((tape.n, 2))
    ds[:, 1] = up * tape.n * np.exp(tape.states[-1][:, 1])
    nu = np.exp(tape.log_nu)
    for m in range(len(tape.states) - 2, -1, -1):
        s_next = tape.states[m + 1]
        r = _row_step(tape.states[m], tape.log_mu)
        # column scaling: subtract the column-softmax-weighted column sum
        ds = ds - np.exp(s_next - np.log(nu)) * ds.sum(axis=0, keepdims=True)
        # row scaling: subtract the row-softmax-weighted row sum
        ds = ds - np.exp(r - tape.log_mu) * ds.sum(axis=1, keepdims=True)
    # through the kernel S0 = -lam * C and the cost C = ((a+1)^2, (a-1)^2)
    dcost = -tape.lam * ds
    a = tape.scores64
    return dcost[:, 0] * 2.0 * (a + 1.0) + dcost[:, 1] * 2.0 * (a - 1.0)


def finite_difference_gradient(
    problem: TopKProblem, upstream: np.ndarray, step: float = 1e-4
) -> np.ndarray:
    """Central-difference reference gradient for :func:`soft_topk_backward`.

    Each perturbed solve is run for exactly the iteration count of the base
    solve, so both sides differentiate the same truncated map.  The divisor
    uses the realized float32 score difference, not the nominal step, which
    keeps the oracle accurate near the float32 rounding floor.
    """
    up = np.asarray(upstream, dtype=np.float64).reshape(-1)
    base_plan, base_tape = sinkhorn_solve(problem)
    iters = max(base_plan.iterations_used, 1)
    grad = np.zeros(problem.n)
    base = problem.scores.astype(np.float64)
    for i in range(problem.n):
        losses = []
        realized = []
        for sign in (+1.0, -1.0):
            a = base.copy()
            a[i] += sign * step
            pert = TopKProblem(
                scores=a, k=problem.k, lam=problem.lam, max_iters=iters, tolerance=1e-300
            )
            realized.append(float(pert.scores[i]))
            losses.append(float(soft_topk(pert).gamma @ up))
        denom = realized[0] - realized[1]
        grad[i] = 0.0 if denom == 0.0 else (losses[0] - losses[1]) / denom
    return grad


def dual_gamma(
    scores: np.ndarray, k: int | np.ndarray, lam: float, max_iters: int = 100, tolerance: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve B ranking problems (rows of ``scores``) exactly through their scalar dual.

    Every plan row has mass 1/N, so gamma_i = sigmoid(4 * lam * a_i + t) with t
    the root of sum(gamma) = k, found by Newton steps that bisect a bracket on
    the root whenever they leave it.  Scores are clamped and rounded through
    float32 as in :class:`TopKProblem`; ``k`` is shared or one count per row.
    A row stops once |sum(gamma) - k| <= ``tolerance`` or after ``max_iters``
    steps.  Returns gamma (B, N) float64, the Newton steps per row and the
    final |sum(gamma) - k| per row.  Forward only: block ranking keeps no tape.
    """
    raw = np.asarray(scores, dtype=np.float64)
    if raw.ndim != 2:
        raise ValidationError(f"scores must be (B, N), got shape {raw.shape}")
    b, n = raw.shape
    ks = np.asarray(k)
    if ks.ndim == 1 and ks.shape != (b,):
        raise ValidationError(f"per-problem k has shape {ks.shape}, expected ({b},)")
    if ks.ndim > 1 or ks.min() < 1 or ks.max() > n:
        raise ValidationError(f"k={k} out of range for N={n}")
    if not (np.isfinite(lam) and lam > 0 and np.isfinite(tolerance) and tolerance > 0):
        raise ValidationError("lambda and tolerance must be finite and positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be positive")
    gamma, iters, errors = np.ones((b, n)), np.zeros(b, dtype=int), np.zeros(b)
    # k == N rows keep gamma = 1 exactly; the others have a finite root
    rows = np.flatnonzero(np.broadcast_to(ks, (b,)) < n)
    kk = np.broadcast_to(ks, (b,))[rows].astype(np.int64)
    z = 4.0 * lam * np.clip(raw[rows], -1.0, 1.0).astype(np.float32).astype(np.float64)
    # every logit is at most logit(k/N) at lo, so sum(gamma) <= k there; >= k at hi
    lo = np.log(kk) - np.log(n - kk) - z.max(axis=1)
    hi = np.log(kk) - np.log(n - kk) - z.min(axis=1)
    active = np.arange(rows.size)
    top = -np.sort(-z, axis=1)
    t = np.clip(-0.5 * (top[active, kk - 1] + top[active, kk]), lo, hi)
    for m in range(max_iters + 1):
        # sigmoid as exp(-log(1 + e^-x)), which keeps tiny weights' relative precision
        g = np.exp(-np.logaddexp(0.0, -(z[active] + t[active, None])))
        excess = g.sum(axis=1) - kk[active]
        gamma[rows[active]], errors[rows[active]] = g, np.abs(excess)
        keep = np.abs(excess) > tolerance
        if m == max_iters or not keep.any():
            break
        active, g, excess = active[keep], g[keep], excess[keep]
        iters[rows[active]] = m + 1
        lo[active[excess < 0]] = t[active[excess < 0]]
        hi[active[excess > 0]] = t[active[excess > 0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t[active] - excess / (g * (1.0 - g)).sum(axis=1)
        inside = (step > lo[active]) & (step < hi[active])
        t[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
    return gamma, iters, errors
