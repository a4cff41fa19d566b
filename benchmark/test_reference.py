"""Tests of the benchmark's own references (run: python3 -m pytest benchmark)."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
from reference import block_of, block_sites, exact_gamma, exact_gradient, hard_topk, kth_gap  # noqa: E402


@pytest.mark.parametrize("n,k,lam", [(2, 1, 1.0), (8, 3, 5.0), (64, 7, 50.0), (576, 3, 50.0), (300, 299, 200.0)])
def test_gamma_sums_to_k(n, k, lam):
    rng = np.random.default_rng(n + k)
    gamma = exact_gamma(rng.uniform(-1.0, 1.0, (5, n)), k, lam)
    assert np.all((gamma >= 0.0) & (gamma <= 1.0))
    np.testing.assert_allclose(gamma.sum(axis=1), k, rtol=0, atol=1e-9)


def test_gamma_tends_to_hard_topk_as_lambda_grows():
    rng = np.random.default_rng(3)
    scores = rng.uniform(-1.0, 1.0, (20, 40))
    k = 4
    hard = np.zeros_like(scores)
    np.put_along_axis(hard, hard_topk(scores, k), 1.0, axis=1)
    gap = kth_gap(scores, k)
    errors = [np.abs(exact_gamma(scores, k, lam) - hard).max() for lam in (1.0, 10.0, 100.0, 1000.0, 1e5)]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    # the boundary weights decay like exp(-4 * lam * gap / 2)
    assert errors[-1] < 2.0 * np.exp(-2e5 * gap.min()) + 1e-12


@pytest.mark.parametrize("lam", [2.0, 20.0])
def test_gradient_matches_central_differences(lam):
    rng = np.random.default_rng(int(lam))
    n, k, step = 12, 3, 1e-6
    scores = rng.uniform(-0.9, 0.9, n)
    upstream = rng.standard_normal(n)
    grad = exact_gradient(exact_gamma(scores, k, lam), upstream, lam)[0]
    numeric = np.empty(n)
    for i in range(n):
        plus, minus = scores.copy(), scores.copy()
        plus[i] += step
        minus[i] -= step
        numeric[i] = (exact_gamma(plus, k, lam)[0] - exact_gamma(minus, k, lam)[0]) @ upstream / (2 * step)
    np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-7 * np.abs(numeric).max())


def test_uniform_upstream_gives_zero_gradient():
    rng = np.random.default_rng(5)
    gamma = exact_gamma(rng.uniform(-1.0, 1.0, (4, 50)), 5, 50.0)
    assert np.abs(exact_gradient(gamma, np.ones_like(gamma), 50.0)).max() < 1e-12


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_generated_pair_matches_its_truth(workload):
    size, depth, block, region = gen.SHAPES[workload]
    pair = gen.make_pair(0, size, depth, block, region)
    cond = pair["cond"].reshape(-1, depth)
    exem = pair["exem"].reshape(-1, depth)
    sites = block_sites(size, block)
    matched = sites[pair["matched"]].reshape(-1)
    assert np.abs(exem[pair["src_site"][matched]] - cond[matched]).max() <= gen.NOISE
    # a block moves whole: all its sites come from its one source block
    assert np.array_equal(block_of(pair["src_site"][sites], size, block), np.repeat(pair["src_block"][:, None], block * block, axis=1))
    assert np.array_equal(np.sort(pair["src_site"]), np.arange(size * size))
