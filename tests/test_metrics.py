"""Cycle and consistency losses plus the complexity benchmark."""

import math
import tracemalloc

import numpy as np
import pytest

from rankwarp import metrics
from rankwarp.correspondence import (
    BlockPartition,
    SparseCorrespondence,
    block_attention,
    partition_blocks,
    rank_blocks,
    warp,
)
from rankwarp.metrics import (
    CSV_HEADER,
    BenchRecord,
    _traced,
    consistency_loss,
    cycle_loss,
    dense_correspondence_baseline,
    render_csv,
    run_bench,
)
from rankwarp.tensors import FeatureGrid, ValidationError


def _grid(rng, h, w, d):
    return FeatureGrid(rng.standard_normal((h, w, d)).astype(np.float32))


def _sparse(rng, h, w, d, side, k, tau):
    query, exemplar = _grid(rng, h, w, d), _grid(rng, h, w, d)
    qf = partition_blocks(query, side)
    ef = partition_blocks(exemplar, side)
    ranking = rank_blocks(qf, ef, k)
    return block_attention(query, exemplar, ranking, tau), exemplar


def _cycle_oracle(corr, exemplar):
    # densify the links and evaluate the round trip directly
    l_e = corr.exemplar_sites
    t = np.zeros((corr.sites, l_e))
    indices = corr.links[corr.site_blocks()]
    for q in range(corr.sites):
        t[q, indices[q]] = corr.weights[q].astype(np.float64)
    z = exemplar.vectors.astype(np.float64)
    warped = t @ z
    mass = t.sum(axis=0)
    back = np.divide(t.T, mass[:, None], out=np.zeros_like(t.T), where=mass[:, None] > 0)
    return float(np.abs(back @ warped - z).mean())


def _cycle_add_at(corr, exemplar):
    """The np.add.at scatter cycle_loss ran before np.bincount, kept as its oracle."""
    warped = warp(corr, exemplar).vectors.astype(np.float64)
    z = exemplar.vectors.astype(np.float64)
    l_e, d = z.shape
    w = corr.weights.astype(np.float64)
    idx = corr.links[corr.site_blocks()].reshape(-1)
    flat = w.reshape(-1)
    mass = np.zeros(l_e)
    np.add.at(mass, idx, flat)
    num = np.zeros((l_e, d))
    np.add.at(num, idx, flat[:, None] * np.repeat(warped, w.shape[1], axis=0))
    recon = np.divide(num, mass[:, None], out=np.zeros_like(num), where=mass[:, None] > 0)
    return float(np.abs(recon - z).mean())


class TestConsistency:
    def test_identical_grids(self):
        grid = _grid(np.random.default_rng(130), 4, 4, 3)
        assert consistency_loss(grid, grid) == 0.0

    def test_unit_offset(self):
        rng = np.random.default_rng(131)
        a = _grid(rng, 5, 3, 2)
        b = FeatureGrid(a.data + np.float32(1.0))
        assert abs(consistency_loss(a, b) - 1.0) < 1e-7

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(132)
        a, b = _grid(rng, 6, 7, 4), _grid(rng, 6, 7, 4)
        naive = sum(
            abs(float(a.data[i, j, c]) - float(b.data[i, j, c]))
            for i in range(6) for j in range(7) for c in range(4)
        ) / (6 * 7 * 4)
        assert abs(consistency_loss(a, b) - naive) < 1e-6

    def test_shape_mismatch(self):
        rng = np.random.default_rng(133)
        with pytest.raises(ValidationError):
            consistency_loss(_grid(rng, 4, 4, 2), _grid(rng, 4, 4, 3))


class TestCycle:
    def test_identity_correspondence_is_lossless(self):
        rng = np.random.default_rng(140)
        exemplar = _grid(rng, 4, 4, 3)
        corr = SparseCorrespondence(
            BlockPartition(4, 4, 1), 16,
            np.ones((16, 1), dtype=np.float32),
            np.arange(16, dtype=np.int32).reshape(16, 1),
        )
        assert cycle_loss(corr, exemplar) == 0.0

    def test_collapse_loses_information(self):
        rng = np.random.default_rng(141)
        exemplar = _grid(rng, 4, 4, 3)
        corr = SparseCorrespondence(
            BlockPartition(4, 4, 1), 16,
            np.ones((16, 1), dtype=np.float32),
            np.zeros((16, 1), dtype=np.int32),
        )
        assert cycle_loss(corr, exemplar) > 0.1

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(142)
        corr, exemplar = _sparse(rng, 8, 8, 4, side=2, k=2, tau=0.1)
        assert abs(cycle_loss(corr, exemplar) - _cycle_oracle(corr, exemplar)) < 1e-5

    def test_dense_rows_match_oracle(self):
        rng = np.random.default_rng(143)
        query, exemplar = _grid(rng, 6, 6, 3), _grid(rng, 6, 6, 3)
        corr = SparseCorrespondence(
            BlockPartition(6, 6, 1), 36, dense_correspondence_baseline(query, exemplar, 0.1),
            np.tile(np.arange(36), (36, 1)),
        )
        assert abs(cycle_loss(corr, exemplar) - _cycle_oracle(corr, exemplar)) < 1e-5

    def test_permutation_invariance(self):
        # relabeling sites on both sides identically cannot change the loss
        rng = np.random.default_rng(144)
        weights = rng.random((9, 9)).astype(np.float32)
        weights /= weights.sum(axis=1, keepdims=True)
        z = rng.standard_normal((9, 1, 4)).astype(np.float32)
        perm = rng.permutation(9)
        dense_rows = np.tile(np.arange(9), (9, 1))
        part = BlockPartition(9, 1, 1)
        base = cycle_loss(
            SparseCorrespondence(part, 9, weights, dense_rows), FeatureGrid(z)
        )
        permuted = cycle_loss(
            SparseCorrespondence(part, 9, weights[perm][:, perm], dense_rows), FeatureGrid(z[perm])
        )
        assert abs(base - permuted) < 1e-12

    def test_bincount_equals_add_at_formula(self, monkeypatch):
        # over 1x1 blocks in one tile, bincount adds each exemplar's links in
        # the order add.at does, so the loss is the same float; larger blocks
        # add their column sums first, and tiles their partial sums, which
        # moves only the rounding; also where some features go unreferenced
        rng = np.random.default_rng(145)
        cases = [
            _sparse(rng, 8, 12, d, side=side, k=k, tau=0.1)
            for side, k, d in ((1, 4, 1), (2, 3, 5), (4, 1, 3), (4, 6, 2))
        ]
        # about 256 links of log-uniform weight on each of 8 exemplar sites;
        # a constant exemplar leaves only rounding in the loss, so the order
        # of the additions shows in it
        weights = (10.0 ** rng.uniform(-6, 0, (64, 32))).astype(np.float32)
        weights /= weights.sum(axis=1, keepdims=True)
        links = rng.integers(0, 8, (64, 32)).astype(np.int32)
        corr = SparseCorrespondence(BlockPartition(8, 8, 1), 8, weights, links)
        cases.append((corr, FeatureGrid(np.full((2, 4, 3), 0.7, dtype=np.float32))))
        for tile_bytes in (metrics._TILE_BYTES, 1):  # one tile, then a block per tile
            monkeypatch.setattr(metrics, "_TILE_BYTES", tile_bytes)
            for corr, exemplar in cases:
                loss, formula = cycle_loss(corr, exemplar), _cycle_add_at(corr, exemplar)
                if corr.partition.block_side == 1 and tile_bytes > 1:
                    assert loss == formula
                else:
                    assert abs(loss - formula) <= 1e-12

    def test_unreferenced_features_reconstruct_to_zero(self):
        # both queries link to feature 0 only; features 1..3 should cost
        # exactly their own magnitude
        z = np.zeros((4, 1, 1), dtype=np.float32)
        z[:, 0, 0] = [0.0, 1.0, -2.0, 3.0]
        corr = SparseCorrespondence(
            BlockPartition(2, 2, 1), 4,
            np.ones((4, 1), dtype=np.float32),
            np.zeros((4, 1), dtype=np.int32),
        )
        assert abs(cycle_loss(corr, FeatureGrid(z)) - 6.0 / 4.0) < 1e-7


class TestBench:
    def test_entry_counts_exact(self):
        records = run_bench([(8, 8, 2), (16, 16, 2)], block_side=2, k=3, repetitions=1)
        by_key = {(r.method, r.sites): r for r in records}
        assert by_key[("dense", 64)].entries == 64 * 64
        assert by_key[("dense", 256)].entries == 256 * 256
        assert by_key[("ras", 64)].entries == 64 * 3 * 4
        assert by_key[("ras", 256)].entries == 256 * 3 * 4
        assert by_key[("ras", 64)].ranking_scores == 16 * 16
        assert by_key[("ras", 256)].ranking_scores == 64 * 64

    def test_doubling_grid_scales_entries_4x_scores_16x(self):
        records = run_bench([(8, 8, 2), (16, 16, 2)], block_side=2, k=3)
        small, big = [r for r in records if r.method == "ras"]
        assert big.entries == 4 * small.entries
        assert big.ranking_scores == 16 * small.ranking_scores

    def test_single_block_equals_dense_entry_count(self):
        records = run_bench([(8, 8, 2)], block_side=8, k=1)
        by_method = {r.method: r for r in records}
        assert by_method["ras"].entries == by_method["dense"].entries == 64 * 64

    def test_record_order_and_methods(self):
        records = run_bench([(8, 8, 2), (16, 16, 2)], block_side=2, k=1)
        assert [r.method for r in records] == ["dense", "ras", "dense", "ras"]
        assert [r.sites for r in records] == [64, 64, 256, 256]

    def test_deterministic_apart_from_timing(self):
        key = lambda r: (r.method, r.sites, r.block_area, r.k, r.entries,
                         r.ranking_scores, r.warp_l1)
        a = run_bench([(8, 8, 3)], block_side=2, k=2)
        b = run_bench([(8, 8, 3)], block_side=2, k=2)
        assert [key(r) for r in a] == [key(r) for r in b]

    def test_parallel_mode_identical_counts_and_gap(self, ranking_cpus):
        key = lambda r: (r.method, r.entries, r.ranking_scores, r.warp_l1)
        ranking_cpus(1)
        serial = run_bench([(16, 16, 2)], block_side=2, k=2)
        ranking_cpus(2)
        parallel = run_bench([(16, 16, 2)], block_side=2, k=2)
        assert [key(r) for r in serial] == [key(r) for r in parallel]

    def test_dense_reference_gap_is_zero_for_itself(self):
        records = run_bench([(8, 8, 2)], block_side=2, k=2)
        dense = [r for r in records if r.method == "dense"][0]
        ras = [r for r in records if r.method == "ras"][0]
        assert dense.warp_l1 == 0.0
        assert np.isfinite(ras.warp_l1) and ras.warp_l1 >= 0.0

    def test_timed_builds_run_untraced(self):
        tracing = []

        def builder():
            tracing.append(tracemalloc.is_tracing())
            return np.ones(1 << 20)

        result, peak, ms = _traced(builder, 3)
        # three timed builds untraced, then exactly one traced build for the peak
        assert tracing == [False, False, False, True]
        assert peak >= 8 << 20
        assert result.shape == (1 << 20,) and ms >= 0.0
        assert not tracemalloc.is_tracing()

        # no repetitions: the traced build alone, and no time to report
        tracing.clear()
        result, peak, ms = _traced(builder, 0)
        assert tracing == [True]
        assert peak >= 8 << 20 and math.isnan(ms)

    def test_non_square_block_area_rejected(self):
        # a block of area 6 has a side of sqrt(6), not a whole number
        with pytest.raises(ValidationError):
            run_bench([(8, 8, 2)], block_side=6 ** 0.5, k=1)

    def test_every_size_validated_before_any_build(self, monkeypatch):
        # 10x10 tiles by 5 but 96x96 does not; the sweep must stop before
        # building any baseline, not after the first size's
        def forbidden(*args, **kwargs):
            pytest.fail("the dense baseline was built before the sizes were validated")

        monkeypatch.setattr(metrics, "dense_correspondence_baseline", forbidden)
        with pytest.raises(ValidationError):
            run_bench([(10, 10, 2), (96, 96, 8)], block_side=5, k=1)

    @pytest.mark.parametrize("k", [0, 1.5, 17, 5000])
    def test_every_k_validated_before_any_build(self, monkeypatch, k):
        # 96x96 has 2304 blocks of side 2 and 8x8 has 16: a k of 17 fits the
        # first size only, so the second must be checked before the first is built
        def forbidden(*args, **kwargs):
            pytest.fail("the dense baseline was built before k was validated")

        monkeypatch.setattr(metrics, "dense_correspondence_baseline", forbidden)
        with pytest.raises(ValidationError, match=f"k={k}"):
            run_bench([(96, 96, 8), (8, 8, 2)], block_side=2, k=k)

    def test_csv_rendering(self):
        records = [
            BenchRecord("dense", 64, 4, 3, 4096, 0, 1000, 1.5, 0.0),
            BenchRecord("ras", 64, 4, 3, 768, 256, 500, 0.75, 0.0123),
        ]
        text = render_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "dense,64,4,3,4096,0,1000,1.500,0.00000000e+00"
        assert lines[2] == "ras,64,4,3,768,256,500,0.750,1.23000000e-02"
        assert text.endswith("\n")

    def test_csv_matches_bench_output(self):
        records = run_bench([(8, 8, 2)], block_side=2, k=1)
        lines = render_csv(records).strip().split("\n")
        assert len(lines) == 3
        for line, record in zip(lines[1:], records):
            fields = line.split(",")
            assert fields[0] == record.method
            assert int(fields[1]) == record.sites
            assert int(fields[4]) == record.entries
