"""Block partitioning, retrieval, sparse attention, and warping."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rankwarp import correspondence
from rankwarp.correspondence import (
    _TILE_BYTES,
    BlockPartition,
    SparseCorrespondence,
    block_attention,
    partition_blocks,
    rank_blocks,
    warp,
)
from rankwarp.metrics import dense_correspondence_baseline, dense_warp
from rankwarp.posenc import append_position, semantic_pe
from rankwarp.tensors import FeatureGrid, LabelMask, ValidationError, l2_normalize_features


def _grid(rng, h, w, d):
    return FeatureGrid(rng.standard_normal((h, w, d)).astype(np.float32))


def _pipeline(query, exemplar, side, k, tau, lam=50.0, iters=100):
    part, qf = partition_blocks(query, side)
    _, ef = partition_blocks(exemplar, side)
    ranking = rank_blocks(qf, ef, k, lam=lam, iters=iters)
    return ranking, block_attention(part, query, exemplar, ranking, tau)


class TestPartition:
    def test_four_by_four_geometry(self):
        part = BlockPartition(4, 4, 2)
        assert (part.blocks_h, part.blocks_w) == (2, 2)
        assert part.block_count == 4
        assert part.block_area == 4
        expected = np.array(
            [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
        )
        assert np.array_equal(part.feature_indices(), expected)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValidationError):
            BlockPartition(3, 4, 2)
        with pytest.raises(ValidationError):
            BlockPartition(4, 6, 4)

    def test_nonpositive_side_rejected(self):
        with pytest.raises(ValidationError):
            BlockPartition(4, 4, 0)

    def test_side_one_is_identity(self):
        part = BlockPartition(3, 5, 1)
        assert np.array_equal(part.feature_indices(), np.arange(15).reshape(15, 1))

    def test_large_grid_block_count(self):
        assert BlockPartition(128, 128, 2).block_count == 4096

    def test_block_vectors_follow_feature_indices(self):
        # channel 0 stores the raster site index, so each block vector must
        # read off its own feature_indices row, unit-scaled
        h, w, d = 6, 4, 3
        data = np.zeros((h, w, d), dtype=np.float32)
        data[:, :, 0] = np.arange(h * w).reshape(h, w)
        part, feats = partition_blocks(FeatureGrid(data), 2)
        got = feats.normalized.reshape(part.block_count, part.block_area, d)[:, :, 0]
        rows = part.feature_indices().astype(np.float64)
        assert np.array_equal(got, rows / np.linalg.norm(rows, axis=1, keepdims=True))

    def test_normalized_rows_are_unit(self):
        rng = np.random.default_rng(40)
        _, feats = partition_blocks(_grid(rng, 8, 8, 5), 4)
        norms = np.linalg.norm(feats.normalized, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_zero_block_normalizes_to_zero(self):
        data = np.zeros((2, 4, 3), dtype=np.float32)
        data[:, 2:, :] = 1.0
        _, feats = partition_blocks(FeatureGrid(data), 2)
        assert np.array_equal(feats.normalized[0], np.zeros(12))
        assert abs(np.linalg.norm(feats.normalized[1]) - 1.0) < 1e-12


class TestRanking:
    def test_self_retrieval_top1(self):
        # a block's cosine with itself is exactly 1, every other is below
        rng = np.random.default_rng(41)
        _, feats = partition_blocks(_grid(rng, 8, 8, 6), 2)
        ranking = rank_blocks(feats, feats, k=1)
        assert np.array_equal(ranking.candidates[:, 0], np.arange(16))
        assert np.abs(ranking.max_scores - 1.0).max() < 1e-12

    def test_permuted_orthogonal_blocks_recovered(self):
        # exemplar blocks are disjoint one-hot directions; a permuted query
        # must retrieve exactly the matching block
        n, d = 8, 8
        ex = np.zeros((n, 1, d), dtype=np.float32)
        ex[np.arange(n), 0, np.arange(d)] = 1.0
        perm = np.random.default_rng(42).permutation(n)
        _, ef = partition_blocks(FeatureGrid(ex), 1)
        _, qf = partition_blocks(FeatureGrid(ex[perm]), 1)
        ranking = rank_blocks(qf, ef, k=1, lam=50.0)
        assert np.array_equal(ranking.candidates[:, 0], perm)

    def test_k_equals_block_count(self):
        rng = np.random.default_rng(43)
        _, feats = partition_blocks(_grid(rng, 4, 4, 3), 2)
        ranking = rank_blocks(feats, feats, k=4)
        assert np.array_equal(ranking.candidates, np.tile(np.arange(4), (4, 1)))
        assert np.array_equal(ranking.gammas, np.ones((4, 4)))

    def test_worker_count_does_not_change_output(self, ranking_cpus):
        rng = np.random.default_rng(44)
        _, qf = partition_blocks(_grid(rng, 16, 16, 4), 2)
        _, ef = partition_blocks(_grid(rng, 16, 16, 4), 2)
        ranking_cpus(1)
        base = rank_blocks(qf, ef, k=3)
        ranking_cpus(2)
        par = rank_blocks(qf, ef, k=3)
        assert base.candidates.tobytes() == par.candidates.tobytes()
        assert base.gammas.tobytes() == par.gammas.tobytes()
        assert base.max_scores.tobytes() == par.max_scores.tobytes()

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        # 576 query blocks: 37-row chunks on two threads (19 rows each),
        # 256-row chunks on two threads (128 rows each), and one serial chunk
        rng = np.random.default_rng(47)
        _, qf = partition_blocks(_grid(rng, 48, 48, 3), 2)
        _, ef = partition_blocks(_grid(rng, 48, 48, 3), 2)
        monkeypatch.setattr(correspondence, "_cpus", lambda: 2)
        fields = ("candidates", "gammas", "max_scores", "iterations", "marginal_errors")
        outputs = []
        for chunk in (37, 256, 1000):
            monkeypatch.setattr(correspondence, "_CHUNK", chunk)
            ranking = rank_blocks(qf, ef, k=3)
            outputs.append([getattr(ranking, f).tobytes() for f in fields])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_pool_below_two_chunks(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(correspondence, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(correspondence, "_cpus", lambda: 64)
        blocks = 2 * correspondence._CHUNK - 1
        _, feats = partition_blocks(_grid(np.random.default_rng(48), 1, blocks, 2), 1)
        assert rank_blocks(feats, feats, k=2).candidates.shape == (blocks, 2)

    def test_pool_takes_one_thread_per_cpu_from_two_chunks(self, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(correspondence, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(correspondence, "_cpus", lambda: 2)
        _, feats = partition_blocks(_grid(np.random.default_rng(49), 2, correspondence._CHUNK, 2), 1)
        rank_blocks(feats, feats, k=2)
        assert sizes == [2]

    def test_threads_keep_the_serial_peak(self, monkeypatch):
        # 1024 query blocks at b=4: two threads share one chunk's rows, so the
        # traced peak, and check 4's slope, stay at the serial figure
        rng = np.random.default_rng(50)
        _, qf = partition_blocks(_grid(rng, 64, 64, 8), 2)
        _, ef = partition_blocks(_grid(rng, 64, 64, 8), 2)
        peaks = []
        for cpus in (1, 2):
            monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                rank_blocks(qf, ef, k=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_k_out_of_range(self):
        rng = np.random.default_rng(45)
        _, feats = partition_blocks(_grid(rng, 4, 4, 2), 2)
        with pytest.raises(ValidationError):
            rank_blocks(feats, feats, k=0)
        with pytest.raises(ValidationError):
            rank_blocks(feats, feats, k=5)

    def test_block_dim_mismatch(self):
        rng = np.random.default_rng(46)
        _, a = partition_blocks(_grid(rng, 4, 4, 2), 2)
        _, b = partition_blocks(_grid(rng, 4, 4, 3), 2)
        with pytest.raises(ValidationError):
            rank_blocks(a, b, k=1)

    def test_scores_kept_only_for_small_problems(self):
        # the full score matrix is never kept; only the count of scored pairs
        rng = np.random.default_rng(47)
        _, big = partition_blocks(_grid(rng, 48, 48, 2), 2)
        ranking = rank_blocks(big, big, k=1, iters=5)
        assert ranking.scored_pairs == 576 * 576

    def test_candidate_rows_ascending(self):
        rng = np.random.default_rng(48)
        _, qf = partition_blocks(_grid(rng, 8, 8, 3), 2)
        _, ef = partition_blocks(_grid(rng, 8, 8, 3), 2)
        cand = rank_blocks(qf, ef, k=5).candidates
        assert (np.diff(cand, axis=1) > 0).all()


class TestAttention:
    def test_matches_documented_formula(self):
        # semi-oracle: recompute every row from gammas and raw cosines
        rng = np.random.default_rng(50)
        query, exemplar = _grid(rng, 4, 4, 5), _grid(rng, 4, 4, 5)
        tau = 0.3
        part, qf = partition_blocks(query, 2)
        e_part, ef = partition_blocks(exemplar, 2)
        ranking = rank_blocks(qf, ef, k=2)
        corr = block_attention(part, query, exemplar, ranking, tau)

        qn = query.vectors.astype(np.float64)
        qn /= np.linalg.norm(qn, axis=1, keepdims=True)
        en = exemplar.vectors.astype(np.float64)
        en /= np.linalg.norm(en, axis=1, keepdims=True)
        q_feat, e_feat = part.feature_indices(), e_part.feature_indices()
        for block in range(part.block_count):
            for offset, site in enumerate(q_feat[block]):
                cols = e_feat[ranking.candidates[block]].reshape(-1)
                assert np.array_equal(corr.indices[site], cols)
                raw = ranking.gammas[block].repeat(4) * np.exp(qn[site] @ en[cols].T / tau)
                assert np.allclose(corr.weights[site], raw / raw.sum(), atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(51)
        _, corr = _pipeline(_grid(rng, 8, 8, 4), _grid(rng, 8, 8, 4), 2, 3, tau=0.07)
        sums = corr.weights.astype(np.float64).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-5

    def test_self_attention_peaks_on_own_site(self):
        rng = np.random.default_rng(52)
        grid = _grid(rng, 8, 8, 6)
        _, corr = _pipeline(grid, grid, 2, 1, tau=0.01)
        for q in range(corr.sites):
            assert corr.indices[q][np.argmax(corr.weights[q])] == q

    def test_equal_gammas_reduce_to_masked_softmax(self):
        # with all candidate gammas equal the gamma factor cancels in the
        # row normalization, leaving a plain softmax over candidate features
        rng = np.random.default_rng(53)
        grid = _grid(rng, 6, 6, 4)
        part, feats = partition_blocks(grid, 2)
        ranking = rank_blocks(feats, feats, k=9)  # k == N, all gammas exactly 1
        corr = block_attention(part, grid, grid, ranking, tau=0.2)
        qn = grid.vectors.astype(np.float64)
        qn /= np.linalg.norm(qn, axis=1, keepdims=True)
        for q in range(0, corr.sites, 7):
            cols = corr.indices[q]
            t = qn[q] @ qn[cols].T / 0.2
            w = np.exp(t - t.max())
            assert np.allclose(corr.weights[q], w / w.sum(), atol=1e-6)

    def test_only_candidate_blocks_are_read(self):
        # doctor the non-candidate exemplar blocks after ranking; attention
        # must not notice, or the sparsity claim is fiction
        rng = np.random.default_rng(54)
        query, exemplar = _grid(rng, 8, 8, 4), _grid(rng, 8, 8, 4)
        part, qf = partition_blocks(query, 2)
        _, ef = partition_blocks(exemplar, 2)
        ranking = rank_blocks(qf, ef, k=2)
        clean = block_attention(part, query, exemplar, ranking, tau=0.1)

        retrieved = np.zeros(16, dtype=bool)
        retrieved[np.unique(ranking.candidates)] = True
        doctored = exemplar.data.copy()
        tiles = doctored.reshape(4, 2, 4, 2, 4).transpose(0, 2, 1, 3, 4).reshape(16, -1)
        tiles[~retrieved] = 1e6
        doctored = tiles.reshape(4, 4, 2, 2, 4).transpose(0, 2, 1, 3, 4).reshape(8, 8, 4)
        if retrieved.all():
            pytest.skip("every block was retrieved; nothing to doctor")
        dirty = block_attention(part, query, FeatureGrid(doctored), ranking, tau=0.1)
        assert clean.weights.tobytes() == dirty.weights.tobytes()
        assert clean.indices.tobytes() == dirty.indices.tobytes()

    def test_validation(self):
        rng = np.random.default_rng(55)
        query, exemplar = _grid(rng, 4, 4, 2), _grid(rng, 4, 4, 2)
        part, qf = partition_blocks(query, 2)
        _, ef = partition_blocks(exemplar, 2)
        ranking = rank_blocks(qf, ef, k=1)
        with pytest.raises(ValidationError):
            block_attention(part, query, exemplar, ranking, tau=0.0)
        with pytest.raises(ValidationError):
            block_attention(BlockPartition(4, 4, 4), query, exemplar, ranking, tau=0.1)
        with pytest.raises(ValidationError):
            block_attention(part, query, _grid(rng, 4, 4, 3), ranking, tau=0.1)
        with pytest.raises(ValidationError):
            block_attention(part, query, _grid(rng, 8, 8, 2), ranking, tau=0.1)


class TestNormalizerGuard:
    def test_norm_below_guard_collapses_to_zero(self):
        # a nonzero norm under the 1e-8 guard must come out as exact zeros
        # wherever the shared normalizer runs, not as a unit vector
        rng = np.random.default_rng(56)
        data = rng.standard_normal((4, 4, 3)).astype(np.float32)
        data[:2, :2] = 0.0
        data[0, 0, 1] = 5e-9  # site 0, and with it block 0, has norm 5e-9
        grid = FeatureGrid(data)
        assert np.array_equal(l2_normalize_features(grid).data[0, 0], np.zeros(3))
        part, feats = partition_blocks(grid, 2)
        assert np.array_equal(feats.normalized[0], np.zeros(12))
        ranking = rank_blocks(feats, feats, k=4)  # k == N: every gamma is exactly 1
        corr = block_attention(part, grid, grid, ranking, tau=0.1)
        # site 0 has cosine 0 with every exemplar site, and every query site
        # has cosine 0 with exemplar sites 0, 1, 4 and 5
        assert np.array_equal(corr.weights[0], np.full(16, 1 / 16, dtype=np.float32))
        zero_cols = np.isin(corr.indices, [0, 1, 4, 5])
        for q in range(corr.sites):
            assert np.unique(corr.weights[q][zero_cols[q]]).size == 1


class TestDenseBaseline:
    def test_rows_are_dense_and_stochastic(self):
        rng = np.random.default_rng(60)
        weights = dense_correspondence_baseline(_grid(rng, 4, 6, 3), _grid(rng, 6, 4, 3), 0.1)
        assert weights.shape == (24, 24)
        assert weights.dtype == np.float32
        sums = weights.astype(np.float64).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-5

    def test_self_correspondence_peaks_on_diagonal(self):
        rng = np.random.default_rng(61)
        grid = _grid(rng, 6, 6, 8)
        weights = dense_correspondence_baseline(grid, grid, 0.02)
        assert np.array_equal(np.argmax(weights, axis=1), np.arange(36))

    def test_ranked_warp_close_to_dense_when_argmax_retrieved(self):
        # when every dense argmax lands inside a retrieved block, the two
        # warps should agree to well under the feature scale; noisy rolled
        # exemplars make the coverage condition hold by construction
        rng = np.random.default_rng(63)
        checked = 0
        for _ in range(8):
            q = rng.standard_normal((8, 8, 8)).astype(np.float32)
            e = np.roll(q, (2, 2), axis=(0, 1)) + (
                0.1 * rng.standard_normal((8, 8, 8))
            ).astype(np.float32)
            query, exemplar = FeatureGrid(q), FeatureGrid(e)
            _, sparse = _pipeline(query, exemplar, 2, 3, tau=0.05)
            dense = dense_correspondence_baseline(query, exemplar, 0.05)
            argmax = np.argmax(dense, axis=1)
            covered = all(
                argmax[q] in sparse.indices[q] for q in range(sparse.sites)
            )
            if not covered:
                continue
            checked += 1
            gap = np.abs(
                warp(sparse, exemplar).vectors.astype(np.float64)
                - dense_warp(dense, exemplar).astype(np.float64)
            ).mean()
            assert gap < 0.05, f"warp gap {gap:.4f}"
        assert checked >= 1, "no instance had all argmaxes retrieved"

    def test_single_block_attention_equals_dense(self):
        # one block covering the whole grid with k = 1 is the degenerate
        # case where sparse attention and the dense baseline coincide
        rng = np.random.default_rng(62)
        query, exemplar = _grid(rng, 4, 4, 3), _grid(rng, 4, 4, 3)
        ranking, corr = _pipeline(query, exemplar, 4, 1, tau=0.15)
        assert np.array_equal(ranking.gammas, np.ones((1, 1)))
        dense = dense_correspondence_baseline(query, exemplar, 0.15)
        assert np.array_equal(corr.indices, np.tile(np.arange(16), (16, 1)))
        assert np.allclose(corr.weights, dense, atol=1e-6)


class TestWarp:
    def test_constant_exemplar_passes_through(self):
        # rows sum to 1, so a constant field must warp to itself
        rng = np.random.default_rng(70)
        const = FeatureGrid(np.full((8, 8, 3), 2.5, dtype=np.float32))
        _, corr = _pipeline(_grid(rng, 8, 8, 3), _grid(rng, 8, 8, 3), 2, 2, tau=0.07)
        warped = warp(corr, const)
        assert np.abs(warped.data - 2.5).max() < 1e-5

    def test_dense_self_warp_near_identity(self):
        rng = np.random.default_rng(71)
        grid = _grid(rng, 6, 6, 8)
        warped = dense_warp(dense_correspondence_baseline(grid, grid, 0.005), grid)
        assert np.abs(warped - grid.vectors).max() < 1e-4

    def test_sparse_self_warp_near_identity(self):
        rng = np.random.default_rng(72)
        grid = _grid(rng, 8, 8, 8)
        _, corr = _pipeline(grid, grid, 2, 1, tau=0.005)
        assert np.abs(warp(corr, grid).data - grid.data).max() < 1e-4

    def test_block_shift_recovered(self):
        # exemplar is the query rolled by one block; warping back through
        # the correspondence must undo the shift
        rng = np.random.default_rng(73)
        query = _grid(rng, 8, 8, 6)
        exemplar = FeatureGrid(np.roll(query.data, (2, 2), axis=(0, 1)))
        _, corr = _pipeline(query, exemplar, 2, 1, tau=0.01)
        err = np.abs(warp(corr, exemplar).data - query.data).mean()
        assert err < 1e-3

    def test_warp_is_linear_in_exemplar(self):
        rng = np.random.default_rng(74)
        _, corr = _pipeline(_grid(rng, 4, 4, 2), _grid(rng, 4, 4, 2), 2, 2, tau=0.1)
        z1 = FeatureGrid(rng.integers(-3, 4, (4, 4, 2)).astype(np.float32))
        z2 = FeatureGrid(rng.integers(-3, 4, (4, 4, 2)).astype(np.float32))
        both = FeatureGrid(z1.data + z2.data)
        lhs = warp(corr, both).data
        rhs = warp(corr, z1).data + warp(corr, z2).data
        assert np.abs(lhs - rhs).max() < 1e-5

    @pytest.mark.parametrize("d", [1, 2, 3, 32])
    @pytest.mark.parametrize("m", [1, 4, 12, 192])
    def test_sparse_matches_gather_formula(self, d, m):
        # the (L, m, d) gather-and-sum that the per-block GEMM replaced, on
        # grids of 40 and 1040 sites and on one that crosses a warp tile of
        # 1 x 1 blocks at every (d, m)
        rng = np.random.default_rng(76)
        data = rng.standard_normal((6, 9, d)).astype(np.float32)
        if m >= 16:
            data[0, :2] = [[1 + 2.0**-12], [2.0**-40]]
        exemplar = FeatureGrid(data)
        z = exemplar.vectors.astype(np.float64)
        for height in (5, 130, _TILE_BYTES // (8 * m * d * 8) + 2):
            weights = rng.random((height * 8, m)).astype(np.float32)
            weights /= weights.sum(axis=1, keepdims=True)
            indices = rng.integers(0, 54, (height * 8, m)).astype(np.int32)
            if m >= 16:
                # row 0 sums to a float32 tie when added in order, and to just
                # above it when added pairwise, as numpy sums a d == 1 gather
                weights[0], indices[0] = 0.0, 2
                weights[0, 0], indices[0, 0] = 1 + 2.0**-12, 0
                weights[0, [1, 9]], indices[0, [1, 9]] = 2.0**-13, 1
                weights[-1], indices[-1] = weights[0], indices[0]  # the same row in a later tile
            corr = SparseCorrespondence(BlockPartition(height, 8, 1), 54, weights, indices)
            gathered = (z[indices] * weights.astype(np.float64)[:, :, None]).sum(axis=1)
            expected = gathered.reshape(height, 8, d).astype(np.float32)
            assert warp(corr, exemplar).data.tobytes() == expected.tobytes()

    def test_site_count_mismatch(self):
        rng = np.random.default_rng(75)
        _, corr = _pipeline(_grid(rng, 4, 4, 2), _grid(rng, 4, 4, 2), 2, 1, tau=0.1)
        with pytest.raises(ValidationError):
            warp(corr, _grid(rng, 4, 6, 2))


def _scattered_indices(part, ranking):
    """The per-site (L, m) index array block_attention scattered before links were kept per block."""
    e_feat = BlockPartition(part.height, part.width, part.block_side).feature_indices()
    cand_feat = e_feat[ranking.candidates].reshape(part.block_count, -1)
    indices = np.empty((part.height * part.width, cand_feat.shape[1]), dtype=np.int32)
    indices[part.feature_indices()] = cand_feat[:, None, :]
    return indices


class TestBlockLinks:
    @pytest.mark.parametrize("side", [1, 2, 8])
    @pytest.mark.parametrize("masked", [False, True])
    def test_indices_equal_scattered_links(self, side, masked):
        # the warp command's inputs: unit sites, with region coordinates
        # appended on both sides when a mask is given
        rng = np.random.default_rng(90)
        query = l2_normalize_features(_grid(rng, 24, 32, 5))
        exemplar = l2_normalize_features(_grid(rng, 24, 32, 5))
        if masked:
            labels = (np.arange(24)[:, None] // 9 + 3 * (np.arange(32) // 12)).astype(np.uint32)
            channels = semantic_pe(LabelMask(labels))
            query, exemplar = append_position(query, channels), append_position(exemplar, channels)
        ranking, corr = _pipeline(query, exemplar, side, 3, tau=0.07)
        assert corr.links.shape == (corr.partition.block_count, 3 * side * side)
        assert corr.indices.tobytes() == _scattered_indices(corr.partition, ranking).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_ranked_warp_equals_per_site_expansion(self, d, monkeypatch):
        # 576 query blocks of 4 sites; at the default tile size d = 32 crosses
        # tile boundaries, and a 37-block tile makes every d cross them
        rng = np.random.default_rng(91)
        _, corr = _pipeline(_grid(rng, 48, 48, 4), _grid(rng, 48, 48, 4), 2, 3, tau=0.07)
        per_site = SparseCorrespondence(
            BlockPartition(48, 48, 1), corr.exemplar_sites, corr.weights, corr.indices
        )
        exemplar = _grid(rng, 48, 48, d)
        warped = [warp(corr, exemplar).data.tobytes()]
        warped.append(warp(per_site, exemplar).data.tobytes())
        monkeypatch.setattr(correspondence, "_TILE_BYTES", 37 * 12 * d * 8)
        warped.append(warp(corr, exemplar).data.tobytes())
        warped.append(warp(per_site, exemplar).data.tobytes())
        assert warped[1:] == warped[:1] * 3

    def test_per_site_warp_peak_is_one_tile(self):
        # m = 192 links per site over 1024 sites at d = 32: the whole (L, m, d)
        # float64 gather would take 48 MiB, one tile of it about 1 MiB
        rng = np.random.default_rng(92)
        weights = rng.random((1024, 192)).astype(np.float32)
        weights /= weights.sum(axis=1, keepdims=True)
        links = rng.integers(0, 1024, (1024, 192)).astype(np.int32)
        corr = SparseCorrespondence(BlockPartition(32, 32, 1), 1024, weights, links)
        exemplar = _grid(rng, 32, 32, 32)
        tracemalloc.start()
        try:
            warp(corr, exemplar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_links_shape_must_match_blocks(self):
        weights = np.full((16, 8), 0.125, dtype=np.float32)
        part = BlockPartition(4, 4, 2)  # 4 blocks
        SparseCorrespondence(part, 16, weights, np.zeros((4, 8), dtype=np.int32))
        for shape in ((3, 8), (16, 8), (4, 7), (32,)):
            with pytest.raises(ValidationError):
                SparseCorrespondence(part, 16, weights, np.zeros(shape, dtype=np.int32))

    def test_site_blocks_follow_feature_indices(self):
        part = BlockPartition(6, 10, 2)
        corr = SparseCorrespondence(
            part, 4, np.ones((60, 1), dtype=np.float32), np.zeros((15, 1), dtype=np.int32)
        )
        blocks = np.empty(60, dtype=int)
        blocks[part.feature_indices()] = np.arange(15)[:, None]
        assert np.array_equal(corr.site_blocks(), blocks)


class TestEntryScaling:
    def test_sparse_entries_are_l_times_k_times_b(self):
        rng = np.random.default_rng(80)
        for h, w in ((16, 16), (32, 32)):
            _, corr = _pipeline(_grid(rng, h, w, 2), _grid(rng, h, w, 2), 2, 3, tau=0.07)
            assert corr.entry_count == h * w * 3 * 4

    def test_dense_entries_are_l_squared(self):
        rng = np.random.default_rng(81)
        for h, w in ((8, 8), (16, 16)):
            dense = dense_correspondence_baseline(_grid(rng, h, w, 2), _grid(rng, h, w, 2), 0.1)
            assert dense.size == (h * w) ** 2

    def test_sparse_width_validation(self):
        w = np.full((4, 2), 0.5, dtype=np.float32)
        part = BlockPartition(2, 2, 1)
        with pytest.raises(ValidationError):
            SparseCorrespondence(part, 8, w, np.array([[0, 9]] * 4, dtype=np.int32))
        with pytest.raises(ValidationError):
            SparseCorrespondence(part, 8, w, np.array([[0, -1]] * 4, dtype=np.int32))
