"""Confidence maps and convex feature blending."""

import numpy as np
import pytest

from rankwarp.correspondence import partition_blocks, rank_blocks
from rankwarp.fusion import ConfidenceMap, confidence_map, fuse, fuse_multichannel
from rankwarp.tensors import FeatureGrid, ValidationError


def _grid(rng, h, w, d):
    return FeatureGrid(rng.standard_normal((h, w, d)).astype(np.float32))


def _ranking(rng, h=8, w=8, d=4, side=2, k=2):
    qf = partition_blocks(_grid(rng, h, w, d), side)
    ef = partition_blocks(_grid(rng, h, w, d), side)
    return rank_blocks(qf, ef, k)


class TestConfidenceMap:
    def test_self_match_is_full_confidence(self):
        rng = np.random.default_rng(100)
        feats = partition_blocks(_grid(rng, 8, 8, 5), 2)
        cmap = confidence_map(rank_blocks(feats, feats, k=1))
        assert cmap.data.shape == (4, 4, 1)
        assert np.abs(cmap.data - 1.0).max() < 1e-6

    def test_anticorrelated_clamps_to_zero(self):
        # orthogonal one-hot blocks against their negations: every cosine is
        # 0 or -1, so the clamped peak is exactly 0
        data = np.zeros((2, 2, 4), dtype=np.float32)
        data.reshape(4, 4)[np.arange(4), np.arange(4)] = 1.0
        qf = partition_blocks(FeatureGrid(data), 1)
        ef = partition_blocks(FeatureGrid(-data), 1)
        cmap = confidence_map(rank_blocks(qf, ef, k=1))
        assert cmap.data.max() == 0.0

    def test_values_within_unit_interval(self):
        cmap = confidence_map(_ranking(np.random.default_rng(102)))
        assert cmap.data.min() >= 0.0 and cmap.data.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ConfidenceMap(np.array([[[0.5], [1.2]]]))
        with pytest.raises(ValidationError):
            ConfidenceMap(np.array([[[-0.1]]]))
        with pytest.raises(ValidationError):
            ConfidenceMap(np.zeros(4))


class TestFuse:
    def test_zero_confidence_keeps_conditional_bit_exact(self):
        rng = np.random.default_rng(110)
        cond, warped = _grid(rng, 6, 6, 3), _grid(rng, 6, 6, 3)
        cmap = ConfidenceMap(np.zeros((3, 3, 1), dtype=np.float32))
        assert fuse(cond, warped, cmap).data.tobytes() == cond.data.tobytes()

    def test_full_confidence_keeps_warped_bit_exact(self):
        rng = np.random.default_rng(111)
        cond, warped = _grid(rng, 6, 6, 3), _grid(rng, 6, 6, 3)
        cmap = ConfidenceMap(np.ones((3, 3, 1), dtype=np.float32))
        assert fuse(cond, warped, cmap).data.tobytes() == warped.data.tobytes()

    def test_half_confidence_is_the_average(self):
        cond = FeatureGrid(np.full((2, 2, 1), 1.0, dtype=np.float32))
        warped = FeatureGrid(np.full((2, 2, 1), 3.0, dtype=np.float32))
        cmap = ConfidenceMap(np.full((1, 1, 1), 0.5, dtype=np.float32))
        assert np.array_equal(fuse(cond, warped, cmap).data, np.full((2, 2, 1), 2.0))

    def test_output_stays_between_inputs(self):
        rng = np.random.default_rng(112)
        cond, warped = _grid(rng, 8, 8, 4), _grid(rng, 8, 8, 4)
        cmap = ConfidenceMap(rng.random((4, 4, 1)).astype(np.float32))
        out = fuse(cond, warped, cmap).data
        lo = np.minimum(cond.data, warped.data)
        hi = np.maximum(cond.data, warped.data)
        assert (out >= lo).all() and (out <= hi).all()

    def test_monotone_in_confidence(self):
        # raising confidence moves every site toward the warped value
        cond = FeatureGrid(np.zeros((4, 4, 2), dtype=np.float32))
        warped = FeatureGrid(np.ones((4, 4, 2), dtype=np.float32))
        lo = fuse(cond, warped, ConfidenceMap(np.full((2, 2, 1), 0.3, dtype=np.float32)))
        hi = fuse(cond, warped, ConfidenceMap(np.full((2, 2, 1), 0.8, dtype=np.float32)))
        assert (hi.data >= lo.data).all()

    def test_block_map_upsampled_nearest(self):
        cond = FeatureGrid(np.zeros((4, 4, 1), dtype=np.float32))
        warped = FeatureGrid(np.ones((4, 4, 1), dtype=np.float32))
        cmap = ConfidenceMap(np.array([[0.0, 1.0], [0.25, 0.75]], dtype=np.float32)[:, :, None])
        out = fuse(cond, warped, cmap).data[:, :, 0]
        assert np.array_equal(out[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(out[:2, 2:], np.ones((2, 2)))
        assert np.array_equal(out[2:, :2], np.full((2, 2), 0.25))
        assert np.array_equal(out[2:, 2:], np.full((2, 2), 0.75))

    def test_shape_and_divisibility_validation(self):
        rng = np.random.default_rng(113)
        cmap = ConfidenceMap(np.full((2, 2, 1), 0.5, dtype=np.float32))
        with pytest.raises(ValidationError):
            fuse(_grid(rng, 4, 4, 2), _grid(rng, 4, 4, 3), cmap)
        with pytest.raises(ValidationError):
            fuse(_grid(rng, 5, 4, 2), _grid(rng, 5, 4, 2), cmap)
        # one plane per channel is fuse_multichannel's map, not fuse's
        planes = ConfidenceMap(np.full((2, 2, 2), 0.5, dtype=np.float32))
        with pytest.raises(ValidationError):
            fuse(_grid(rng, 4, 4, 2), _grid(rng, 4, 4, 2), planes)


class TestFuseMultichannel:
    def test_identical_planes_reduce_to_single_channel(self):
        rng = np.random.default_rng(120)
        cond, warped = _grid(rng, 4, 4, 3), _grid(rng, 4, 4, 3)
        plane = rng.random((2, 2, 1)).astype(np.float32)
        single = fuse(cond, warped, ConfidenceMap(plane))
        multi = fuse_multichannel(
            cond, warped, ConfidenceMap(np.concatenate([plane] * 3, axis=2))
        )
        assert multi.data.tobytes() == single.data.tobytes()

    def test_channels_blend_independently(self):
        cond = FeatureGrid(np.zeros((2, 2, 2), dtype=np.float32))
        warped = FeatureGrid(np.ones((2, 2, 2), dtype=np.float32))
        planes = np.stack([np.zeros((1, 1)), np.ones((1, 1))], axis=2).astype(np.float32)
        out = fuse_multichannel(cond, warped, ConfidenceMap(planes)).data
        assert np.array_equal(out[:, :, 0], np.zeros((2, 2)))
        assert np.array_equal(out[:, :, 1], np.ones((2, 2)))

    def test_per_channel_boundary_bit_exact(self):
        rng = np.random.default_rng(121)
        cond, warped = _grid(rng, 4, 4, 2), _grid(rng, 4, 4, 2)
        planes = np.stack([np.zeros((2, 2)), np.ones((2, 2))], axis=2).astype(np.float32)
        out = fuse_multichannel(cond, warped, ConfidenceMap(planes)).data
        assert out[:, :, 0].tobytes() == np.ascontiguousarray(cond.data[:, :, 0]).tobytes()
        assert out[:, :, 1].tobytes() == np.ascontiguousarray(warped.data[:, :, 1]).tobytes()

    def test_channel_count_validation(self):
        rng = np.random.default_rng(122)
        mmap = ConfidenceMap(np.full((2, 2, 2), 0.5, dtype=np.float32))
        with pytest.raises(ValidationError):
            fuse_multichannel(_grid(rng, 4, 4, 3), _grid(rng, 4, 4, 3), mmap)

    def test_map_validation(self):
        with pytest.raises(ValidationError):
            ConfidenceMap(np.full((2, 2), 0.5, dtype=np.float32))
        with pytest.raises(ValidationError):
            ConfidenceMap(np.full((2, 2, 1), 1.5, dtype=np.float32))
