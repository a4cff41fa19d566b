"""Global and per-region coordinate channels."""

import numpy as np
import pytest

from rankwarp.posenc import PositionChannels, append_position, semantic_pe, vanilla_pe
from rankwarp.tensors import FeatureGrid, LabelMask, ValidationError


class TestVanilla:
    def test_three_by_three(self):
        pe = vanilla_pe(3, 3).data
        assert np.array_equal(pe[:, :, 0], np.tile([-1.0, 0.0, 1.0], (3, 1)))
        assert np.array_equal(pe[:, :, 1], np.tile([[-1.0], [0.0], [1.0]], (1, 3)))

    def test_one_by_five(self):
        pe = vanilla_pe(1, 5).data
        assert np.array_equal(pe[0, :, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])
        # a single row has no vertical extent
        assert np.array_equal(pe[0, :, 1], np.zeros(5))

    def test_two_by_two_hits_corners(self):
        pe = vanilla_pe(2, 2).data
        assert np.array_equal(pe[0, 0], [-1.0, -1.0])
        assert np.array_equal(pe[1, 1], [1.0, 1.0])

    def test_single_pixel(self):
        assert np.array_equal(vanilla_pe(1, 1).data, np.zeros((1, 1, 2)))

    def test_range_and_extremes(self):
        pe = vanilla_pe(7, 11).data
        assert np.abs(pe).max() == 1.0
        assert pe[:, 0, 0].max() == -1.0 and pe[:, -1, 0].min() == 1.0
        assert pe[0, :, 1].max() == -1.0 and pe[-1, :, 1].min() == 1.0

    def test_bad_dims(self):
        with pytest.raises(ValidationError):
            vanilla_pe(0, 4)


class TestSemantic:
    def test_single_label_equals_vanilla(self):
        # one region spanning the grid is the global frame, bit for bit
        mask = LabelMask(np.zeros((5, 9), dtype=np.uint32))
        assert semantic_pe(mask).data.tobytes() == vanilla_pe(5, 9).data.tobytes()

    def test_congruent_regions_share_coordinates(self):
        # two 2x3 rectangles at different offsets get identical frames
        labels = np.zeros((6, 8), dtype=np.uint32)
        labels[1:3, 1:4] = 1
        labels[3:5, 4:7] = 2
        pe = semantic_pe(LabelMask(labels)).data
        assert np.array_equal(pe[1:3, 1:4], pe[3:5, 4:7])

    def test_translation_invariance(self):
        rng = np.random.default_rng(90)
        base = (rng.random((4, 5)) < 0.5).astype(np.uint32) + 7
        canvas_a = np.zeros((10, 12), dtype=np.uint32)
        canvas_b = np.zeros((10, 12), dtype=np.uint32)
        canvas_a[1:5, 2:7] = base
        canvas_b[5:9, 6:11] = base
        pe_a = semantic_pe(LabelMask(canvas_a)).data
        pe_b = semantic_pe(LabelMask(canvas_b)).data
        assert np.array_equal(pe_a[1:5, 2:7], pe_b[5:9, 6:11])

    def test_region_bbox_extremes_reach_unit(self):
        labels = np.zeros((7, 7), dtype=np.uint32)
        labels[2:6, 1:6] = 3
        pe = semantic_pe(LabelMask(labels)).data
        region = pe[2:6, 1:6]
        assert region[:, 0, 0].max() == -1.0 and region[:, -1, 0].min() == 1.0
        assert region[0, :, 1].max() == -1.0 and region[-1, :, 1].min() == 1.0
        assert np.abs(pe).max() <= 1.0

    def test_region_isolation(self):
        # editing one region's shape must not move another region's frame
        labels = np.zeros((6, 6), dtype=np.uint32)
        labels[0:2, 0:2] = 1
        labels[4:6, 3:6] = 2
        before = semantic_pe(LabelMask(labels)).data.copy()
        labels2 = labels.copy()
        labels2[0:3, 0:3] = 1
        after = semantic_pe(LabelMask(labels2)).data
        assert np.array_equal(before[4:6, 3:6], after[4:6, 3:6])

    def test_single_site_region_is_origin(self):
        labels = np.zeros((3, 3), dtype=np.uint32)
        labels[1, 1] = 5
        pe = semantic_pe(LabelMask(labels)).data
        assert np.array_equal(pe[1, 1], [0.0, 0.0])

    def test_disconnected_sites_share_one_frame(self):
        # same label in two corners: one bounding box spans both
        labels = np.zeros((3, 5), dtype=np.uint32)
        labels[0, 0] = 9
        labels[0, 4] = 9
        pe = semantic_pe(LabelMask(labels)).data
        assert pe[0, 0, 0] == -1.0 and pe[0, 4, 0] == 1.0


def _per_label_pe(labels):
    """The per-label loop the grouped encoding replaced, kept as its oracle."""

    def ramp(idx, lo, hi):
        half = (hi - lo) / 2.0
        if half == 0.0:
            return np.zeros(idx.shape)
        return (idx - (lo + hi) / 2.0) / half

    out = np.zeros(labels.shape + (2,))
    for value in np.unique(labels):
        ys, xs = np.nonzero(labels == value)
        out[ys, xs, 0] = ramp(xs, int(xs.min()), int(xs.max()))
        out[ys, xs, 1] = ramp(ys, int(ys.min()), int(ys.max()))
    return out.astype(np.float32)


class TestSemanticMatchesPerLabelLoop:
    @pytest.mark.parametrize("labels", [1, 16, 4096])
    def test_label_counts(self, labels):
        rng = np.random.default_rng(labels)
        side = 64
        if labels == 1:
            mask = np.full((side, side), 7)
        elif labels == 16:  # 4 x 4 rectangles of uneven sizes, labels not in raster order
            cuts = [0, 5, 30, 31, side]
            mask = np.zeros((side, side), dtype=np.int64)
            ids = rng.permutation(16) * 1000
            for i in range(4):
                for j in range(4):
                    mask[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]] = ids[4 * i + j]
        else:  # every site its own label, shuffled
            mask = rng.permutation(side * side).reshape(side, side)
        pe = semantic_pe(LabelMask(mask.astype(np.uint32))).data
        assert len(np.unique(mask)) == labels
        assert pe.tobytes() == _per_label_pe(mask).tobytes()

    def test_single_row_and_single_column_regions(self):
        labels = np.zeros((6, 9), dtype=np.uint32)
        labels[2, 1:8] = 3  # one row
        labels[:, 8] = 4  # one column
        labels[0, 0] = 5  # one site
        for mask in (labels, labels[2:3], labels[:, 8:9]):
            pe = semantic_pe(LabelMask(mask)).data
            assert pe.tobytes() == _per_label_pe(mask).tobytes()
        pe = semantic_pe(LabelMask(labels)).data
        assert np.array_equal(pe[2, 1:8, 1], np.zeros(7)) and np.array_equal(pe[:, 8, 0], np.zeros(6))

    def test_labels_split_over_disconnected_sites(self):
        rng = np.random.default_rng(41)
        for shape in ((17, 23), (1, 40), (40, 1)):
            mask = rng.integers(0, 6, shape).astype(np.uint32)  # every label scattered
            pe = semantic_pe(LabelMask(mask)).data
            assert pe.tobytes() == _per_label_pe(mask).tobytes()


class TestAppend:
    def test_channels_concatenated(self):
        rng = np.random.default_rng(91)
        grid = FeatureGrid(rng.standard_normal((4, 6, 3)).astype(np.float32))
        pe = vanilla_pe(4, 6)
        out = append_position(grid, pe)
        assert out.channels == 5
        assert np.array_equal(out.data[:, :, :3], grid.data)
        assert np.array_equal(out.data[:, :, 3:], pe.data)

    def test_weight_scales_only_new_channels(self):
        grid = FeatureGrid(np.ones((3, 3, 1), dtype=np.float32))
        pe = vanilla_pe(3, 3)
        out = append_position(grid, pe, weight=0.25)
        assert np.array_equal(out.data[:, :, 0], np.ones((3, 3), dtype=np.float32))
        assert np.array_equal(out.data[:, :, 1:], pe.data * np.float32(0.25))

    def test_zero_weight_appends_zeros(self):
        grid = FeatureGrid(np.ones((2, 2, 2), dtype=np.float32))
        out = append_position(grid, vanilla_pe(2, 2), weight=0.0)
        assert np.array_equal(out.data[:, :, 2:], np.zeros((2, 2, 2)))

    def test_shape_mismatch(self):
        grid = FeatureGrid(np.ones((2, 3, 1), dtype=np.float32))
        with pytest.raises(ValidationError):
            append_position(grid, vanilla_pe(3, 2))


class TestChannelContainer:
    def test_out_of_range_rejected(self):
        bad = np.zeros((2, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValidationError):
            PositionChannels(bad)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            PositionChannels(np.zeros((2, 2, 3), dtype=np.float32))

    def test_immutable(self):
        pe = vanilla_pe(2, 2)
        with pytest.raises(ValueError):
            pe.data[0, 0, 0] = 0.5
