"""Grid types, FTN1 round trips, and normalization."""

import numpy as np
import pytest

from rankwarp.tensors import (
    FeatureGrid,
    LabelMask,
    TensorFormatError,
    ValidationError,
    l2_normalize_features,
    read_tensor,
    write_tensor,
)


class TestRoundTrip:
    def test_small_grid_identity(self, tmp_path):
        grid = FeatureGrid(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(2, 2, 1))
        path = tmp_path / "g.ftn"
        write_tensor(grid, path)
        back = read_tensor(path)
        assert isinstance(back, FeatureGrid)
        assert np.array_equal(back.data, grid.data)

    def test_mask_identity(self, tmp_path):
        mask = LabelMask(np.arange(9, dtype=np.uint32).reshape(3, 3))
        path = tmp_path / "m.ftn"
        write_tensor(mask, path)
        back = read_tensor(path)
        assert isinstance(back, LabelMask)
        assert np.array_equal(back.labels, mask.labels)

    def test_random_shapes_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(25):
            h, w, d = (int(rng.integers(1, 9)) for _ in range(3))
            data = rng.standard_normal((h, w, d)).astype(np.float32)
            path = tmp_path / f"t{trial}.ftn"
            write_tensor(FeatureGrid(data), path)
            back = read_tensor(path)
            assert back.data.tobytes() == data.tobytes(), f"trial {trial} not bit-exact"

    def test_single_element_layout(self, tmp_path):
        path = tmp_path / "one.ftn"
        write_tensor(FeatureGrid(np.zeros((1, 1, 1), dtype=np.float32)), path)
        raw = path.read_bytes()
        # magic(4) + dtype(1) + ndim(1) + 3 dims(12) + payload(4)
        assert len(raw) == 22
        assert raw[:4] == b"FTN1"
        assert raw[4] == 1 and raw[5] == 3

    def test_write_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = FeatureGrid(rng.standard_normal((3, 5, 2)).astype(np.float32))
        write_tensor(grid, tmp_path / "a.ftn")
        write_tensor(grid, tmp_path / "b.ftn")
        assert (tmp_path / "a.ftn").read_bytes() == (tmp_path / "b.ftn").read_bytes()


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ftn"
        path.write_bytes(b"XXXX" + bytes([1, 3]) + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="bad magic"):
            read_tensor(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "x.ftn"
        path.write_bytes(b"FTN1" + bytes([7, 3]) + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="unknown dtype code 7"):
            read_tensor(path)

    def test_bad_rank(self, tmp_path):
        path = tmp_path / "x.ftn"
        dims = np.array([2, 2], dtype="<u4").tobytes()
        path.write_bytes(b"FTN1" + bytes([1, 2]) + dims + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="float payload must be rank 3, got 2"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "good.ftn"
        write_tensor(FeatureGrid(np.ones((2, 2, 2), dtype=np.float32)), good)
        bad = tmp_path / "bad.ftn"
        bad.write_bytes(good.read_bytes()[:-3])
        with pytest.raises(TensorFormatError, match="payload is 29 bytes, expected 32"):
            read_tensor(bad)

    def test_trailing_garbage(self, tmp_path):
        good = tmp_path / "good.ftn"
        write_tensor(FeatureGrid(np.ones((2, 2, 2), dtype=np.float32)), good)
        bad = tmp_path / "bad.ftn"
        bad.write_bytes(good.read_bytes() + b"\x01")
        with pytest.raises(TensorFormatError, match="payload is 33 bytes, expected 32"):
            read_tensor(bad)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "x.ftn"
        dims = np.array([1, 1, 1], dtype="<u4").tobytes()
        payload = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(b"FTN1" + bytes([1, 3]) + dims + payload)
        with pytest.raises(TensorFormatError, match="payload contains NaN or Inf"):
            read_tensor(path)

    def test_nan_rejected_at_construction(self):
        data = np.ones((2, 2, 1), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="feature grid contains NaN or Inf"):
            FeatureGrid(data)

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            FeatureGrid(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValidationError):
            LabelMask(np.zeros((2, 2, 2), dtype=np.uint32))


class TestNormalize:
    def test_three_four_five(self):
        grid = FeatureGrid(np.array([[[3.0, 4.0]]], dtype=np.float32))
        out = l2_normalize_features(grid)
        assert np.allclose(out.data, [[[0.6, 0.8]]], atol=1e-7)

    def test_zero_vector_stays_zero(self):
        grid = FeatureGrid(np.zeros((1, 1, 4), dtype=np.float32))
        out = l2_normalize_features(grid)
        assert np.array_equal(out.data, grid.data)

    def test_idempotent_and_finite(self):
        rng = np.random.default_rng(7)
        for scale in (1e-6, 1.0, 1e4):
            grid = FeatureGrid((rng.standard_normal((4, 4, 8)) * scale).astype(np.float32))
            once = l2_normalize_features(grid)
            twice = l2_normalize_features(once)
            assert np.isfinite(once.data).all()
            assert np.abs(once.data - twice.data).max() < 1e-6

    def test_unit_vector_unchanged(self):
        grid = FeatureGrid(np.array([[[1.0, 0.0, 0.0]]], dtype=np.float32))
        out = l2_normalize_features(grid)
        assert np.abs(out.data - grid.data).max() < 1e-6

    def test_epsilon_must_be_positive(self):
        grid = FeatureGrid(np.ones((1, 1, 1), dtype=np.float32))
        with pytest.raises(ValidationError):
            l2_normalize_features(grid, epsilon=0.0)
        with pytest.raises(ValidationError):
            l2_normalize_features(grid, epsilon=np.nan)


class TestImmutability:
    def test_grid_data_is_read_only(self):
        grid = FeatureGrid(np.ones((2, 2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            grid.data[0, 0, 0] = 5.0
