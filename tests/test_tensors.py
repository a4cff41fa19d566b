"""Grid types, FTN1 round trips, and normalization."""

import os

import numpy as np
import pytest

from rankwarp.tensors import (
    FeatureGrid,
    LabelMask,
    TensorFormatError,
    ValidationError,
    l2_normalize_features,
    publish,
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
        with pytest.raises(TensorFormatError, match="feature grid contains NaN or Inf"):
            read_tensor(path)

    @pytest.mark.parametrize("code, dims, kind", [(1, (0, 4, 3), "feature grid"), (2, (4, 0), "label mask")],
                             ids=["float32", "uint32"])
    def test_zero_dimension(self, tmp_path, code, dims, kind):
        # the header is consistent, with an empty payload; the grid's own check refuses it
        path = tmp_path / "x.ftn"
        path.write_bytes(b"FTN1" + bytes([code, len(dims)]) + np.array(dims, dtype="<u4").tobytes())
        with pytest.raises(TensorFormatError, match=f"{kind} dims must be positive"):
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

    def test_label_above_uint32_rejected(self):
        # 2**32 would wrap onto label 0 and merge the two regions
        assert LabelMask(np.array([[0, 2**32 - 1]])).labels.tolist() == [[0, 2**32 - 1]]
        for labels in (np.array([[0, 2**32]]), np.array([[1, 2**63]], dtype=np.uint64)):
            with pytest.raises(ValidationError, match="must fit in uint32"):
                LabelMask(labels)


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


class TestImmutability:
    def test_grid_data_is_read_only(self):
        grid = FeatureGrid(np.ones((2, 2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            grid.data[0, 0, 0] = 5.0


class TestPublish:
    def test_missing_file_created_over_a_stale_scratch(self, tmp_path):
        # a killed run leaves only the hidden scratch; the next write reuses it
        (tmp_path / ".out.bin.partial").write_bytes(b"stale and longer")
        with publish(tmp_path / "out.bin") as fh:
            fh.write(b"new")
        assert os.listdir(tmp_path) == ["out.bin"]
        assert (tmp_path / "out.bin").read_bytes() == b"new"

    def test_failure_inside_the_block_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with publish(path) as fh:
                fh.write(b"half")
                raise RuntimeError("killed")
        assert os.listdir(tmp_path) == []

    def test_refused_open_or_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def refuse(*args, **kwargs):
            raise PermissionError("refused")

        for name in ("open", "replace"):
            with monkeypatch.context() as m:
                m.setattr(os, name, refuse)
                with pytest.raises(PermissionError):
                    with publish(path) as fh:
                        fh.write(b"new")
            assert os.listdir(tmp_path) == ["out.bin"]
            assert path.read_bytes() == b"old"

    def test_directory_is_not_renamed(self, tmp_path):
        (tmp_path / "out.bin").mkdir()
        with pytest.raises(IsADirectoryError):
            with publish(tmp_path / "out.bin"):
                pass
        assert os.listdir(tmp_path) == ["out.bin"]
