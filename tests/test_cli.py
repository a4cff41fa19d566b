"""End-to-end command-line behavior, exit codes, and output determinism."""

import contextlib
import errno
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rankwarp
from rankwarp import cli, correspondence
from rankwarp.cli import _write_correspondence_csv, main
from rankwarp.correspondence import BlockPartition, SparseCorrespondence
from rankwarp.posenc import vanilla_pe
from rankwarp.tensors import FeatureGrid, LabelMask, read_tensor, write_tensor


def _write_grid(path, data):
    write_tensor(FeatureGrid(np.asarray(data, dtype=np.float32)), str(path))
    return str(path)


def _write_mask(path, labels):
    write_tensor(LabelMask(np.asarray(labels, dtype=np.uint32)), str(path))
    return str(path)


def _random_grid(rng, h, w, d):
    return rng.standard_normal((h, w, d)).astype(np.float32)


class TestWarpCommand:
    def test_self_warp_recovers_exemplar(self, tmp_path):
        rng = np.random.default_rng(150)
        grid = _random_grid(rng, 8, 8, 8)
        cond = _write_grid(tmp_path / "cond.ftn", grid)
        out = tmp_path / "out"
        code = main([
            "warp", cond, cond, "--out-dir", str(out), "--k", "1", "--tau", "0.002",
        ])
        assert code == 0
        warped = read_tensor(str(out / "warped.ftn"))
        assert np.abs(warped.data - grid).max() < 1e-5

    def test_block_shift_recovered(self, tmp_path):
        rng = np.random.default_rng(151)
        grid = _random_grid(rng, 8, 8, 6)
        shifted = np.roll(grid, (2, 2), axis=(0, 1))
        cond = _write_grid(tmp_path / "cond.ftn", grid)
        exem = _write_grid(tmp_path / "exem.ftn", shifted)
        out = tmp_path / "out"
        code = main([
            "warp", cond, exem, "--out-dir", str(out), "--k", "1", "--tau", "0.01",
        ])
        assert code == 0
        warped = read_tensor(str(out / "warped.ftn"))
        assert np.abs(warped.data.astype(np.float64) - grid).mean() < 1e-3

    def test_outputs_complete_and_consistent(self, tmp_path):
        rng = np.random.default_rng(152)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 8, 8, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 8, 8, 4))
        out = tmp_path / "out"
        assert main(["warp", cond, exem, "--out-dir", str(out)]) == 0
        cmap = read_tensor(str(out / "cmap.ftn"))
        assert cmap.data.shape == (4, 4, 1)
        assert cmap.data.min() >= 0.0 and cmap.data.max() <= 1.0
        lines = (out / "correspondence.csv").read_text().strip().split("\n")
        assert lines[0] == "query_index,exemplar_index,weight"
        assert len(lines) == 1 + 64 * 3 * 4  # L rows x k*b entries each

    def test_mask_changes_output(self, tmp_path):
        # position channels should steer congruent regions toward each other
        rng = np.random.default_rng(153)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 8, 8, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 8, 8, 4))
        labels = np.zeros((8, 8), dtype=np.uint32)
        labels[:4] = 1
        mask = _write_mask(tmp_path / "mask.ftn", labels)
        plain_dir, masked_dir = tmp_path / "plain", tmp_path / "masked"
        assert main(["warp", cond, exem, "--out-dir", str(plain_dir)]) == 0
        assert main(["warp", cond, exem, "--mask", mask, "--out-dir", str(masked_dir)]) == 0
        plain = read_tensor(str(plain_dir / "warped.ftn"))
        masked = read_tensor(str(masked_dir / "warped.ftn"))
        assert plain.data.shape == masked.data.shape
        assert not np.array_equal(plain.data, masked.data)

    def test_exemplar_mask_of_the_same_labels_keeps_bytes(self, tmp_path):
        rng = np.random.default_rng(159)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 8, 8, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 8, 8, 4))
        labels = np.zeros((8, 8), dtype=np.uint32)
        labels[:, 6:] = 3
        mask = _write_mask(tmp_path / "mask.ftn", labels)
        one, both = tmp_path / "one", tmp_path / "both"
        assert main(["warp", cond, exem, "--mask", mask, "--out-dir", str(one)]) == 0
        argv = ["warp", cond, exem, "--mask", mask, "--exemplar-mask", mask, "--out-dir", str(both)]
        assert main(argv) == 0
        for f in ("warped.ftn", "cmap.ftn", "correspondence.csv"):
            assert (one / f).read_bytes() == (both / f).read_bytes()

    def test_exemplar_mask_validation(self, tmp_path, capsys):
        rng = np.random.default_rng(160)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 8, 8, 2))
        mask = _write_mask(tmp_path / "mask.ftn", np.zeros((8, 8)))
        small = _write_mask(tmp_path / "small.ftn", np.zeros((8, 4)))
        out = tmp_path / "out"
        base = ["warp", cond, cond, "--out-dir", str(out)]
        assert main(base + ["--exemplar-mask", mask]) == 2
        assert "--exemplar-mask requires --mask" in capsys.readouterr().err
        assert main(base + ["--mask", mask, "--exemplar-mask", small]) == 4
        assert main(base + ["--mask", mask, "--exemplar-mask", cond]) == 4
        assert not out.exists()

    def test_exemplar_mask_retrieves_swapped_regions(self, tmp_path):
        # regions 8 and 24 columns wide swap places; with each grid's own
        # region coordinates every query block finds its true source block
        # at peak cosine >= 0.99, with the conditional's on both it does not
        rng = np.random.default_rng(161)
        grid = _random_grid(rng, 32, 32, 8)
        labels = np.zeros((32, 32), dtype=np.uint32)
        labels[:, 8:] = 1
        cond = _write_grid(tmp_path / "cond.ftn", grid)
        exem = _write_grid(tmp_path / "exem.ftn", np.roll(grid, -8, axis=1))
        mask = _write_mask(tmp_path / "mask.ftn", labels)
        exem_mask = _write_mask(tmp_path / "exem_mask.ftn", np.roll(labels, -8, axis=1))
        ys, xs = np.mgrid[:32, :32]
        true_site = (ys * 32 + (xs - 8) % 32).reshape(-1)

        def retrieved(out):
            peak = read_tensor(str(out / "cmap.ftn")).data
            table = np.loadtxt(out / "correspondence.csv", delimiter=",", skiprows=1)
            e, w = table[:, 1].reshape(1024, -1), table[:, 2].reshape(1024, -1)
            best = e[np.arange(1024), w.argmax(axis=1)]
            return peak.min() >= 0.99 and np.array_equal(best, true_site)

        argv = ["warp", cond, exem, "--mask", mask, "--block-side", "8"]
        assert main(argv + ["--exemplar-mask", exem_mask, "--out-dir", str(tmp_path / "own")]) == 0
        assert retrieved(tmp_path / "own")
        assert main(argv + ["--out-dir", str(tmp_path / "shared")]) == 0
        assert not retrieved(tmp_path / "shared")

    def test_missing_input_no_partial_outputs(self, tmp_path):
        rng = np.random.default_rng(154)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        out = tmp_path / "out"
        code = main(["warp", cond, str(tmp_path / "absent.ftn"), "--out-dir", str(out)])
        assert code == 3
        assert not out.exists()

    def test_malformed_tensor_rejected(self, tmp_path):
        rng = np.random.default_rng(155)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        bad = tmp_path / "bad.ftn"
        bad.write_bytes(b"not a tensor at all")
        assert main(["warp", cond, str(bad), "--out-dir", str(tmp_path / "out")]) == 4

    def test_shape_mismatch_exit_code(self, tmp_path):
        rng = np.random.default_rng(156)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 8, 8, 2))
        assert main(["warp", cond, exem, "--out-dir", str(tmp_path / "out")]) == 4

    def test_lambda_whose_quadruple_overflows_exits_4(self, tmp_path, capsys):
        # 1e308 passes the parser, but 4 * lambda scales the logits and overflows
        rng = np.random.default_rng(157)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        out = tmp_path / "out"
        assert main(["warp", cond, cond, "--lambda", "1e308", "--out-dir", str(out)]) == 4
        assert "lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(157)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 8, 8, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 8, 8, 4))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["warp", cond, exem, "--out-dir", str(out)]) == 0
            outputs.append({
                f: (out / f).read_bytes()
                for f in ("warped.ftn", "cmap.ftn", "correspondence.csv")
            })
        assert outputs[0] == outputs[1]

    def test_parallel_matches_serial_bytes(self, tmp_path, ranking_cpus):
        rng = np.random.default_rng(158)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 16, 16, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 16, 16, 4))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        ranking_cpus(1)
        assert main(["warp", cond, exem, "--out-dir", str(serial)]) == 0
        ranking_cpus(2)
        assert main(["warp", cond, exem, "--out-dir", str(parallel)]) == 0
        for f in ("warped.ftn", "cmap.ftn", "correspondence.csv"):
            assert (serial / f).read_bytes() == (parallel / f).read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failing_csv_write_exits_3(self, tmp_path, ranking_cpus):
        # the CSV goes to a device whose every write fails, after ranking on two threads
        rng = np.random.default_rng(160)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 16, 16, 4))
        out = tmp_path / "out"
        out.mkdir()
        os.symlink("/dev/full", out / "correspondence.csv")
        ranking_cpus(2)
        threads = threading.active_count()
        assert main(["warp", cond, cond, "--out-dir", str(out)]) == 3
        assert threading.active_count() == threads
        # a device is written through, never renamed
        assert os.readlink(out / "correspondence.csv") == "/dev/full"
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)
        assert sorted(os.listdir(out)) == ["cmap.ftn", "correspondence.csv", "warped.ftn"]

    def test_parallel_flag_is_a_usage_error(self, tmp_path):
        # ranking picks its threads from the grid, so neither command takes a flag for them
        rng = np.random.default_rng(159)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        for argv in (["warp", cond, cond, "--parallel"], ["bench", "--sizes", "8x8x2", "--parallel"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestPublishedOutputs:
    """Every output is rewritten over the previous run's file and appears by rename."""

    WARP_FILES = ["cmap.ftn", "correspondence.csv", "warped.ftn"]

    def _inputs(self, tmp_path):
        rng = np.random.default_rng(161)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 16, 16, 4))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 16, 16, 4))
        mask = _write_mask(tmp_path / "mask.ftn", rng.integers(0, 3, (16, 16)))
        return cond, exem, mask

    def test_rerun_keeps_bytes_and_inodes(self, tmp_path):
        cond, exem, mask = self._inputs(tmp_path)
        out = tmp_path / "out"
        commands = [
            ["warp", cond, exem, "--mask", mask, "--out-dir", str(out)],
            ["fuse", cond, str(out / "warped.ftn"), str(out / "cmap.ftn"), str(out / "fused.ftn")],
            ["spe", mask, str(out / "spe.ftn")],
            ["bench", "--sizes", "8x8x2", "--out", str(out / "bench.csv")],
        ]
        links = tmp_path / "links"
        links.mkdir()
        runs = []
        for run in range(2):
            for argv in commands:
                assert main(argv) == 0
            names = sorted(os.listdir(out))
            runs.append({f: ((out / f).read_bytes(), os.stat(out / f).st_ino) for f in names})
            if run == 0:  # a second link keeps the first inode's number from being reused
                for f in names:
                    os.link(out / f, links / f)
        assert names == ["bench.csv", "cmap.ftn", "correspondence.csv", "fused.ftn", "spe.ftn", "warped.ftn"]
        for f in names:
            assert runs[1][f][1] == runs[0][f][1], f
            assert (links / f).read_bytes() == runs[1][f][0], f
            if f != "bench.csv":  # its timing columns move
                assert runs[1][f][0] == runs[0][f][0], f

    def test_shorter_rewrite_leaves_no_tail(self, tmp_path):
        cond, exem, _ = self._inputs(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "warped.ftn").write_bytes(b"x" * 100_000)
        inode = os.stat(out / "warped.ftn").st_ino
        assert main(["warp", cond, exem, "--out-dir", str(out)]) == 0
        assert os.stat(out / "warped.ftn").st_ino == inode
        assert read_tensor(str(out / "warped.ftn")).data.shape == (16, 16, 4)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_failing_after_first_chunk_leaves_nothing(self, tmp_path, monkeypatch, ranking_cpus, cpus):
        cond, exem, _ = self._inputs(tmp_path)
        ranking_cpus(cpus)  # 3072 entries in chunks of 500
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["warp", cond, exem, "--out-dir", str(out)]
        assert main(argv) == 0
        assert main(["warp", cond, exem, "--out-dir", str(fresh)]) == 0
        publish = cli.publish
        calls = []

        class FailingHandle:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                calls.append(len(data))
                if len(calls) == 3:  # after the header and the first chunk
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        @contextlib.contextmanager
        def failing_publish(path):
            with publish(path) as fh:
                yield FailingHandle(fh)

        monkeypatch.setattr(cli, "publish", failing_publish)
        threads = threading.active_count()
        assert main(argv) == 3
        assert threading.active_count() == threads
        assert len(calls) == 3 and calls[1] > 0
        assert sorted(os.listdir(out)) == ["cmap.ftn", "warped.ftn"]
        monkeypatch.setattr(cli, "publish", publish)
        assert main(argv) == 0
        assert sorted(os.listdir(out)) == self.WARP_FILES
        for f in self.WARP_FILES:
            assert (out / f).read_bytes() == (fresh / f).read_bytes()

    def test_symlink_to_regular_file_written_through(self, tmp_path):
        cond, exem, _ = self._inputs(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.mkdir()
        target = tmp_path / "kept.csv"
        target.write_bytes(b"old run\n" * 100_000)
        os.symlink(target, out / "correspondence.csv")
        assert main(["warp", cond, exem, "--out-dir", str(out)]) == 0
        assert main(["warp", cond, exem, "--out-dir", str(fresh)]) == 0
        assert os.readlink(out / "correspondence.csv") == str(target)
        assert target.read_bytes() == (fresh / "correspondence.csv").read_bytes()
        assert sorted(os.listdir(out)) == self.WARP_FILES


def _legacy_csv(corr):
    """The CSV from Python's own formatter, the bulk writer's oracle.

    Each line is ``"%d,%d,%.9g\\n"`` of the query site, the exemplar site and
    the float32 weight taken as a float, as the per-entry formatter the
    writer replaced printed it; all lines go through one ``%`` call.
    """
    sites, m = corr.weights.shape
    fields = np.empty((sites * m, 3), dtype=object)
    fields[:, 0] = np.repeat(np.arange(sites), m).tolist()
    fields[:, 1] = corr.links[corr.site_blocks()].reshape(-1).tolist()
    fields[:, 2] = corr.weights.reshape(-1).astype(np.float64).tolist()
    text = "%d,%d,%.9g\n" * (sites * m) % tuple(fields.reshape(-1))
    return b"query_index,exemplar_index,weight\n" + text.encode()


def _crafted_weights():
    f32 = np.float32
    edges = [f32(1e-4), f32(1e-14), f32(1.0), f32(1e-5), f32(0.1), f32(1e-13)]
    near = [np.nextafter(v, f32(0)) for v in edges] + [np.nextafter(v, f32(1)) for v in edges]
    tiny = np.finfo(np.float32).tiny
    special = [
        0.0, -0.0, 1.0, 0.5, 0.25, 1e-45, 1e-40, tiny, np.nextafter(tiny, f32(0)),
        9.99999975e-05, 9.9999997e-15, 0.99999994, 1.0000001, 3.4028235e38, -2.5e-7,
        -3.4028235e38, 0.123456789, 1.5e-9, 2e-10, 7e-12,
    ]
    # every float32 in [1e-14, 1) whose float64 product w * 10**(8 - X) rounds
    # onto a halfway point, where rounding that product picks the wrong digit
    halfway = [
        6.205944775e-14, 9.407980715e-14, 1.241188955e-13, 9.171420845e-10,
        2.389027145e-07, 2.928801905e-06, 4.500175055e-05, 9.310196765e-05,
    ]
    return np.array(edges + near + special + halfway, dtype=np.float32)


def _table_bytes(table):
    """The entries of a writer table as bytes objects, NUL padding kept."""
    return [table[i : i + 1].tobytes() for i in range(table.size)]


def _row_correspondence(weights, exemplar_sites, rng, width):
    """A per-site correspondence over one row of sites, with random links."""
    rows = weights.size // width
    weights = weights[: rows * width].reshape(rows, width)
    indices = rng.integers(0, exemplar_sites, weights.shape).astype(np.int32)
    indices[0, 0], indices[-1, -1] = 0, exemplar_sites - 1
    return SparseCorrespondence(BlockPartition(1, rows, 1), exemplar_sites, weights, indices)


class TestCorrespondenceCsv:
    @staticmethod
    def _assert_matches_oracle(tmp_path, weights, exemplar_sites, rng, width):
        corr = _row_correspondence(weights, exemplar_sites, rng, width)
        path = tmp_path / "corr.csv"
        _write_correspondence_csv(str(path), corr)
        assert path.read_bytes() == _legacy_csv(corr)

    def test_digit_group_tables_match_python_formatting(self):
        # the fraction tables: 4-digit groups zero-padded, and with %g's
        # trailing zeros as NUL
        groups = range(10**4)
        zero_padded = [f"{g:04d}".encode() for g in groups]
        stripped = [f"{g:04d}".rstrip("0").encode().ljust(4, b"\0") for g in groups]
        assert _table_bytes(cli._STRIPPED) == stripped
        assert _table_bytes(cli._FRAC_HIGH) == zero_padded + stripped

    def test_heads_and_tails_match_python_formatting(self):
        # every head and tail through the writer's own indexing; float64
        # weights also reach the heads before an empty fraction, which no
        # float32 below 1e-4 rounds to
        fractions = ("", "00001", "5", "12345678", "99999999")
        weights = np.array([
            float(f"{lead}{fraction.ljust(8, '0')}e{x - 8}")
            for x in cli._EXPONENTS for lead in range(1, 10) for fraction in fractions
        ])
        words = np.zeros((weights.size, 3), dtype=np.uint64)
        cli._weight_words(words, weights)
        written = [line.tobytes().replace(b"\0", b"") for line in words]
        assert written == [f",{w:.9g}\n".encode() for w in weights]

    @pytest.mark.parametrize("comma, two_words_from", [(True, 10**7), (False, 10**8)])
    def test_index_words_at_digit_count_boundaries(self, comma, two_words_from):
        # a query field ("%d,", right-aligned) needs a second word from 8
        # digits on, an exemplar field (left-aligned) from 9; the writer's
        # tests reach the query's second word only at 10**7 sites
        values = [0, 9, 10, 9_999_999, 10**7, 99_999_999, 10**8, 2**31 - 1]
        for v in values:
            words = 1 if v < two_words_from else 2
            text = b"%d," % v if comma else b"%d" % v
            pad = b"\0" * (8 * words - len(text))
            field = cli._index_words([v], words, comma)
            assert field.tobytes() == (pad + text if comma else text + pad)
        # one call lays out every field in its own row of words
        rows = cli._index_words(values, 2, comma)
        assert [row.tobytes().strip(b"\0") for row in rows] == [
            b"%d," % v if comma else b"%d" % v for v in values
        ]

    def test_ten_digit_exemplar_indices_use_fixed_tables(self, tmp_path):
        # no table may grow with the index range: the writer's traced peak
        # for 15 entries stays small at 10**9 + 7 exemplar sites
        rng = np.random.default_rng(183)
        exemplar_sites = 10**9 + 7
        weights = (10.0 ** rng.uniform(-12, 0, (5, 3))).astype(np.float32)
        indices = rng.integers(0, exemplar_sites, weights.shape).astype(np.int32)
        indices[0] = [0, 9, 10**4]
        indices[-1] = [10**8, 10**9, exemplar_sites - 1]
        corr = SparseCorrespondence(BlockPartition(1, 5, 1), exemplar_sites, weights, indices)
        path = tmp_path / "corr.csv"
        tracemalloc.start()
        try:
            _write_correspondence_csv(str(path), corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == _legacy_csv(corr)
        assert peak < 64 * 1024

    def test_ragged_last_chunk(self, tmp_path):
        rng = np.random.default_rng(184)
        width = 7
        rows = 2 * (cli._CSV_CHUNK_ENTRIES // width) + 13
        weights = (10.0 ** rng.uniform(-9, 0, rows * width)).astype(np.float32)
        self._assert_matches_oracle(tmp_path, weights, 4099, rng, width=width)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_chunks_serial_and_threaded(self, tmp_path, monkeypatch, cpus):
        # 10009 query sites (five-digit queries) in 31 chunks of 333 rows,
        # the last one ragged; the bytes do not depend on the CPU count
        monkeypatch.setattr(cli, "_CSV_CHUNK_ENTRIES", 1000)
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)
        rng = np.random.default_rng(186)
        weights = (10.0 ** rng.uniform(-16, 0, 10009 * 3)).astype(np.float32)
        self._assert_matches_oracle(tmp_path, weights, 123457, rng, width=3)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_write_failure_raises_and_joins_the_writer(self, monkeypatch, cpus):
        # whatever the CPU count, the error reaches the caller and no thread is left
        monkeypatch.setattr(cli, "_CSV_CHUNK_ENTRIES", 1000)
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)
        rng = np.random.default_rng(188)
        weights = (10.0 ** rng.uniform(-9, 0, 3000 * 3)).astype(np.float32)
        corr = _row_correspondence(weights, 4099, rng, width=3)  # 9 chunks
        threads = threading.active_count()
        with pytest.raises(OSError) as exc:
            _write_correspondence_csv("/dev/full", corr)
        assert exc.value.errno == errno.ENOSPC
        assert threading.active_count() == threads
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_formatting_failure_raises_joins_and_leaves_nothing(self, tmp_path, monkeypatch, cpus):
        # the fifth chunk's weights fail to format, on a pool thread at 2 CPUs
        monkeypatch.setattr(cli, "_CSV_CHUNK_ENTRIES", 1000)
        monkeypatch.setattr(correspondence, "_cpus", lambda: cpus)
        rng = np.random.default_rng(189)
        weights = (10.0 ** rng.uniform(-9, 0, 3000 * 3)).astype(np.float32)
        corr = _row_correspondence(weights, 4099, rng, width=3)  # 9 chunks
        weight_words = cli._weight_words
        calls = []
        lock = threading.Lock()

        def failing_weight_words(words, w):
            with lock:
                calls.append(len(w))
                fifth = len(calls) == 5
            if fifth:
                raise RuntimeError("fifth chunk")
            weight_words(words, w)

        monkeypatch.setattr(cli, "_weight_words", failing_weight_words)
        path = tmp_path / "corr.csv"
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="fifth chunk"):
            _write_correspondence_csv(str(path), corr)
        assert threading.active_count() == threads
        assert not path.exists()
        assert not (tmp_path / ".corr.csv.partial").exists()

    def test_warp_command_csv_matches_oracle(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(185)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 32, 32, 8))
        exem = _write_grid(tmp_path / "exem.ftn", _random_grid(rng, 32, 32, 8))
        labels = np.zeros((32, 32), dtype=np.uint32)
        labels[:16] = 1
        labels[:, 24:] = 2
        mask = _write_mask(tmp_path / "mask.ftn", labels)
        built = []
        attention = cli.block_attention

        def recording_attention(*args):
            built.append(attention(*args))
            return built[-1]

        monkeypatch.setattr(cli, "block_attention", recording_attention)
        out = tmp_path / "out"
        argv = ["warp", cond, exem, "--mask", mask, "--block-side", "8", "--out-dir", str(out)]
        assert main(argv) == 0
        assert len(built) == 1
        assert (out / "correspondence.csv").read_bytes() == _legacy_csv(built[0])

    def test_crafted_weights(self, tmp_path):
        rng = np.random.default_rng(180)
        weights = _crafted_weights()
        self._assert_matches_oracle(tmp_path, weights, 7, rng, width=weights.size)
        self._assert_matches_oracle(tmp_path, weights, 100003, rng, width=1)

    def test_log_uniform_weights_with_five_digit_sites(self, tmp_path):
        # 10**6 weights over 20000 query sites and 123457 exemplar sites: the
        # writer works in several chunks and both index columns reach 5-6 digits
        rng = np.random.default_rng(181)
        weights = (10.0 ** rng.uniform(-16, 0, 10**6)).astype(np.float32)
        self._assert_matches_oracle(tmp_path, weights, 123457, rng, width=50)

    def test_random_float32_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(182)
        bits = rng.integers(0, 0x7F800000, 2 * 10**5, dtype=np.uint32)
        # half the patterns anywhere in the finite range, half below 1
        bits[::2] %= 0x3F800000
        self._assert_matches_oracle(tmp_path, bits.view(np.float32), 10**4, rng, width=12)


class TestTopkCommand:
    def test_separated_scores_print_indicator(self, capsys):
        code = main([
            "topk", "--scores", "0.9,0.1,-0.5", "--k", "1", "--lambda", "100",
            "--max-iters", "20000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        gamma = np.array([float(v) for v in lines[0].removeprefix("gamma: ").split(",")])
        assert np.abs(gamma - [1.0, 0.0, 0.0]).max() < 2e-3
        assert lines[1] == "selected: 0"

    def test_malformed_scores_usage_error(self):
        assert main(["topk", "--scores", "0.5,oops", "--k", "1"]) == 2

    def test_scores_clamped_to_unit_interval(self, capsys):
        # 1.5 behaves exactly like 1.0: scores clamp at construction
        assert main(["topk", "--scores", "0.5,1.5", "--k", "1"]) == 0
        clamped = capsys.readouterr().out
        assert main(["topk", "--scores", "0.5,1.0", "--k", "1"]) == 0
        assert capsys.readouterr().out == clamped

    @pytest.mark.parametrize("command", ["topk", "gradcheck"])
    def test_lambda_whose_quadruple_overflows_exits_4(self, capsys, command):
        # 1e308 passes the parser, but 4 * lambda overflows and gamma would be NaN
        argv = ["topk", "--scores", "0.5,0.1", "--k", "1"] if command == "topk" else ["gradcheck"]
        assert main(argv + ["--lambda", "1e308"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lambda")

    def test_capped_solve_warns_on_stderr(self, capsys):
        # at the defaults (lambda 50, 100 Newton steps) the exact dual gives the
        # indicator and says nothing
        argv = ["topk", "--scores", "0.9,0.1,-0.5,0.7", "--k", "2"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == "gamma: 1.000000,0.000000,0.000000,1.000000\nselected: 0,3\n"
        assert err == ""
        # one Newton step at lambda 1 ends 9.6e-4 off sum(gamma) = k; stdout and
        # the exit code stay as for a converged solve, and one stderr line says so
        soft = argv + ["--lambda", "1"]
        assert main(soft + ["--max-iters", "1"]) == 0
        out, err = capsys.readouterr()
        assert out == "gamma: 0.899374,0.267035,0.031993,0.800638\nselected: 0,3\n"
        assert err.splitlines() == [
            "warning: Newton solve stopped at --max-iters 1 "
            "with |sum(gamma) - k| = 9.6e-04 above --tolerance 1e-06"
        ]
        assert main(soft) == 0  # converges inside 100 steps
        assert capsys.readouterr().err == ""


class TestGradcheckCommand:
    def test_default_configuration_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        worst = float(out.split("max relative error: ")[1].split(" ")[0])
        assert worst < 1e-3

    def test_single_element_trivial_gradient(self, capsys):
        assert main(["gradcheck", "--n", "1", "--k", "1", "--trials", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_k_above_n_usage_error(self):
        assert main(["gradcheck", "--n", "2", "--k", "5", "--trials", "1"]) == 2

    def test_no_stop_flags(self, capsys):
        # the check solves to EXACT_TOLERANCE: at --tolerance 1e-6 a correct gradient read 0.297 FAIL
        for flag, value in (("--tolerance", "1e-6"), ("--max-iters", "3")):
            with pytest.raises(SystemExit) as exc:
                main(["gradcheck", flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["gradcheck", "--help"])
        usage = capsys.readouterr().out
        assert "--lambda" in usage
        assert "--max-iters" not in usage and "--tolerance" not in usage

    def test_zero_lambda_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--lambda", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,value", [
        pytest.param(command, flag, value, id=f"command{i}-{flag}-{value}")
        for i, command in enumerate([
            ["topk", "--scores", "0.5,0.1,-0.2", "--k", "1"],
            ["gradcheck", "--n", "4", "--trials", "1"],
            ["warp", "cond.ftn", "exem.ftn"],
        ])
        for flag, value in (("--lambda", "nan"), ("--lambda", "inf"), ("--tolerance", "nan"))
        if not (command[0] == "gradcheck" and flag == "--tolerance")  # gradcheck has no --tolerance
    ])
    def test_non_finite_solver_argument_rejected_by_parser(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, value])
        assert exc.value.code == 2
        assert f"expected a finite positive number, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spe_weight_rejected_by_parser(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["warp", "cond.ftn", "exem.ftn", "--spe-weight", value])
        assert exc.value.code == 2
        assert f"expected a finite number, got {value}" in capsys.readouterr().err

    def test_zero_and_negative_spe_weight_accepted(self, tmp_path):
        rng = np.random.default_rng(164)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 2))
        mask = _write_mask(tmp_path / "mask.ftn", np.repeat([[0, 0, 1, 1]], 4, axis=0))
        for weight in ("0", "-0.5"):
            out = tmp_path / weight
            argv = ["warp", cond, cond, "--mask", mask, "--spe-weight", weight, "--out-dir", str(out)]
            assert main(argv) == 0


class TestSpeCommand:
    def test_single_label_equals_vanilla(self, tmp_path):
        mask = _write_mask(tmp_path / "mask.ftn", np.zeros((5, 7), dtype=np.uint32))
        out = tmp_path / "pe.ftn"
        assert main(["spe", mask, str(out)]) == 0
        grid = read_tensor(str(out))
        assert grid.data.tobytes() == vanilla_pe(5, 7).data.tobytes()

    def test_feature_grid_input_rejected(self, tmp_path):
        rng = np.random.default_rng(160)
        grid = _write_grid(tmp_path / "grid.ftn", _random_grid(rng, 4, 4, 2))
        assert main(["spe", grid, str(tmp_path / "pe.ftn")]) == 4


class TestFuseCommand:
    def test_boundary_confidences_bit_exact(self, tmp_path):
        rng = np.random.default_rng(161)
        cond_data = _random_grid(rng, 4, 4, 3)
        warp_data = _random_grid(rng, 4, 4, 3)
        cond = _write_grid(tmp_path / "cond.ftn", cond_data)
        warped = _write_grid(tmp_path / "warped.ftn", warp_data)
        for value, expected in ((0.0, cond_data), (1.0, warp_data)):
            cmap = _write_grid(tmp_path / "cmap.ftn", np.full((2, 2, 1), value))
            out = tmp_path / "fused.ftn"
            assert main(["fuse", cond, warped, cmap, str(out)]) == 0
            assert read_tensor(str(out)).data.tobytes() == expected.tobytes()

    def test_multichannel_map_accepted(self, tmp_path):
        rng = np.random.default_rng(162)
        cond = _write_grid(tmp_path / "cond.ftn", np.zeros((4, 4, 2)))
        warped = _write_grid(tmp_path / "warped.ftn", np.ones((4, 4, 2)))
        planes = np.stack([np.zeros((2, 2)), np.ones((2, 2))], axis=2)
        cmap = _write_grid(tmp_path / "cmap.ftn", planes)
        out = tmp_path / "fused.ftn"
        assert main(["fuse", cond, warped, cmap, str(out)]) == 0
        fused = read_tensor(str(out))
        assert np.array_equal(fused.data[:, :, 0], np.zeros((4, 4)))
        assert np.array_equal(fused.data[:, :, 1], np.ones((4, 4)))

    def test_wrong_channel_count_rejected(self, tmp_path):
        rng = np.random.default_rng(163)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 3))
        warped = _write_grid(tmp_path / "warped.ftn", _random_grid(rng, 4, 4, 3))
        cmap = _write_grid(tmp_path / "cmap.ftn", np.full((2, 2, 2), 0.5))
        assert main(["fuse", cond, warped, cmap, str(tmp_path / "out.ftn")]) == 4

    def test_out_of_range_map_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(164)
        cond = _write_grid(tmp_path / "cond.ftn", _random_grid(rng, 4, 4, 3))
        warped = _write_grid(tmp_path / "warped.ftn", _random_grid(rng, 4, 4, 3))
        out = tmp_path / "out.ftn"
        for planes in (1, 3):
            for value in (1.5, -0.1):
                cmap = _write_grid(tmp_path / "cmap.ftn", np.full((2, 2, planes), value))
                assert main(["fuse", cond, warped, cmap, str(out)]) == 4
                assert "confidence values must lie in [0, 1]" in capsys.readouterr().err
                assert not out.exists()


class TestBenchCommand:
    def test_csv_row_count_and_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8x8x2,16x16x2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,L,b,k,entries,ranking_scores,peak_bytes,ms,warp_l1"
        assert len(lines) == 5  # 2 sizes x 2 methods + header
        assert [l.split(",")[0] for l in lines[1:]] == ["dense", "ras", "dense", "ras"]

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["bench", "--sizes", "8x8x2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3

    def test_bad_size_string_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "8x8"])
        assert exc.value.code == 2
        for sizes in ("-4x4x4", "0x4x4", "8x8x2,4x0x2"):
            with pytest.raises(SystemExit) as exc:
                main(["bench", f"--sizes={sizes}"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--max-iters", "1"), ("--tolerance", "0.5")])
    def test_solver_flags_rejected(self, flag, value):
        # bench runs the ranking solver at its defaults, so it accepts no solver knobs
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "8x8x2", flag, value])
        assert exc.value.code == 2

    def test_lambda_whose_quadruple_overflows_exits_4(self, capsys):
        # refused before the 96x96 dense baseline (324 MiB) is built
        assert main(["bench", "--sizes", "96x96x8", "--lambda", "1e308"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lambda")

    def test_rerun_identical_apart_from_timing_columns(self, tmp_path):
        def masked(path):
            rows = []
            for line in path.read_text().strip().split("\n")[1:]:
                f = line.split(",")
                rows.append((f[0], f[1], f[2], f[3], f[4], f[5], f[8]))
            return rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--sizes", "8x8x2,16x16x2", "--out", str(a)]) == 0
        assert main(["bench", "--sizes", "8x8x2,16x16x2", "--out", str(b)]) == 0
        assert masked(a) == masked(b)


def _fresh_interpreter(code, *args):
    """Run ``python -c code args`` in a child that imports the same checkout as this process."""
    package_root = os.path.dirname(os.path.dirname(rankwarp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def _run_declared_script(name, args):
    """Run a ``[project.scripts]`` entry in a fresh interpreter, as its wrapper would.

    The pip-generated wrapper imports the ``module:attr`` target from
    pyproject.toml and calls ``sys.exit(<attr>())``, so the callable's return
    value becomes the exit status.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return _fresh_interpreter(f"import sys; from {module} import {attr}; sys.exit({attr}())", *args)


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        mask = _write_mask(tmp_path / "mask.ftn", np.zeros((3, 3), dtype=np.uint32))
        out = tmp_path / "pe.ftn"
        proc = _run_declared_script("rankwarp", ["spe", mask, str(out)])
        assert proc.returncode == 0, proc.stderr
        assert read_tensor(str(out)).data.shape == (3, 3, 2)

        # a documented failure code must reach the caller as the exit status
        rng = np.random.default_rng(164)
        grid = _write_grid(tmp_path / "grid.ftn", _random_grid(rng, 3, 3, 2))
        proc = _run_declared_script("rankwarp", ["spe", grid, str(tmp_path / "bad.ftn")])
        assert proc.returncode == 4, proc.stderr

    @pytest.mark.skipif(
        shutil.which("rankwarp") is None,
        reason="no rankwarp console script on PATH (package not pip-installed)",
    )
    def test_installed_script_on_path(self, tmp_path):
        mask = _write_mask(tmp_path / "mask.ftn", np.zeros((3, 3), dtype=np.uint32))
        out = tmp_path / "pe.ftn"
        proc = subprocess.run(
            ["rankwarp", "spe", str(mask), str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_tensor(str(out)).data.shape == (3, 3, 2)

    def test_module_importable_fresh_interpreter(self):
        proc = _fresh_interpreter("import rankwarp; print(rankwarp.__version__)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
