import numpy as np
import pytest

from fedmetaloc.fileio import atomic_write, read_csv, write_csv

FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 100.0, -87.25]


class TestWriteCsv:
    def test_numpy_scalars_format_like_python_floats(self, tmp_path):
        write_csv(tmp_path / "numpy.csv", ["v"], [[np.float64(v)] for v in FLOATS])
        write_csv(tmp_path / "python.csv", ["v"], [[v] for v in FLOATS])
        expected = "v\r\n" + "".join(f"{v!r}\r\n" for v in FLOATS)
        assert (tmp_path / "numpy.csv").read_bytes() == expected.encode()
        assert (tmp_path / "python.csv").read_bytes() == expected.encode()

    def test_index_column_is_written_as_integers(self, tmp_path):
        write_csv(tmp_path / "log.csv", ["round", "loss"], [[0.5], [np.float64(0.25)]], index=[1, np.int64(2)])
        assert (tmp_path / "log.csv").read_bytes() == b"round,loss\r\n1,0.5\r\n2,0.25\r\n"

    def test_round_trip_with_and_without_rows(self, tmp_path):
        values = np.array([[1.5, -0.0], [1e-05, 5e-324]])
        write_csv(tmp_path / "rows.csv", ["a", "b"], values)
        write_csv(tmp_path / "none.csv", ["a", "b"], [])
        header, back = read_csv(tmp_path / "rows.csv")
        assert header == ["a", "b"]
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
        header, back = read_csv(tmp_path / "none.csv")
        assert header == ["a", "b"] and back.shape == (0, 2)


class TestAtomicWrite:
    def test_failed_write_keeps_the_previous_file_and_leaves_no_stray_file(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["round", "loss"], [[0.5], [0.25]], index=[1, 2])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("round,loss\r\n1,0.75\r\n")
                raise RuntimeError("interrupted")
        with pytest.raises(ValueError):  # the index runs out after the first line is written
            write_csv(path, ["round", "loss"], [[0.75], [0.5]], index=[1])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "out" / "model.npz", binary=True) as fh:
                fh.write(b"PK")
                raise RuntimeError("interrupted")
        assert list((tmp_path / "out").iterdir()) == []
