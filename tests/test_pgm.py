import numpy as np
import pytest

from pdsplit import read_pgm, write_pgm


class TestRoundTrip:
    def test_p5_roundtrip(self, tmp_path, rng):
        pixels = rng.uniform(0, 255, size=(9, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, np.clip(np.rint(pixels), 0, 255))

    def test_p2_roundtrip(self, tmp_path, rng):
        pixels = rng.uniform(0, 255, size=(5, 11))
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels, ascii_format=True)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, np.clip(np.rint(pixels), 0, 255))

    def test_write_clamps_out_of_range(self, tmp_path):
        pixels = np.array([[-10.0, 300.0], [128.4, 127.5]])
        path = tmp_path / "img.pgm"
        write_pgm(path, pixels)
        back, _ = read_pgm(path)
        assert back[0, 0] == 0.0
        assert back[0, 1] == 255.0
        assert back[1, 0] == 128.0

    def test_comments_in_header(self, tmp_path):
        raw = b"P2\n# a comment\n2 2\n# another\n255\n0 1\n2 3\n"
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        back, maxval = read_pgm(path)
        np.testing.assert_array_equal(back, [[0, 1], [2, 3]])

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("raw", [
        b"P2\n4 4\n255\n" + b"300 " * 16,
        b"P2\n2 2\n255\n-1 0 0 0\n",
        b"P2\n2 2\n255\n" + b"9" * 400 + b" 0 0 0\n",
        b"P5\n2 2\n100\n" + bytes([101, 0, 0, 0]),
    ], ids=["p2-above", "p2-negative", "p2-huge", "p5-above"])
    def test_rejects_samples_outside_maxval(self, tmp_path, raw):
        path = tmp_path / "r.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=r"samples must lie in \[0, "):
            read_pgm(path)

    def test_p5_trailing_bytes_are_allowed(self, tmp_path):
        # a P5 file may hold several images; only the first is read
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([1, 2]) + b"P5\n1 1\n255\n"
                         + bytes([3]))
        back, _ = read_pgm(path)
        np.testing.assert_array_equal(back, [[1.0, 2.0]])

    def test_samples_at_maxval_are_read(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
        back, maxval = read_pgm(path)
        assert maxval == 100
        np.testing.assert_array_equal(back, [[0.0, 100.0]])


# every input check of pgm, by the exception and a fragment of its
# message; each call gets a path in a fresh directory
def read_bytes(raw):
    def call(path):
        path.write_bytes(raw)
        return read_pgm(path)
    return call


@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(read_bytes(b"P5\n2 2\n"), ValueError,
                 "truncated PGM header", id="read-truncated-header"),
    pytest.param(read_bytes(b"P2\n2 2\n255\n0 1 2\n"), ValueError,
                 "truncated P2 raster", id="read-truncated-p2"),
    # a nonpositive width or height, in either format
    pytest.param(read_bytes(b"P2\n-1 8\n255\n" + b"0\n" * 24), ValueError,
                 "header says -1 8", id="read-p2-width-negative"),
    pytest.param(read_bytes(b"P5\n-1 4\n255\n" + bytes(16)), ValueError,
                 "header says -1 4", id="read-p5-width-negative"),
    pytest.param(read_bytes(b"P5\n0 0\n255\n"), ValueError,
                 "header says 0 0", id="read-p5-empty"),
    pytest.param(read_bytes(b"P2\n3 0\n255\n"), ValueError,
                 "header says 3 0", id="read-p2-height-0"),
    # a plain PGM holds exactly one image
    pytest.param(read_bytes(b"P2\n2 2\n255\n0 1 2 3 4 5\n"), ValueError,
                 "P2 raster holds 6 samples, more than 2 x 2",
                 id="read-p2-extra-samples"),
    pytest.param(lambda path: write_pgm(path, np.zeros(3)), ValueError,
                 "expected a 2-D pixel array", id="write-1d"),
    # read_pgm rejects the header such a grid would give
    pytest.param(lambda path: write_pgm(path, np.zeros((0, 3))), ValueError,
                 "got shape (0, 3)", id="write-empty"),
])
def test_input_checks(tmp_path, call, exc, fragment):
    with pytest.raises(exc) as info:
        call(tmp_path / "img.pgm")
    assert fragment in str(info.value)
