import numpy as np
import pytest

import latentqubo as lq


class TestImageStack:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.random((5, 6, 6))
        path = tmp_path / "imgs.txt"
        lq.save_images(imgs, path)
        loaded = lq.load_images(path)
        assert loaded.shape == (5, 6, 6)
        assert np.allclose(loaded, imgs, atol=0)

    def test_single_image_promoted(self, tmp_path):
        img = np.ones((4, 4)) * 0.5
        path = tmp_path / "img.txt"
        lq.save_images(img, path)
        assert lq.load_images(path).shape == (1, 4, 4)

    def test_header(self, tmp_path):
        path = tmp_path / "imgs.txt"
        lq.save_images(np.zeros((2, 3, 3)), path)
        assert path.read_text().splitlines()[0] == "IMG v1 m=3 count=2"

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lq.save_images(np.full((1, 3, 3), 1.5), tmp_path / "x.txt")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lq.save_images(np.full((1, 2, 2), np.nan), path)
        assert not path.exists()

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            lq.save_images(np.zeros((1, 3, 4)), tmp_path / "x.txt")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("IMAGE v1 m=3 count=1\n" + " ".join(["0"] * 9) + "\n")
        with pytest.raises(ValueError, match="header"):
            lq.load_images(path)


class TestPgm:
    def test_round_trip_binary_pattern(self, tmp_path):
        rng = np.random.default_rng(1)
        pattern = rng.integers(0, 2, (8, 8)).astype(np.float64)
        path = tmp_path / "img.pgm"
        lq.save_pgm(pattern, path)
        loaded = lq.load_pgm(path)
        assert np.array_equal(loaded, pattern)

    def test_grayscale_quantization(self, tmp_path):
        img = np.array([[0.0, 0.5], [0.25, 1.0]])
        path = tmp_path / "img.pgm"
        lq.save_pgm(img, path)
        loaded = lq.load_pgm(path)
        # values pass through a 255-level quantizer
        assert np.allclose(loaded, img, atol=1.0 / 255.0)
        assert loaded[0, 0] == 0.0 and loaded[1, 1] == 1.0

    def test_magic_and_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        lq.save_pgm(np.zeros((2, 2)), path)
        lines = path.read_text().split()
        assert lines[0] == "P2"
        assert "255" in lines

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 255\n255 0\n")
        loaded = lq.load_pgm(path)
        assert loaded.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P5\n2 2\n255\n")
        with pytest.raises(ValueError, match="P2"):
            lq.load_pgm(path)
