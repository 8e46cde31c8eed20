import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentqubo as lq
from latentqubo.images import gaussian_blur


def scipy_filter():
    return pytest.importorskip("scipy.ndimage").gaussian_filter


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestGaussianBlur:
    """The numpy blur against scipy.ndimage.gaussian_filter, bit for bit."""

    def test_random_fields(self):
        gaussian_filter = scipy_filter()
        rng = np.random.default_rng(0)
        # sides from 1 to 32 and sigmas up to 8, so many radii (up to 32) outrun their side
        for _ in range(300):
            field = rng.random(tuple(rng.integers(1, 33, size=2)))
            sigma = float(rng.uniform(0.1, 8))
            assert same_bits(gaussian_blur(field, sigma), gaussian_filter(field, sigma)), sigma
        for shape in [(1, 1), (1, 7), (7, 1), (2, 3)]:
            field = rng.normal(size=shape)
            for sigma in [0.3, (0.0, 5.0), (6.0, 0.0), 8.0]:
                assert same_bits(gaussian_blur(field, sigma), gaussian_filter(field, sigma))

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_blobs_corpus_calls(self, m):
        gaussian_filter = scipy_filter()
        noise = np.random.default_rng(m).normal(size=(64, m, m))
        sigma = (0, m / 4, m / 4)
        assert same_bits(gaussian_blur(noise, sigma), gaussian_filter(noise, sigma=sigma))

    def test_decode_blur_of_wide_latent(self):
        # the 16 x 16 continuous decoder outputs that decode blurs at 0.7 pixels
        gaussian_filter = scipy_filter()
        rng = np.random.default_rng(7)
        for _ in range(50):
            continuous = 1.0 / (1.0 + np.exp(-rng.normal(scale=4.0, size=(16, 16))))
            assert same_bits(gaussian_blur(continuous, 0.7), gaussian_filter(continuous, sigma=0.7))

    def test_tiny_sigmas_leave_the_input(self):
        field = np.random.default_rng(1).random((5, 6))
        blurred = gaussian_blur(field, 1e-15)
        assert same_bits(blurred, field) and blurred is not field


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import latentqubo as lq
from latentqubo.cli import main

assert main(["gen-corpus", "--kind", "blobs", "--side", "16", "--count", "8", "--seed", "1",
             "--out", sys.argv[1]]) == 0
arch = lq.BvaeArchitecture(image_side=16, latent_bits=4, encoder_hidden=(3, 3), decoder_hidden=(3, 3))
rng = np.random.default_rng(0)
model = lq.BvaeModel(arch, {k: rng.normal(size=s) for k, s in arch.layer_shapes().items()}, tau=1.0)
lq.decode(model, np.array([1, 0, 1, 1], dtype=np.uint8), blur_radius_px=0.7)
loaded = sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module)
print(loaded)
"""


def test_blobs_and_blurred_decode_run_without_scipy(tmp_path):
    src = str(Path(lq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path / "corpus.txt")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


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

    def test_only_one_image_is_written(self, tmp_path):
        path = tmp_path / "img.pgm"
        for stack in (np.zeros((2, 3, 3)), np.zeros((0, 3, 3))):
            with pytest.raises(ValueError, match=f"one image, got a stack of {len(stack)}"):
                lq.save_pgm(stack, path)
        assert not path.exists()
        lq.save_pgm(np.full((1, 3, 3), 0.5), path)
        single = path.read_bytes()
        lq.save_pgm(np.full((3, 3), 0.5), path)
        assert path.read_bytes() == single

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P5\n2 2\n255\n")
        with pytest.raises(ValueError, match="P2"):
            lq.load_pgm(path)
