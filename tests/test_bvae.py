import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentqubo as lq
import latentqubo._native as native
import latentqubo.bvae as bvae


def tiny_arch(m=4, n=4):
    return lq.BvaeArchitecture(
        image_side=m, latent_bits=n, encoder_hidden=(8, 6), decoder_hidden=(6, 8)
    )


def random_model(arch, seed, bias_scale=0.3):
    """Toy model with random weights AND biases.

    Nonzero biases keep every pre-activation away from the ReLU kink, where
    one-sided finite differences and the subgradient legitimately disagree.
    """
    rng = np.random.default_rng(seed)
    params = {
        name: rng.normal(0.0, bias_scale, size=shape)
        for name, shape in arch.layer_shapes().items()
    }
    return lq.BvaeModel(architecture=arch, params=params, tau=1.0)


class TestGumbelSoftmax:
    def test_symmetry(self):
        for tau in (0.1, 1.0, 5.0):
            out = lq.gumbel_softmax(
                np.zeros((1, 2, 2)), tau, np.full((1, 2, 2), 0.7)
            )
            assert np.allclose(out, 0.5)

    def test_worked_example(self):
        logits = np.log(np.array([[[0.5, 0.5]]]))
        noise = np.array([[[1.0, 0.0]]])
        out = lq.gumbel_softmax(logits, 1.0, noise)
        e = math.e
        assert out[0, 0, 0] == pytest.approx(e / (e + 1), abs=1e-9)
        assert out[0, 0, 1] == pytest.approx(1 / (e + 1), abs=1e-9)

    def test_low_temperature_limit(self):
        logits = np.array([[[2.0, -1.0]]])
        noise = np.array([[[0.3, 0.1]]])
        out = lq.gumbel_softmax(logits, 0.01, noise)
        assert out[0, 0, 0] >= 0.999

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_simplex_property(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, (4, 3, 2))
        noise = lq.sample_gumbel_noise(rng, (4, 3, 2))
        tau = float(rng.uniform(0.05, 5))
        out = lq.gumbel_softmax(logits, tau, noise)
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_extreme_logits_stable(self):
        out = lq.gumbel_softmax(np.array([[[1e4, -1e4]]]), 0.5, np.zeros((1, 1, 2)))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            lq.gumbel_softmax(np.zeros((1, 1, 2)), 0.0, np.zeros((1, 1, 2)))

    def test_pair_axis_required(self):
        with pytest.raises(ValueError):
            lq.gumbel_softmax(np.zeros((1, 1, 3)), 1.0, np.zeros((1, 1, 3)))

    def test_noise_distribution_location(self):
        # Gumbel(0,1) has mean equal to the Euler-Mascheroni constant
        rng = np.random.default_rng(99)
        draws = lq.sample_gumbel_noise(rng, (200_000,))
        assert float(draws.mean()) == pytest.approx(0.5772, abs=0.01)


class TestBernoulliKl:
    def test_matches_prior(self):
        assert lq.bernoulli_kl(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_endpoints(self):
        for q in (0.0, 1.0):
            val = lq.bernoulli_kl(np.array([q]))[0]
            assert val == pytest.approx(math.log(2), abs=1e-5)

    def test_frozen_value(self):
        val = lq.bernoulli_kl(np.array([0.75]))[0]
        assert val == pytest.approx(0.13081, abs=1e-4)

    def test_nonnegative_everywhere(self):
        grid = np.linspace(0, 1, 501)
        assert np.all(lq.bernoulli_kl(grid) >= 0)

    def test_symmetric_about_half(self):
        vals = lq.bernoulli_kl(np.array([0.3, 0.7]))
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)


class TestTemperatureSchedule:
    def test_epoch_zero_identity(self):
        s = lq.TemperatureSchedule(tau=5.0)
        assert lq.anneal_tau(s, 0).tau == 5.0

    def test_single_step(self):
        s = lq.TemperatureSchedule(tau=5.0, gamma=0.0003)
        assert lq.anneal_tau(s, 1).tau == pytest.approx(4.9985002249775015, abs=1e-12)

    def test_compounding_reaches_floor(self):
        s = lq.TemperatureSchedule(tau=5.0, gamma=0.0003)
        for epoch in range(200):
            s = lq.anneal_tau(s, epoch)
        assert s.tau == 0.4

    def test_clamp_is_exact(self):
        s = lq.TemperatureSchedule(tau=0.41, gamma=0.5)
        assert lq.anneal_tau(s, 10).tau == 0.4

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="tau_min"):
            lq.TemperatureSchedule(tau=1.0, tau_min=0.0)
        with pytest.raises(ValueError, match="gamma"):
            lq.TemperatureSchedule(gamma=-0.1)
        with pytest.raises(ValueError, match="within"):
            lq.TemperatureSchedule(tau=6.0, tau_max=5.0)


class TestLoss:
    def test_total_is_sum(self):
        arch = tiny_arch()
        model = random_model(arch, 0)
        rng = np.random.default_rng(1)
        batch = rng.random((3, 4, 4))
        noise = lq.sample_gumbel_noise(rng, (3, 4, 2))
        loss = lq.bvae_loss(model, batch, tau=1.0, noise=noise)
        assert loss.total == pytest.approx(loss.reconstruction + loss.kl)
        assert loss.reconstruction > 0

    def test_zero_encoder_gives_zero_kl(self):
        arch = tiny_arch()
        params = {name: np.zeros(shape) for name, shape in arch.layer_shapes().items()}
        model = lq.BvaeModel(architecture=arch, params=params, tau=1.0)
        rng = np.random.default_rng(2)
        batch = rng.random((2, 4, 4))
        noise = lq.sample_gumbel_noise(rng, (2, 4, 2))
        loss = lq.bvae_loss(model, batch, tau=1.0, noise=noise)
        assert loss.kl == pytest.approx(0.0, abs=1e-12)

    def test_pixel_range_enforced(self):
        model = random_model(tiny_arch(), 3)
        bad = np.full((1, 4, 4), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lq.bvae_loss(model, bad, tau=1.0, noise=np.zeros((1, 4, 2)))

    @pytest.mark.parametrize("loss", [lq.bvae_loss, lq.bvae_loss_and_grads])
    def test_a_bad_tau_or_noise_shape_rejected(self, loss):
        model, batch = random_model(tiny_arch(), 3), np.zeros((2, 4, 4))
        with pytest.raises(ValueError, match="tau"):
            loss(model, batch, 0.0, np.zeros((2, 4, 2)))
        for shape in [(1, 4, 2), (2, 4, 1), (2, 8)]:
            with pytest.raises(ValueError, match=r"noise shape .* \(2, 4, 2\)"):
                loss(model, batch, 1.0, np.zeros(shape))

    def test_nan_pixel_rejected(self):
        model = random_model(tiny_arch(), 3)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lq.encode(model, np.full((4, 4), np.nan))

    def test_perfect_reconstruction_small_bce(self):
        # a decoder emitting huge logits for the right pixels drives BCE to ~0
        arch = lq.BvaeArchitecture(
            image_side=2, latent_bits=1, encoder_hidden=(2, 2), decoder_hidden=(2, 2)
        )
        params = {name: np.zeros(shape) for name, shape in arch.layer_shapes().items()}
        params["dec3_b"] = np.full((1, 4), -50.0)
        model = lq.BvaeModel(architecture=arch, params=params, tau=1.0)
        loss = lq.bvae_loss(
            model, np.zeros((1, 2, 2)), tau=1.0, noise=np.zeros((1, 1, 2))
        )
        assert loss.reconstruction == pytest.approx(0.0, abs=1e-6)


class TestGradients:
    def test_finite_differences_full_network(self):
        arch = tiny_arch()
        model = random_model(arch, 7)
        rng = np.random.default_rng(8)
        batch = rng.random((2, 4, 4))
        noise = lq.sample_gumbel_noise(rng, (2, 4, 2))
        tau = 1.3
        _, grads = lq.bvae_loss_and_grads(model, batch, tau, noise)

        def total(params):
            probe = lq.BvaeModel(architecture=arch, params=params, tau=tau)
            return lq.bvae_loss(probe, batch, tau, noise).total

        h = 1e-6
        worst = 0.0
        for name in arch.layer_shapes():
            g = grads[name]
            flat_idx = np.unravel_index(
                np.argsort(np.abs(g), axis=None)[-3:], g.shape
            )
            for pos in zip(*flat_idx):
                pp = {k: v.copy() for k, v in model.params.items()}
                pm = {k: v.copy() for k, v in model.params.items()}
                pp[name][pos] += h
                pm[name][pos] -= h
                fd = (total(pp) - total(pm)) / (2 * h)
                denom = max(abs(fd), abs(g[pos]), 1e-8)
                worst = max(worst, abs(fd - g[pos]) / denom)
        assert worst <= 1e-3

    def test_gradient_shapes_match_layers(self):
        arch = tiny_arch()
        model = random_model(arch, 9)
        rng = np.random.default_rng(10)
        _, grads = lq.bvae_loss_and_grads(
            model, rng.random((2, 4, 4)), 1.0, lq.sample_gumbel_noise(rng, (2, 4, 2))
        )
        shapes = arch.layer_shapes()
        assert set(grads) == set(shapes)
        for name, shape in shapes.items():
            assert grads[name].shape == shape

    def test_each_call_returns_gradients_of_its_own(self):
        model = random_model(tiny_arch(), 9)
        rng = np.random.default_rng(11)
        first = lq.bvae_loss_and_grads(model, rng.random((2, 4, 4)), 1.0, np.zeros((2, 4, 2)))[1]
        kept = {name: g.copy() for name, g in first.items()}
        lq.bvae_loss_and_grads(model, rng.random((2, 4, 4)), 1.0, np.ones((2, 4, 2)))
        assert all(first[name].tobytes() == g.tobytes() for name, g in kept.items())


class TestTraining:
    def test_loss_decreases(self):
        corpus = lq.generate_toy_corpus("half_planes", m=6, count=64, seed=0)
        arch = lq.BvaeArchitecture(
            image_side=6, latent_bits=8, encoder_hidden=(48, 24), decoder_hidden=(24, 48)
        )
        _, curves = lq.bvae_train(corpus, arch, epochs=150, seed=1)
        assert len(curves.train) == 150
        assert len(curves.validation) == 150
        assert curves.train[-1].total < 0.5 * curves.train[0].total

    def test_deterministic(self):
        corpus = lq.generate_toy_corpus("half_planes", m=4, count=8, seed=2)
        arch = tiny_arch()
        m1, c1 = lq.bvae_train(corpus, arch, epochs=5, seed=4)
        m2, c2 = lq.bvae_train(corpus, arch, epochs=5, seed=4)
        for name in arch.layer_shapes():
            assert np.array_equal(m1.params[name], m2.params[name])
        assert m1.tau == m2.tau
        assert [b.total for b in c1.train] == [b.total for b in c2.train]

    def test_tau_annealed_during_training(self):
        corpus = lq.generate_toy_corpus("half_planes", m=4, count=8, seed=3)
        model, _ = lq.bvae_train(corpus, tiny_arch(), epochs=10, seed=5)
        assert 0.4 <= model.tau < 5.0

    def test_single_image_has_nan_validation(self):
        img = np.zeros((1, 4, 4))
        img[0, :2, :] = 1.0
        _, curves = lq.bvae_train(img, tiny_arch(), epochs=3, seed=6)
        assert all(math.isnan(b.total) for b in curves.validation)
        assert all(math.isfinite(b.total) for b in curves.train)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            lq.bvae_train(np.zeros((0, 4, 4)), tiny_arch(), epochs=1, seed=0)

    @pytest.mark.parametrize("setting, match", [
        (dict(epochs=0), "epochs"), (dict(batch_size=0), "batch_size"),
        (dict(batch_size=-3), "batch_size"), (dict(learning_rate=-1.0), "learning_rate"),
        (dict(learning_rate=0.0), "learning_rate"), (dict(learning_rate=math.inf), "learning_rate"),
        (dict(learning_rate=math.nan), "learning_rate"),
    ])
    def test_bad_setting_rejected_before_the_images_are_read(self, setting, match):
        # images of the wrong side: the settings are checked first
        with pytest.raises(ValueError, match=match):
            lq.bvae_train(np.zeros((2, 3, 3)), tiny_arch(), **{"epochs": 1, "seed": 0, **setting})

    def test_fixture_reconstruction_quality(self, toy_bvae, half_plane_corpus):
        assert lq.reconstruction_accuracy(toy_bvae, half_plane_corpus) >= 0.9

    def test_reconstruction_is_the_mean_of_each_image_alone(self, toy_bvae, half_plane_corpus):
        total = 0.0
        for img in half_plane_corpus:
            _, pattern = lq.decode(toy_bvae, lq.encode(toy_bvae, img))
            total += float(np.mean(pattern == (img >= 0.5)))
        expected = total / len(half_plane_corpus)
        assert lq.reconstruction_accuracy(toy_bvae, half_plane_corpus) == expected

    def test_reconstruction_of_no_images_rejected(self, toy_bvae):
        with pytest.raises(ValueError, match="empty image set"):
            lq.reconstruction_accuracy(toy_bvae, np.zeros((0, 8, 8)))


def two_branch_sigmoid(a: np.ndarray) -> np.ndarray:
    """The reference for _sigmoid's bits: the logistic function through exp(-a) where a >= 0
    and exp(a) elsewhere, each side taken by boolean-mask indexing."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


# zeros, subnormals, where 1 + exp(-a) rounds to 1, where exp over- and underflows,
# infinities and NaNs, each with both signs
SIGMOID_EDGES = [0.0, 5e-324, 1e-300, 36.8, 709.8, 745.2, math.inf, math.nan]


@pytest.mark.parametrize("shape", [(-1,), (-1, 16)], ids=["1-D", "2-D"])
def test_sigmoid_gives_the_two_branch_forms_bits(shape):
    normals = np.random.default_rng(0).normal(0.0, 30.0, 10_000)
    a = np.concatenate([SIGMOID_EDGES, np.negative(SIGMOID_EDGES), normals]).reshape(shape)
    assert np.signbit(a.ravel()[:16]).sum() == 8  # -nan too
    assert bvae._sigmoid(a).tobytes() == two_branch_sigmoid(a).tobytes()


class TestEncodeDecode:
    def test_encode_shape_and_dtype(self, toy_bvae, half_plane_corpus):
        bits = lq.encode(toy_bvae, half_plane_corpus[0])
        assert bits.shape == (16,)
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)) <= {0, 1}

    def test_encode_deterministic(self, toy_bvae, half_plane_corpus):
        a = lq.encode(toy_bvae, half_plane_corpus[3])
        b = lq.encode(toy_bvae, half_plane_corpus[3])
        assert np.array_equal(a, b)

    def test_encode_rejects_wrong_size(self, toy_bvae):
        with pytest.raises(ValueError):
            lq.encode(toy_bvae, np.zeros((4, 4)))

    def test_decode_shapes(self, toy_bvae):
        continuous, pattern = lq.decode(toy_bvae, np.zeros(16, dtype=np.uint8))
        assert continuous.shape == (8, 8)
        assert pattern.shape == (8, 8)
        assert continuous.min() >= 0 and continuous.max() <= 1
        assert np.array_equal(pattern, (continuous >= 0.5).astype(np.uint8))

    def test_decode_rejects_wrong_length(self, toy_bvae):
        with pytest.raises(ValueError, match="n=16"):
            lq.decode(toy_bvae, np.zeros(12, dtype=np.uint8))

    def test_decode_blur_preserves_constant_field(self):
        arch = tiny_arch()
        params = {name: np.zeros(shape) for name, shape in arch.layer_shapes().items()}
        params["dec3_b"] = np.full((1, 16), 3.0)
        model = lq.BvaeModel(architecture=arch, params=params, tau=1.0)
        sharp, _ = lq.decode(model, np.zeros(4, dtype=np.uint8))
        blurred, pattern = lq.decode(model, np.zeros(4, dtype=np.uint8), blur_radius_px=1.5)
        assert np.allclose(blurred, sharp, atol=1e-9)
        assert pattern.all()

    def test_decode_blur_smooths(self, toy_bvae):
        bits = np.zeros(16, dtype=np.uint8)
        bits[::2] = 1
        sharp, _ = lq.decode(toy_bvae, bits)
        blurred, _ = lq.decode(toy_bvae, bits, blur_radius_px=2.0)
        assert float(blurred.std()) <= float(sharp.std()) + 1e-12

    def test_negative_blur_rejected(self, toy_bvae):
        with pytest.raises(ValueError, match="blur"):
            lq.decode(toy_bvae, np.zeros(16, dtype=np.uint8), blur_radius_px=-1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_infinite_or_nan_blur_rejected(self, toy_bvae, radius):
        with pytest.raises(ValueError, match="blur"):
            lq.decode(toy_bvae, np.zeros(16, dtype=np.uint8), blur_radius_px=radius)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = random_model(tiny_arch(), 20)
        path = tmp_path / "model.txt"
        lq.save_bvae(model, path)
        loaded = lq.load_bvae(path)
        assert loaded.architecture == model.architecture
        assert loaded.tau == model.tau
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_header(self, tmp_path):
        path = tmp_path / "model.txt"
        lq.save_bvae(random_model(tiny_arch(), 21), path)
        first = path.read_text().splitlines()[0]
        assert first == "BVAE v1 m=4 n=4"

    def test_missing_tau_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        lq.save_bvae(random_model(tiny_arch(), 22), path)
        kept = [ln for ln in path.read_text().splitlines() if not ln.startswith("TAU")]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="TAU"):
            lq.load_bvae(path)

    def test_round_trip_preserves_behavior(self, tmp_path, toy_bvae):
        path = tmp_path / "model.txt"
        lq.save_bvae(toy_bvae, path)
        loaded = lq.load_bvae(path)
        bits = np.ones(16, dtype=np.uint8)
        a, _ = lq.decode(toy_bvae, bits)
        b, _ = lq.decode(loaded, bits)
        assert np.array_equal(a, b)


    def test_a_caller_writing_to_its_arrays_leaves_the_model_unchanged(self):
        arch = tiny_arch()
        rng = np.random.default_rng(23)
        params = {name: rng.normal(size=shape) for name, shape in arch.layer_shapes().items()}
        kept = {name: values.tobytes() for name, values in params.items()}
        models = [lq.BvaeModel(arch, params, tau=1.0),
                  lq.BvaeModel(arch, {name: params[name] for name in bvae._DECODER}, tau=1.0)]
        for values in params.values():
            values += 1.0
        for model in models:
            for name, values in model.params.items():
                assert values.tobytes() == kept[name] and not values.flags.writeable

    @pytest.mark.parametrize("call", [
        lambda model, images, tmp_path: lq.encode(model, images[0]),
        lambda model, images, tmp_path: lq.bvae_loss(model, images, 1.0, np.zeros((1, 4, 2))),
        lambda model, images, tmp_path: lq.bvae_loss_and_grads(model, images, 1.0,
                                                               np.zeros((1, 4, 2))),
        lambda model, images, tmp_path: lq.reconstruction_accuracy(model, images),
        lambda model, images, tmp_path: lq.save_bvae(model, tmp_path / "again.txt"),
    ], ids=["encode", "bvae_loss", "bvae_loss_and_grads", "reconstruction_accuracy", "save_bvae"])
    def test_a_model_read_without_its_encoder_only_decodes(self, tmp_path, call):
        model = random_model(tiny_arch(), 24)
        path = tmp_path / "model.txt"
        lq.save_bvae(model, path)
        decoder = lq.load_bvae(path, decoder_only=True)
        images = np.zeros((1, 4, 4))
        with pytest.raises(ValueError, match="loaded without its encoder"):
            call(decoder, images, tmp_path)
        assert not (tmp_path / "again.txt").exists()
        bits = np.eye(4, dtype=np.uint8)
        assert lq.decode(decoder, bits)[0].tobytes() == lq.decode(model, bits)[0].tobytes()


def decoder_params(n: int, hidden: tuple[int, int], pixels: int, seed: int) -> dict:
    """Random decoder layers with some weights and biases at -0.0 and +0.0."""
    rng = np.random.default_rng(seed)
    sizes = (n, *hidden, pixels)
    params = {}
    for layer, (fan_in, units) in enumerate(zip(sizes, sizes[1:]), start=1):
        w = rng.normal(0.0, 1.0, (fan_in, units))
        w[rng.random(w.shape) < 0.1] = -0.0
        w[rng.random(w.shape) < 0.05] = 0.0
        b = rng.normal(0.0, 0.5, (1, units))
        b[0, ::3] = -0.0
        params[f"dec{layer}_w"], params[f"dec{layer}_b"] = w, b
    return params


def latent_rows(n: int, rows: int, seed: int) -> np.ndarray:
    """Random latent rows, the first all zero and the last all one."""
    X = np.random.default_rng(seed).integers(0, 2, (rows, n)).astype(np.uint8)
    X[:1], X[1:][-1:] = 0, 1
    return X


class TestBatchDecode:
    """decode over a batch: each row's bits are the ones it gets alone."""

    @pytest.fixture(params=["compiled", "numpy"])
    def path(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(native, "library", lambda: None)
        elif shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        return request.param

    @pytest.mark.parametrize("blur", [0.0, 0.8])
    def test_a_row_decodes_alike_alone_and_in_any_batch(self, path, blur):
        arch = lq.BvaeArchitecture(6, 16, encoder_hidden=(8, 6), decoder_hidden=(17, 16))
        model = random_model(arch, seed=3, bias_scale=1.0)
        X = latent_rows(16, 40, seed=4)
        images, patterns = lq.decode(model, X, blur_radius_px=blur)
        assert images.shape == patterns.shape == (40, 6, 6)
        for r in (0, 1, 20, 39):
            image, pattern = lq.decode(model, X[r], blur_radius_px=blur)
            assert image.tobytes() == images[r].tobytes()
            assert pattern.tobytes() == patterns[r].tobytes()
            for size in (2, 17):
                start = min(r, 40 - size)
                some, some_patterns = lq.decode(model, X[start : start + size], blur_radius_px=blur)
                assert some[r - start].tobytes() == images[r].tobytes()
                assert some_patterns[r - start].tobytes() == patterns[r].tobytes()

    def test_both_paths_decode_alike(self, monkeypatch, toy_bvae):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        X = latent_rows(16, 50, seed=5)
        compiled = lq.decode(toy_bvae, X, blur_radius_px=0.7)
        monkeypatch.setattr(native, "library", lambda: None)
        twin = lq.decode(toy_bvae, X, blur_radius_px=0.7)
        assert [a.tobytes() for a in compiled] == [a.tobytes() for a in twin]

    def test_a_batch_of_the_wrong_width_or_no_rows_rejected(self, toy_bvae):
        with pytest.raises(ValueError, match="n=16"):
            lq.decode(toy_bvae, np.zeros((3, 12), dtype=np.uint8))
        with pytest.raises(ValueError, match="nonempty"):
            lq.decode(toy_bvae, np.zeros((0, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 or 1"):
            lq.decode(toy_bvae, np.full((2, 16), 2))

    def test_the_shape_message_says_a_batch_is_allowed(self, toy_bvae):
        with pytest.raises(ValueError, match=r"1-D \(or a 2-D batch\) and nonempty"):
            lq.decode(toy_bvae, np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"1-D \(or a 2-D batch\) and nonempty"):
            lq.decode(toy_bvae, np.zeros((1, 1, 16), dtype=np.uint8))
