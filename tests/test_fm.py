from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentqubo as lq
import latentqubo._native as native
from conftest import all_bit_vectors


def naive_predict(m: lq.FmModel, x) -> float:
    """Reference double-loop evaluation of the second-order model."""
    x = np.asarray(x, dtype=np.float64)
    y = m.w0 + float(m.w @ x)
    for i in range(m.n):
        for j in range(i + 1, m.n):
            y += float(m.V[i] @ m.V[j]) * x[i] * x[j]
    return y


def example_model() -> lq.FmModel:
    return lq.FmModel(w0=0.5, w=[1.0, -1.0], V=[[2.0], [3.0]])


def random_model(rng, n, k) -> lq.FmModel:
    return lq.FmModel(
        w0=float(rng.normal()), w=rng.normal(0, 1, n), V=rng.normal(0, 1, (n, k))
    )


class TestPredict:
    def test_worked_examples(self):
        m = example_model()
        assert lq.fm_predict(m, [1, 1]) == pytest.approx(6.5)
        assert lq.fm_predict(m, [0, 0]) == pytest.approx(0.5)
        assert lq.fm_predict(m, [1, 0]) == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n=2.*length 3"):
            lq.fm_predict(example_model(), [1, 0, 1])
        with pytest.raises(ValueError, match="n=2.*length 3"):
            lq.fm_predict(example_model(), [[1, 0, 1], [0, 0, 1]])

    def test_a_batch_is_checked_like_a_vector(self):
        with pytest.raises(ValueError, match="0 or 1"):
            lq.fm_predict(example_model(), [[2, 0.5]])
        with pytest.raises(ValueError, match="1-D"):
            lq.fm_predict(example_model(), [[[1, 1]]])

    def test_a_vector_gives_a_float_and_a_batch_an_array(self):
        m = example_model()
        assert type(lq.fm_predict(m, [1, 1])) is float
        batch = lq.fm_predict(m, [[1, 1]])
        assert isinstance(batch, np.ndarray) and batch.shape == (1,)
        assert batch[0] == pytest.approx(6.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_fast_identity_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        m = random_model(rng, n, k)
        x = rng.integers(0, 2, n)
        fast = lq.fm_predict(m, x)
        assert fast == pytest.approx(naive_predict(m, x), rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 10, 4)
        X = rng.integers(0, 2, (20, 10))
        batch = lq.fm_predict(m, X)
        for r in range(20):
            assert batch[r] == pytest.approx(lq.fm_predict(m, X[r]), abs=1e-9)


class TestGradients:
    def test_zero_input_touches_only_bias(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 6, 3)
        g0, gw, gV = lq.fm_gradients(m, np.zeros(6, dtype=int), residual=1.5)
        assert g0 == pytest.approx(3.0)
        assert np.all(gw == 0)
        assert np.all(gV == 0)

    def test_zero_residual_zero_gradients(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 6, 3)
        g0, gw, gV = lq.fm_gradients(m, rng.integers(0, 2, 6), residual=0.0)
        assert g0 == 0 and np.all(gw == 0) and np.all(gV == 0)

    def test_one_vector_only(self):
        m = example_model()
        with pytest.raises(ValueError, match="vector must be 1-D and nonempty"):
            lq.fm_gradients(m, [[1, 0]], residual=1.0)
        with pytest.raises(ValueError, match="n=2.*length 3"):
            lq.fm_gradients(m, [1, 0, 1], residual=1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 5))
        m = random_model(rng, n, k)
        x = rng.integers(0, 2, n)
        target = float(rng.normal())
        residual = lq.fm_predict(m, x) - target
        g0, gw, gV = lq.fm_gradients(m, x, residual)
        h = 1e-5

        def loss(model):
            return (lq.fm_predict(model, x) - target) ** 2

        fd0 = (
            loss(lq.FmModel(m.w0 + h, m.w, m.V)) - loss(lq.FmModel(m.w0 - h, m.w, m.V))
        ) / (2 * h)
        assert g0 == pytest.approx(fd0, rel=1e-4, abs=1e-7)
        for i in range(n):
            wp, wm = m.w.copy(), m.w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (loss(lq.FmModel(m.w0, wp, m.V)) - loss(lq.FmModel(m.w0, wm, m.V))) / (2 * h)
            assert gw[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        for i in range(n):
            for f in range(k):
                Vp, Vm = m.V.copy(), m.V.copy()
                Vp[i, f] += h
                Vm[i, f] -= h
                fd = (
                    loss(lq.FmModel(m.w0, m.w, Vp)) - loss(lq.FmModel(m.w0, m.w, Vm))
                ) / (2 * h)
                assert gV[i, f] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestLabelTransform:
    def test_worked_example(self):
        transformed, t = lq.apply_label_transform(np.array([0.2, 0.9]), margin=0.1)
        assert t.c == pytest.approx(1.0)
        assert transformed.tolist() == pytest.approx([0.8, 0.1])

    def test_order_reversal(self):
        rng = np.random.default_rng(4)
        Y = rng.random(50)
        transformed, _ = lq.apply_label_transform(Y, margin=0.05)
        assert int(np.argmax(Y)) == int(np.argmin(transformed))

    def test_zero_margin_touches_zero(self):
        transformed, _ = lq.apply_label_transform(np.array([0.3, 0.7, 0.5]), margin=0.0)
        assert transformed.min() == 0.0
        assert np.all(transformed >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            lq.apply_label_transform(np.array([]), margin=0.1)

    def test_invert_round_trip(self):
        transformed, t = lq.apply_label_transform(np.array([0.25, 0.5]), margin=0.2)
        assert t.invert(transformed).tolist() == pytest.approx([0.25, 0.5])


class TestQuboExtraction:
    def test_worked_example(self):
        q = lq.fm_to_qubo(example_model())
        assert q.linear.tolist() == [1.0, -1.0]
        assert q.quadratic == {(0, 1): 6.0}
        assert q.offset == 0.5
        assert lq.brute_force_sample(q, top_k=1).best().vector.tolist() == [0, 1]

    def test_zero_model_flat(self):
        m = lq.FmModel(w0=0.0, w=np.zeros(3), V=np.zeros((3, 2)))
        q = lq.fm_to_qubo(m)
        for x in all_bit_vectors(3):
            assert lq.qubo_energy(q, x) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_identity_exhaustive(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = random_model(rng, 10, 3)
        q = lq.fm_to_qubo(m)
        for x in rng.integers(0, 2, (100, 10)):
            assert lq.qubo_energy(q, x) == pytest.approx(lq.fm_predict(m, x), abs=1e-9)

    def test_argmin_argmax_duality(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 8, 3)
        grid = all_bit_vectors(8)
        preds = lq.fm_predict(m, grid)
        # model trained on c - y means the extracted problem's argmin is the
        # original argmax; emulate by negating the surrogate directly
        neg = lq.FmModel(w0=-m.w0, w=-m.w, V=m.V.copy())
        # -<v_i, v_j> is not expressible by negating V, so check via energies
        q = lq.fm_to_qubo(m)
        energies = np.array([lq.qubo_energy(q, x) for x in grid])
        assert int(np.argmin(energies)) == int(np.argmin(preds))
        assert int(np.argmax(energies)) == int(np.argmax(preds))


def bits(*values) -> list[bytes]:
    """The float64 bytes of each value, so NaN equals NaN and -0.0 differs from 0.0."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def assert_same_model(a: lq.FmModel, b: lq.FmModel) -> None:
    assert bits(a.w0, a.w, a.V) == bits(b.w0, b.w, b.V)


def random_dataset(n, rows, seed) -> lq.LabeledDataset:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (rows, n)).astype(np.uint8)
    return lq.LabeledDataset(X=X, Y=rng.random(rows), provenance=("random",) * rows)


def one_step_case():
    """A one-row, one-epoch fit from a known model, and the model one Adagrad step gives.

    One row and one epoch make exactly one step; its accumulator is then g^2,
    so each parameter moves by -lr * g / (sqrt(g^2) + 1e-8).
    """
    rng = np.random.default_rng(12)
    m = random_model(rng, 6, 3)
    x = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    y = 0.25
    data = lq.LabeledDataset(X=x[None, :], Y=np.array([y]), provenance=("random",))
    cfg = lq.FmTrainConfig(epochs=1, rank=3, split=(1.0, 0.0, 0.0))
    trained, _ = lq.fm_train(data, cfg, warm_start=m)
    g0, gw, gV = lq.fm_gradients(m, x, lq.fm_predict(m, x) - y)

    def step(g):
        return cfg.learning_rate * g / (np.sqrt(g * g) + 1e-8)

    return trained, lq.FmModel(w0=m.w0 - step(g0), w=m.w - step(gw), V=m.V - step(gV))


class TestTraining:
    def test_planted_model_recovery(self):
        rng = np.random.default_rng(42)
        planted = random_model(rng, 12, 3)
        X = rng.integers(0, 2, (500, 12)).astype(np.uint8)
        Y = lq.fm_predict(planted, X)
        data = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 500)
        _, report = lq.fm_train(data, lq.FmTrainConfig(epochs=100, rank=3, seed=1))
        assert report.test_r2 >= 0.95

    def test_constant_labels_learn_the_constant(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 2, (80, 6)).astype(np.uint8)
        data = lq.LabeledDataset(X=X, Y=np.full(80, 0.625), provenance=("random",) * 80)
        model, report = lq.fm_train(data, lq.FmTrainConfig(epochs=60, rank=2, seed=2))
        assert report.test_mse <= 1e-4
        preds = lq.fm_predict(model, all_bit_vectors(6))
        assert np.allclose(preds, 0.625, atol=0.05)

    def test_empty_dataset_rejected(self):
        data = lq.LabeledDataset.empty(4)
        with pytest.raises(ValueError, match="empty"):
            lq.fm_train(data, lq.FmTrainConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 2, (60, 8)).astype(np.uint8)
        Y = rng.random(60)
        data = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 60)
        cfg = lq.FmTrainConfig(epochs=10, rank=3, seed=5)
        m1, r1 = lq.fm_train(data, cfg)
        m2, r2 = lq.fm_train(data, cfg)
        assert m1.w0 == m2.w0
        assert m1.w.tolist() == m2.w.tolist()
        assert m1.V.tolist() == m2.V.tolist()
        assert r1 == r2

    def test_warm_start_shape_mismatch(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 2, (30, 6)).astype(np.uint8)
        data = lq.LabeledDataset(X=X, Y=rng.random(30), provenance=("random",) * 30)
        wrong = random_model(rng, 6, 5)
        with pytest.raises(ValueError, match="warm start"):
            lq.fm_train(data, lq.FmTrainConfig(rank=3), warm_start=wrong)

    def test_warm_start_continues(self):
        rng = np.random.default_rng(10)
        planted = random_model(rng, 8, 2)
        X = rng.integers(0, 2, (200, 8)).astype(np.uint8)
        Y = lq.fm_predict(planted, X)
        data = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 200)
        cfg = lq.FmTrainConfig(epochs=5, rank=2, seed=3)
        stage1, _ = lq.fm_train(data, cfg)
        _, first_epoch = lq.fm_train(data, replace(cfg, epochs=1))
        _, r2 = lq.fm_train(data, cfg, warm_start=stage1)
        assert r2.final_train_mse < first_epoch.final_train_mse

    def test_one_step_applies_the_checked_gradient(self, monkeypatch):
        monkeypatch.setattr(native, "library", lambda: None)
        trained, expected = one_step_case()
        assert trained.w0 == expected.w0
        assert np.array_equal(trained.w, expected.w)
        assert np.array_equal(trained.V, expected.V)

    def test_one_step_kernel_applies_the_checked_gradient(self):
        trained, expected = one_step_case()
        assert_same_model(trained, expected)

    def test_split_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            lq.FmTrainConfig(split=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("rate", [0.0, -0.05, float("inf"), float("nan")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            lq.FmTrainConfig(learning_rate=rate)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_model(rng, 7, 4)
        path = tmp_path / "model.txt"
        lq.save_fm(m, path)
        loaded = lq.load_fm(path)
        assert loaded.w0 == m.w0
        assert loaded.w.tolist() == m.w.tolist()
        assert loaded.V.tolist() == m.V.tolist()

    def test_header(self, tmp_path):
        path = tmp_path / "model.txt"
        lq.save_fm(example_model(), path)
        assert path.read_text().splitlines()[0] == "FM v1 n=2 k=1"

    def test_missing_w0_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("FM v1 n=1 k=1\nw 0 1\nV 0 1\n")
        with pytest.raises(ValueError, match="w0"):
            lq.load_fm(path)
