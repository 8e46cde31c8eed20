"""Release gate: ten numbered criteria covering the whole optimization stack.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and, where
a runtime budget applies, asserts the measured wall time against it.  The
criteria intentionally lean on exhaustive enumeration and planted ground
truths rather than external reference implementations.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import latentqubo as lq
from conftest import all_bit_vectors, random_qubo
from helpers import reference_corpus, reference_target, train_reference_bvae


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.1f}s"
        )
    print(f"[criterion {num:2d}] {name}: PASS ({elapsed:.2f}s)")


def batch_qubo_energies(q, X):
    Xf = X.astype(np.float64)
    pair = 0.5 * np.einsum("bi,ij,bj->b", Xf, q.dense_symmetric, Xf)
    return q.offset + Xf @ q.linear + pair


def batch_ising_energies(m, S):
    n = m.h.size
    dense = np.zeros((n, n))
    for (i, j), c in m.j.items():
        dense[i, j] = c
        dense[j, i] = c
    Sf = S.astype(np.float64)
    pair = 0.5 * np.einsum("bi,ij,bj->b", Sf, dense, Sf)
    return m.offset + Sf @ m.h + pair


def random_fm(rng, n, k):
    return lq.FmModel(
        w0=float(rng.normal()),
        w=rng.normal(0, 0.7, n),
        V=rng.normal(0, 0.7, (n, k)),
    )


@lru_cache(maxsize=1)
def full_bvae():
    """Full-width autoencoder trained on the reference corpus, shared by 7/8."""
    arch = lq.BvaeArchitecture(image_side=8, latent_bits=16)
    model, _ = lq.bvae_train(reference_corpus(), arch, epochs=200, seed=3)
    return model


class TestAcceptance:
    def test_criterion_01_qubo_ising_equivalence(self):
        with criterion(1, "qubo-ising equivalence", budget_s=10):
            rng = np.random.default_rng(101)
            for n in range(2, 13):
                X = all_bit_vectors(n)
                S = (2 * X.astype(np.int8) - 1).astype(np.float64)
                for _ in range(100):
                    q = random_qubo(rng, n)
                    ising = lq.qubo_to_ising(q)
                    eq = batch_qubo_energies(q, X)
                    ei = batch_ising_energies(ising, S)
                    assert np.max(np.abs(eq - ei)) <= 1e-9
                    back = lq.ising_to_qubo(ising)
                    eb = batch_qubo_energies(back, X)
                    assert np.max(np.abs(eq - eb)) <= 1e-9

    def test_criterion_02_fm_qubo_fidelity(self):
        with criterion(2, "fm-qubo fidelity and negation duality", budget_s=30):
            rng = np.random.default_rng(202)
            for _ in range(50):
                n = int(rng.integers(2, 13))
                k = int(rng.integers(1, 5))
                model = random_fm(rng, n, k)
                q = lq.fm_to_qubo(model)
                X = all_bit_vectors(n)
                preds = lq.fm_predict(model, X)
                energies = batch_qubo_energies(q, X)
                assert np.max(np.abs(preds - energies)) <= 1e-9

                # minimizing c - y is the same as maximizing y
                c = float(preds.max()) + 0.05
                negated = lq.QuboProblem(
                    linear=-q.linear,
                    quadratic={key: -val for key, val in q.quadratic.items()},
                    offset=c - q.offset,
                )
                best = lq.brute_force_sample(negated, top_k=1).best().vector
                argmax = X[int(np.argmax(preds))]
                assert np.array_equal(best, argmax)

    def test_criterion_03_fm_gradient_check(self):
        with criterion(3, "fm analytic vs central differences", budget_s=5):
            rng = np.random.default_rng(303)
            h = 1e-5
            for _ in range(100):
                n = int(rng.integers(2, 13))
                k = int(rng.integers(1, 5))
                model = random_fm(rng, n, k)
                x = rng.integers(0, 2, n)
                target = float(rng.normal())
                residual = lq.fm_predict(model, x) - target
                g0, gw, gV = lq.fm_gradients(model, x, residual)

                def loss(m):
                    return (lq.fm_predict(m, x) - target) ** 2

                def rel(a, b):
                    # the floor absorbs central-difference rounding noise when
                    # the true gradient is zero (inactive input bits)
                    return abs(a - b) / max(abs(a), abs(b), 1e-4)

                fd0 = (
                    loss(lq.FmModel(model.w0 + h, model.w, model.V))
                    - loss(lq.FmModel(model.w0 - h, model.w, model.V))
                ) / (2 * h)
                assert rel(g0, fd0) <= 1e-4
                for i in range(n):
                    wp, wm = model.w.copy(), model.w.copy()
                    wp[i] += h
                    wm[i] -= h
                    fd = (
                        loss(lq.FmModel(model.w0, wp, model.V))
                        - loss(lq.FmModel(model.w0, wm, model.V))
                    ) / (2 * h)
                    assert rel(gw[i], fd) <= 1e-4
                for i in range(n):
                    for f in range(k):
                        Vp, Vm = model.V.copy(), model.V.copy()
                        Vp[i, f] += h
                        Vm[i, f] -= h
                        fd = (
                            loss(lq.FmModel(model.w0, model.w, Vp))
                            - loss(lq.FmModel(model.w0, model.w, Vm))
                        ) / (2 * h)
                        assert rel(gV[i, f], fd) <= 1e-4

    def test_criterion_04_planted_model_recovery(self):
        with criterion(4, "planted surrogate recovery", budget_s=30):
            rng = np.random.default_rng(42)
            planted = lq.FmModel(
                w0=float(rng.normal()),
                w=rng.normal(0, 0.5, 12),
                V=rng.normal(0, 0.5, (12, 3)),
            )
            X = rng.integers(0, 2, (500, 12)).astype(np.uint8)
            Y = lq.fm_predict(planted, X)
            data = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 500)
            _, report = lq.fm_train(data, lq.FmTrainConfig(epochs=100, rank=3, seed=1))
            assert report.test_r2 >= 0.95

    def test_criterion_05_annealer_vs_brute_force(self):
        with criterion(5, "annealer finds exhaustive optimum", budget_s=60):
            rng = np.random.default_rng(12345)
            hits = 0
            for trial in range(100):
                q = random_qubo(rng, 16)
                truth = lq.brute_force_sample(q, top_k=1).best()
                found = lq.simulated_annealing_sample(
                    q, lq.AnnealSchedule(), seed=trial
                ).best()
                if found.energy <= truth.energy + 1e-9:
                    hits += 1
            assert hits >= 95, f"annealer matched the optimum in only {hits}/100 runs"

    def test_criterion_06_relaxation_numerics(self):
        with criterion(6, "relaxation and schedule numerics"):
            rng = np.random.default_rng(606)
            logits = rng.normal(0, 3, (100_000, 1, 2))
            noise = lq.sample_gumbel_noise(rng, (100_000, 1, 2))
            out = lq.gumbel_softmax(logits, 0.7, noise)
            assert np.all(out > 0)
            assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-9

            assert lq.bernoulli_kl(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-9)
            for q_val in (0.0, 1.0):
                assert lq.bernoulli_kl(np.array([q_val]))[0] == pytest.approx(
                    math.log(2), abs=1e-5
                )
            assert lq.bernoulli_kl(np.array([0.75]))[0] == pytest.approx(
                0.13081, abs=1e-4
            )

            # frozen-noise toy network; random biases keep the probe away from
            # ReLU kinks where one-sided differences are undefined
            arch = lq.BvaeArchitecture(
                image_side=4, latent_bits=4, encoder_hidden=(8, 6), decoder_hidden=(6, 8)
            )
            prng = np.random.default_rng(77)
            params = {
                name: prng.normal(0, 0.3, size=shape)
                for name, shape in arch.layer_shapes().items()
            }
            model = lq.BvaeModel(architecture=arch, params=params, tau=1.0)
            batch = prng.random((3, 4, 4))
            frozen_noise = lq.sample_gumbel_noise(prng, (3, 4, 2))
            tau = 1.1
            _, grads = lq.bvae_loss_and_grads(model, batch, tau, frozen_noise)
            step = 1e-6
            worst = 0.0
            for name, shape in arch.layer_shapes().items():
                g = grads[name]
                order = np.argsort(np.abs(g), axis=None)[-4:]
                for pos in zip(*np.unravel_index(order, shape)):
                    pp = {key: val.copy() for key, val in params.items()}
                    pm = {key: val.copy() for key, val in params.items()}
                    pp[name][pos] += step
                    pm[name][pos] -= step
                    up = lq.bvae_loss(
                        lq.BvaeModel(architecture=arch, params=pp, tau=tau),
                        batch, tau, frozen_noise,
                    ).total
                    down = lq.bvae_loss(
                        lq.BvaeModel(architecture=arch, params=pm, tau=tau),
                        batch, tau, frozen_noise,
                    ).total
                    fd = (up - down) / (2 * step)
                    worst = max(
                        worst, abs(fd - g[pos]) / max(abs(fd), abs(g[pos]), 1e-8)
                    )
            assert worst <= 1e-3

            schedule = lq.TemperatureSchedule(tau=5.0, gamma=0.0003)
            assert lq.anneal_tau(schedule, 1).tau == pytest.approx(4.99850, abs=1e-5)
            for epoch in range(500):
                schedule = lq.anneal_tau(schedule, epoch)
            assert schedule.tau == 0.4

    def test_criterion_07_toy_reconstruction(self):
        with criterion(7, "autoencoder half-plane reconstruction", budget_s=300):
            model = full_bvae()
            corpus = reference_corpus()
            distinct = {img.tobytes(): img for img in corpus}
            # every validation image is one of these patterns, so a per-pattern
            # floor bounds validation accuracy from below
            per_pattern = [
                lq.reconstruction_accuracy(model, img.reshape(1, 8, 8))
                for img in distinct.values()
            ]
            assert min(per_pattern) >= 0.95
            assert lq.reconstruction_accuracy(model, corpus) >= 0.95

    def test_criterion_08_end_to_end_improvement(self, tmp_path):
        with criterion(8, "closed-loop overlap improvement", budget_s=600):
            model = full_bvae()
            objective = lq.TargetOverlapObjective(target=reference_target())
            data = lq.build_latent_dataset(model, objective, count=150, seed=5)
            initial_best = data.max_label()
            assert initial_best < 1.0

            bvae_path = tmp_path / "bvae.txt"
            data_path = tmp_path / "data.txt"
            lq.save_bvae(model, bvae_path)
            lq.save_dataset(data, data_path)
            cfg = lq.PipelineConfig(
                latent_bits=16,
                fm_rank=8,
                objective=objective,
                bvae_checkpoint=str(bvae_path),
                dataset_path=str(data_path),
                output_dir=str(tmp_path / "out"),
                samples_per_iteration=10,
                iterations=15,
                sampler="simulated_annealing",
                seed=21,
            )
            state = lq.run_pipeline(cfg)

            maxes = [rec.running_max_fom for rec in state.history]
            assert len(maxes) == 15
            assert all(b >= a for a, b in zip(maxes, maxes[1:]))
            assert maxes[-1] > initial_best

    def test_criterion_09_determinism_and_round_trips(self, tmp_path):
        with criterion(9, "seeded determinism and exact round trips"):
            model = train_reference_bvae()
            objective = lq.TargetOverlapObjective(target=reference_target())
            data = lq.build_latent_dataset(model, objective, count=60, seed=5)
            bvae_path = tmp_path / "bvae.txt"
            data_path = tmp_path / "data.txt"
            lq.save_bvae(model, bvae_path)
            lq.save_dataset(data, data_path)

            def run(tag):
                cfg = lq.PipelineConfig(
                    latent_bits=16,
                    fm_rank=4,
                    objective=objective,
                    bvae_checkpoint=str(bvae_path),
                    dataset_path=str(data_path),
                    output_dir=str(tmp_path / tag),
                    samples_per_iteration=5,
                    iterations=4,
                    schedule=lq.AnnealSchedule(num_sweeps=200, num_reads=5),
                    seed=21,
                )
                lq.run_pipeline(cfg)
                return (tmp_path / tag / "convergence.csv").read_bytes()

            assert run("a") == run("b")

            rng = np.random.default_rng(909)
            q = random_qubo(rng, 9)
            lq.save_qubo(q, tmp_path / "q.txt")
            loaded_q = lq.load_qubo(tmp_path / "q.txt")
            assert loaded_q.offset == q.offset
            assert loaded_q.linear.tolist() == q.linear.tolist()
            assert loaded_q.quadratic == q.quadratic

            fm = random_fm(rng, 7, 3)
            lq.save_fm(fm, tmp_path / "fm.txt")
            loaded_fm = lq.load_fm(tmp_path / "fm.txt")
            assert loaded_fm.w0 == fm.w0
            assert loaded_fm.w.tolist() == fm.w.tolist()
            assert loaded_fm.V.tolist() == fm.V.tolist()

            loaded_model = lq.load_bvae(bvae_path)
            assert loaded_model.tau == model.tau
            for name in model.params:
                assert np.array_equal(loaded_model.params[name], model.params[name])

            loaded_data = lq.load_dataset(data_path)
            assert loaded_data.X.tolist() == data.X.tolist()
            assert loaded_data.Y.tolist() == data.Y.tolist()
            assert loaded_data.provenance == data.provenance

    def test_criterion_10_hardware_feasibility_limits(self, half_plane_target):
        with criterion(10, "clique feasibility limits"):
            def cfg(n):
                return lq.PipelineConfig(
                    latent_bits=n,
                    fm_rank=2,
                    objective=lq.TargetOverlapObjective(target=half_plane_target),
                    bvae_checkpoint="x",
                    dataset_path="y",
                    output_dir="z",
                )

            with pytest.warns(UserWarning, match="clique limit"):
                big = lq.check_hardware_feasibility(cfg(500), max_clique=180)
            assert not big.fits_hardware

            small = lq.check_hardware_feasibility(cfg(64), max_clique=64)
            assert small.fits_hardware
