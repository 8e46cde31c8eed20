import math
import tracemalloc

import numpy as np
import pytest

import latentqubo as lq
from latentqubo import pipeline
from latentqubo.samplers import BRUTE_FORCE_MAX_BITS


def overlap_objective(target):
    return lq.TargetOverlapObjective(target=target)


def tiny_untrained_bvae(n=4, m=4, seed=0):
    arch = lq.BvaeArchitecture(
        image_side=m, latent_bits=n, encoder_hidden=(8, 6), decoder_hidden=(6, 8)
    )
    rng = np.random.default_rng(seed)
    params = {
        name: rng.normal(0, 0.3, size=shape) for name, shape in arch.layer_shapes().items()
    }
    return lq.BvaeModel(architecture=arch, params=params, tau=0.4)


def exhaustive_dataset(model, objective):
    """Every latent vector of a tiny model, labeled by decode + objective."""
    n = model.architecture.latent_bits
    X = np.array(
        [[(v >> i) & 1 for i in range(n)] for v in range(2**n)], dtype=np.uint8
    )
    Y = np.zeros(len(X))
    for r in range(len(X)):
        _, pattern = lq.decode(model, X[r])
        Y[r] = lq.evaluate_fom(objective, pattern)
    return lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * len(X))


class TestBitFlip:
    def test_all_neighbors_at_full_copies(self):
        base = np.array([1, 0, 1], dtype=np.uint8)
        out = lq.bit_flip_augment(base, copies=3, seed=0)
        assert len(out) == 3
        got = {tuple(v.tolist()) for v in out}
        assert got == {(0, 0, 1), (1, 1, 1), (1, 0, 0)}

    def test_each_copy_distance_one(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 2, 12).astype(np.uint8)
        for v in lq.bit_flip_augment(base, copies=5, seed=2):
            assert int(np.sum(v != base)) == 1

    def test_too_many_copies(self):
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            lq.bit_flip_augment(np.zeros(3, dtype=np.uint8), copies=4, seed=0)

    def test_zero_copies(self):
        with pytest.raises(ValueError, match="copies"):
            lq.bit_flip_augment(np.zeros(3, dtype=np.uint8), copies=0, seed=0)

    def test_deterministic(self):
        base = np.zeros(10, dtype=np.uint8)
        a = lq.bit_flip_augment(base, copies=4, seed=9)
        b = lq.bit_flip_augment(base, copies=4, seed=9)
        assert [v.tolist() for v in a] == [v.tolist() for v in b]


class TestConfigValidation:
    def valid_kwargs(self, target):
        return dict(
            latent_bits=16,
            fm_rank=4,
            objective=overlap_objective(target),
            bvae_checkpoint="bvae.txt",
            dataset_path="data.txt",
            output_dir="out",
        )

    def test_defaults_accepted(self, half_plane_target):
        cfg = lq.PipelineConfig(**self.valid_kwargs(half_plane_target))
        assert cfg.sampler == "simulated_annealing"
        assert cfg.iterations == 30

    @pytest.mark.parametrize(
        "overrides,msg",
        [
            (dict(samples_per_iteration=0), "samples_per_iteration"),
            (dict(iterations=0), "iterations"),
            (dict(sampler="quantum"), "sampler"),
            (dict(augmentation="mirror"), "augmentation"),
            (dict(augmentation="bit_flip", bit_flip_copies=17), "bit_flip"),
            (dict(label_margin=-0.1), "label_margin"),
            (dict(fm_epochs=0), "fm_epochs"),
            (dict(decode_blur=-1.0), "decode_blur"),
            (dict(latent_bits=0), "latent_bits"),
            (dict(label_margin=float("nan")), "label_margin"),
            (dict(decode_blur=float("nan")), "decode_blur"),
            (dict(fm_learning_rate=0.0), "fm_learning_rate"),
            (dict(fm_learning_rate=-0.05), "fm_learning_rate"),
            (dict(fm_learning_rate=float("nan")), "fm_learning_rate"),
            (dict(sampler="brute_force", latent_bits=25), "BRUTE_FORCE_MAX_BITS = 24"),
            (dict(label_margin=float("inf")), "label_margin"),
            (dict(decode_blur=float("inf")), "decode_blur"),
            (dict(fm_learning_rate=float("inf")), "fm_learning_rate"),
        ],
    )
    def test_rejections(self, half_plane_target, overrides, msg):
        kwargs = self.valid_kwargs(half_plane_target)
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=msg):
            lq.PipelineConfig(**kwargs)

    def test_brute_force_accepted_up_to_its_cap(self, half_plane_target):
        kwargs = self.valid_kwargs(half_plane_target)
        kwargs.update(sampler="brute_force", latent_bits=BRUTE_FORCE_MAX_BITS)
        assert lq.PipelineConfig(**kwargs).latent_bits == 24

    def test_frozen(self, half_plane_target):
        cfg = lq.PipelineConfig(**self.valid_kwargs(half_plane_target))
        with pytest.raises(AttributeError):
            cfg.seed = 5


class TestConvergenceRecord:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="std_fom"):
            lq.ConvergenceRecord(
                iteration=0,
                mean_fom=0.5,
                std_fom=-0.1,
                max_fom=0.5,
                running_max_fom=0.5,
                dataset_size=10,
                sampler_energy_min=0.0,
                surrogate_error=0.0,
            )

    def test_nan_statistics_allowed(self):
        rec = lq.ConvergenceRecord(
            iteration=0,
            mean_fom=float("nan"),
            std_fom=float("nan"),
            max_fom=float("nan"),
            running_max_fom=0.5,
            dataset_size=10,
            sampler_energy_min=0.0,
            surrogate_error=float("nan"),
        )
        assert math.isnan(rec.mean_fom)


class TestRunIteration:
    def make_state(self, toy_bvae, target, count=60, seed=5):
        obj = overlap_objective(target)
        data = lq.build_latent_dataset(toy_bvae, obj, count=count, seed=seed)
        return lq.RunState(
            dataset=data,
            bvae=toy_bvae,
            seed_seq=np.random.SeedSequence(21),
        )

    def quick_cfg(self, target, **overrides):
        kwargs = dict(
            latent_bits=16,
            fm_rank=4,
            objective=overlap_objective(target),
            bvae_checkpoint="unused.txt",
            dataset_path="unused.txt",
            output_dir="unused",
            samples_per_iteration=5,
            iterations=3,
            schedule=lq.AnnealSchedule(num_sweeps=100, num_reads=5),
            seed=21,
        )
        kwargs.update(overrides)
        return lq.PipelineConfig(**kwargs)

    def test_dataset_grows_with_new_rows_only(self, toy_bvae, half_plane_target):
        state = self.make_state(toy_bvae, half_plane_target)
        cfg = self.quick_cfg(half_plane_target)
        before_keys = {row.tobytes() for row in state.dataset.X}
        before_len = len(state.dataset)
        rec = lq.run_iteration(state, cfg)
        after_keys = {row.tobytes() for row in state.dataset.X}
        added = after_keys - before_keys
        assert len(state.dataset) == before_len + len(added)
        assert 0 < len(added) <= cfg.samples_per_iteration
        assert rec.dataset_size == len(state.dataset)
        assert len(state.history) == 1
        assert state.history == [rec]

    def test_running_max_monotone(self, toy_bvae, half_plane_target):
        state = self.make_state(toy_bvae, half_plane_target)
        cfg = self.quick_cfg(half_plane_target)
        prev = state.dataset.max_label()
        for _ in range(3):
            rec = lq.run_iteration(state, cfg)
            assert rec.running_max_fom >= prev
            prev = rec.running_max_fom
        labels_max = state.dataset.max_label()
        assert prev == pytest.approx(max(labels_max, prev))

    def test_new_rows_tagged_with_iteration(self, toy_bvae, half_plane_target):
        state = self.make_state(toy_bvae, half_plane_target)
        cfg = self.quick_cfg(half_plane_target)
        lq.run_iteration(state, cfg)
        tags = set(state.dataset.provenance)
        assert "random" in tags
        assert "iter0" in tags or "iter0_flip" in tags

    def test_stagnation_yields_nan_and_carries_max(self, half_plane_target):
        model = tiny_untrained_bvae(n=4)
        target = np.zeros((4, 4), dtype=np.uint8)
        target[:2, :] = 1
        obj = overlap_objective(target)
        data = exhaustive_dataset(model, obj)
        state = lq.RunState(
            dataset=data,
            bvae=model,
            seed_seq=np.random.SeedSequence(3),
        )
        cfg = lq.PipelineConfig(
            latent_bits=4,
            fm_rank=2,
            objective=obj,
            bvae_checkpoint="unused.txt",
            dataset_path="unused.txt",
            output_dir="unused",
            sampler="brute_force",
            samples_per_iteration=3,
            iterations=1,
        )
        before_max = state.dataset.max_label()
        rec = lq.run_iteration(state, cfg)
        assert math.isnan(rec.mean_fom)
        assert math.isnan(rec.std_fom)
        assert math.isnan(rec.max_fom)
        assert rec.running_max_fom == before_max
        assert rec.dataset_size == 16
        assert len(state.dataset) == 16

    def test_bit_flip_fills_shortfall(self, half_plane_target):
        model = tiny_untrained_bvae(n=6, seed=4)
        target = np.zeros((4, 4), dtype=np.uint8)
        target[:, :2] = 1
        obj = overlap_objective(target)
        full = exhaustive_dataset(model, obj)
        # leave out a handful of vectors so brute force finds almost nothing new
        data = full.subset(list(range(0, 60)))
        state = lq.RunState(
            dataset=data,
            bvae=model,
            seed_seq=np.random.SeedSequence(8),
        )
        cfg = lq.PipelineConfig(
            latent_bits=6,
            fm_rank=2,
            objective=obj,
            bvae_checkpoint="unused.txt",
            dataset_path="unused.txt",
            output_dir="unused",
            sampler="brute_force",
            samples_per_iteration=4,
            iterations=1,
            augmentation="bit_flip",
            bit_flip_copies=6,
        )
        lq.run_iteration(state, cfg)
        assert len(state.dataset) == 64
        assert "iter0" in state.dataset.provenance

    # at seed 3 a copy repeats a sampled row and the source is not the sampler's best
    @pytest.mark.parametrize("seed", [8, 3])
    def test_bit_flip_copies_follow_the_samples(self, monkeypatch, seed):
        # two reads cannot give six new designs, so every iteration reaches the bit-flip branch
        model = tiny_untrained_bvae(n=6, seed=4)
        target = np.zeros((4, 4), dtype=np.uint8)
        target[:, :2] = 1
        obj = overlap_objective(target)
        state = lq.RunState(
            dataset=exhaustive_dataset(model, obj).subset(range(40)),
            bvae=model,
            seed_seq=np.random.SeedSequence(seed),
        )
        cfg = lq.PipelineConfig(
            latent_bits=6, fm_rank=2, objective=obj, bvae_checkpoint="unused.txt",
            dataset_path="unused.txt", output_dir="unused",
            schedule=lq.AnnealSchedule(num_reads=2), samples_per_iteration=6,
            iterations=3, augmentation="bit_flip", bit_flip_copies=6,
        )
        sample_sets, flips = [], []
        fit_and_sample, bit_flip_augment = pipeline.fit_and_sample, pipeline.bit_flip_augment

        def recorded_fit_and_sample(*args, **kwargs):
            result = fit_and_sample(*args, **kwargs)
            sample_sets.append(result[3])
            return result

        def recorded_bit_flip_augment(bits, copies, seed):
            out = bit_flip_augment(bits, copies, seed)
            flips.append((np.array(bits), np.array(out)))
            return out

        monkeypatch.setattr(pipeline, "fit_and_sample", recorded_fit_and_sample)
        monkeypatch.setattr(pipeline, "bit_flip_augment", recorded_bit_flip_augment)
        for it in range(3):
            before = state.dataset
            lq.run_iteration(state, cfg)
            assert len(sample_sets) == len(flips) == it + 1
            # the rule: the sampler's rows in order, then the copies, each taken unless
            # the dataset holds it or it was taken already, until six are taken
            known = {tuple(row) for row in before.X.tolist()}
            rows, tags = [], []

            def take(candidates, tag):
                for x in map(tuple, np.asarray(candidates).tolist()):
                    if len(rows) < 6 and x not in known:
                        known.add(x)
                        rows.append(list(x))
                        tags.append(tag)

            take([entry.vector for entry in sample_sets[it].entries], f"iter{it}")
            source, copies = flips[it]
            assert source.tolist() == (rows[0] if rows else sample_sets[it].best().vector.tolist())
            take(copies, f"iter{it}_flip")
            assert state.dataset.X[len(before):].tolist() == rows
            assert state.dataset.provenance[len(before):] == tuple(tags)
            labels = [lq.evaluate_fom(obj, lq.decode(model, row)[1]) for row in rows]
            assert state.dataset.Y[len(before):].tolist() == labels
        assert any(tag.endswith("_flip") for tag in state.dataset.provenance)

    def test_cold_start_retrains_from_scratch(self, toy_bvae, half_plane_target):
        state = self.make_state(toy_bvae, half_plane_target)
        cfg = self.quick_cfg(half_plane_target, warm_start_fm=False)
        lq.run_iteration(state, cfg)
        first = state.fm
        lq.run_iteration(state, cfg)
        assert state.fm is not first

    def test_surrogate_error_logged(self, toy_bvae, half_plane_target):
        state = self.make_state(toy_bvae, half_plane_target)
        rec = lq.run_iteration(state, self.quick_cfg(half_plane_target))
        assert math.isfinite(rec.surrogate_error)
        assert rec.surrogate_error >= 0


class TestConvergenceCsv:
    def test_schema_and_values(self, tmp_path):
        rec = lq.ConvergenceRecord(
            iteration=0,
            mean_fom=0.5,
            std_fom=0.25,
            max_fom=0.75,
            running_max_fom=0.75,
            dataset_size=100,
            sampler_energy_min=-1.5,
            surrogate_error=0.01,
        )
        path = tmp_path / "conv.csv"
        lq.write_convergence_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "iteration,mean_fom,std_fom,max_fom,running_max_fom,dataset_size,min_energy"
        )
        assert lines[1] == "0,0.5,0.25,0.75,0.75,100,-1.5"

    def test_nan_row(self, tmp_path):
        rec = lq.ConvergenceRecord(
            iteration=2,
            mean_fom=float("nan"),
            std_fom=float("nan"),
            max_fom=float("nan"),
            running_max_fom=0.875,
            dataset_size=64,
            sampler_energy_min=-0.25,
            surrogate_error=float("nan"),
        )
        path = tmp_path / "conv.csv"
        lq.write_convergence_csv([rec], path)
        assert path.read_text().splitlines()[1] == "2,nan,nan,nan,0.875,64,-0.25"

    def test_surrogate_error_not_in_csv(self, tmp_path):
        path = tmp_path / "conv.csv"
        lq.write_convergence_csv([], path)
        assert "surrogate" not in path.read_text()


class TestRunPipeline:
    def prepare(self, tmp_path, toy_bvae, target, count=60):
        obj = overlap_objective(target)
        data = lq.build_latent_dataset(toy_bvae, obj, count=count, seed=5)
        bvae_path = tmp_path / "bvae.txt"
        data_path = tmp_path / "data.txt"
        lq.save_bvae(toy_bvae, bvae_path)
        lq.save_dataset(data, data_path)
        return obj, data, bvae_path, data_path

    def cfg_for(self, tmp_path, obj, bvae_path, data_path, out="out", **overrides):
        kwargs = dict(
            latent_bits=16,
            fm_rank=4,
            objective=obj,
            bvae_checkpoint=str(bvae_path),
            dataset_path=str(data_path),
            output_dir=str(tmp_path / out),
            samples_per_iteration=5,
            iterations=3,
            schedule=lq.AnnealSchedule(num_sweeps=100, num_reads=5),
            seed=21,
        )
        kwargs.update(overrides)
        return lq.PipelineConfig(**kwargs)

    def test_artifacts_and_monotonicity(self, tmp_path, toy_bvae, half_plane_target):
        obj, data, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        cfg = self.cfg_for(tmp_path, obj, bvae_path, data_path)
        state = lq.run_pipeline(cfg)

        out = tmp_path / "out"
        for name in (
            "convergence.csv",
            "dataset_final.txt",
            "fm_final.txt",
            "best_design.pgm",
            "best_design_bits.txt",
        ):
            assert (out / name).exists()

        assert len(state.history) == 3
        maxes = [r.running_max_fom for r in state.history]
        assert maxes == sorted(maxes)
        assert maxes[0] >= data.max_label()

        csv_lines = (out / "convergence.csv").read_text().splitlines()
        assert len(csv_lines) == 4

        final = lq.load_dataset(out / "dataset_final.txt")
        assert final.X.tolist() == state.dataset.X.tolist()

        bits_line = (out / "best_design_bits.txt").read_text().split()
        best_bits, best_label = state.dataset.best_row()
        assert bits_line[0] == "".join(str(b) for b in best_bits)
        assert float(bits_line[1]) == best_label

        pattern = lq.load_pgm(out / "best_design.pgm")
        _, expected = lq.decode(toy_bvae, best_bits)
        assert np.array_equal(pattern, expected)

    def test_deterministic_across_runs(self, tmp_path, toy_bvae, half_plane_target):
        obj, _, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        cfg_a = self.cfg_for(tmp_path, obj, bvae_path, data_path, out="a")
        cfg_b = self.cfg_for(tmp_path, obj, bvae_path, data_path, out="b")
        lq.run_pipeline(cfg_a)
        lq.run_pipeline(cfg_b)
        for name in ("convergence.csv", "dataset_final.txt", "fm_final.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_initial_duplicates_removed(self, tmp_path, toy_bvae, half_plane_target):
        obj, data, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target, count=20)
        doubled = lq.LabeledDataset(
            X=np.concatenate([data.X, data.X]),
            Y=np.concatenate([data.Y, data.Y]),
            provenance=data.provenance * 2,
        )
        lq.save_dataset(doubled, data_path)
        cfg = self.cfg_for(tmp_path, obj, bvae_path, data_path, iterations=1)
        state = lq.run_pipeline(cfg)
        keys = {row.tobytes() for row in state.dataset.X}
        assert len(keys) == len(state.dataset)

    def test_missing_checkpoint(self, tmp_path, toy_bvae, half_plane_target):
        obj, _, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        cfg = self.cfg_for(tmp_path, obj, tmp_path / "absent.txt", data_path)
        with pytest.raises(FileNotFoundError, match="required input file"):
            lq.run_pipeline(cfg)

    def test_missing_dataset(self, tmp_path, toy_bvae, half_plane_target):
        obj, _, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        cfg = self.cfg_for(tmp_path, obj, bvae_path, tmp_path / "absent.txt")
        with pytest.raises(FileNotFoundError, match="required input file"):
            lq.run_pipeline(cfg)

    def test_latent_bits_mismatch(self, tmp_path, toy_bvae, half_plane_target):
        obj, _, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        cfg = self.cfg_for(tmp_path, obj, bvae_path, data_path, latent_bits=12)
        with pytest.raises(ValueError, match="12 latent bits"):
            lq.run_pipeline(cfg)

    def test_empty_initial_dataset(self, tmp_path, toy_bvae, half_plane_target):
        obj, _, bvae_path, data_path = self.prepare(tmp_path, toy_bvae, half_plane_target)
        lq.save_dataset(lq.LabeledDataset.empty(16), data_path)
        cfg = self.cfg_for(tmp_path, obj, bvae_path, data_path)
        with pytest.raises(ValueError, match="empty"):
            lq.run_pipeline(cfg)


class TestHardwareCheck:
    def cfg(self, half_plane_target, n):
        return lq.PipelineConfig(
            latent_bits=n,
            fm_rank=2,
            objective=overlap_objective(half_plane_target),
            bvae_checkpoint="x",
            dataset_path="y",
            output_dir="z",
        )

    def test_fits_exactly(self, half_plane_target):
        report = lq.check_hardware_feasibility(self.cfg(half_plane_target, 64), max_clique=64)
        assert report.fits_hardware
        assert report.is_fully_connected
        assert report.edge_count == 64 * 63 // 2

    def test_exceeds_warns(self, half_plane_target):
        with pytest.warns(UserWarning, match="clique limit"):
            report = lq.check_hardware_feasibility(
                self.cfg(half_plane_target, 500), max_clique=180
            )
        assert not report.fits_hardware

    def test_single_bit(self, half_plane_target):
        report = lq.check_hardware_feasibility(self.cfg(half_plane_target, 1), max_clique=2)
        assert report.fits_hardware

    def test_answers_from_n_in_constant_memory(self, half_plane_target):
        cfg = self.cfg(half_plane_target, 4000)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="clique limit"):
                report = lq.check_hardware_feasibility(cfg, max_clique=180)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.edge_count == 4000 * 3999 // 2 and report.is_fully_connected
        assert peak < 1_000_000

    def test_bad_clique_limit(self, half_plane_target):
        with pytest.raises(ValueError, match="max_clique"):
            lq.check_hardware_feasibility(self.cfg(half_plane_target, 4), max_clique=0)
