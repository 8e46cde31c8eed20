import csv
import subprocess
import sys
import textwrap
from dataclasses import MISSING, fields

import numpy as np
import pytest

import latentqubo as lq
from latentqubo.cli import _read_ini, build_pipeline_config, main


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


@pytest.fixture
def workspace(tmp_path, toy_bvae, half_plane_target):
    """Checkpoint, target image, and labeled dataset ready for CLI runs."""
    lq.save_bvae(toy_bvae, tmp_path / "bvae.txt")
    lq.save_pgm(half_plane_target.astype(np.float64), tmp_path / "target.pgm")
    obj = lq.TargetOverlapObjective(target=half_plane_target)
    data = lq.build_latent_dataset(toy_bvae, obj, count=50, seed=5)
    lq.save_dataset(data, tmp_path / "data.txt")
    config = write_config(
        tmp_path / "run.ini",
        """
        [pipeline]
        latent_bits = 16
        fm_rank = 4
        bvae_checkpoint = bvae.txt
        dataset = data.txt
        output_dir = out
        samples_per_iteration = 4
        iterations = 2
        seed = 21

        [schedule]
        num_sweeps = 100
        num_reads = 5

        [objective]
        kind = target_overlap
        target = target.pgm
        """,
    )
    return tmp_path, config


class TestGenCorpus:
    def test_writes_image_grid(self, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        rc = main(
            ["gen-corpus", "--kind", "half_planes", "--side", "8", "--count", "32",
             "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert lq.load_images(out).shape == (32, 8, 8)
        assert "wrote 32" in capsys.readouterr().out

    def test_bad_kind_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen-corpus", "--kind", "spirals", "--out", str(tmp_path / "x.txt")])


class TestTrainBvae:
    def test_trains_and_saves(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        main(
            ["gen-corpus", "--kind", "half_planes", "--side", "6", "--count", "16",
             "--seed", "1", "--out", str(corpus)]
        )
        out = tmp_path / "model.txt"
        rc = main(
            ["train-bvae", "--images", str(corpus), "--latent-bits", "8",
             "--epochs", "5", "--seed", "0", "--encoder-hidden", "16,12",
             "--decoder-hidden", "12,16", "--out", str(out)]
        )
        assert rc == 0
        model = lq.load_bvae(out)
        assert model.architecture.latent_bits == 8
        assert model.architecture.image_side == 6
        assert "pixel accuracy" in capsys.readouterr().out

    def test_missing_images(self, tmp_path):
        rc = main(
            ["train-bvae", "--images", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "m.txt")]
        )
        assert rc == 3

    @pytest.mark.parametrize("flag, value", [
        ("--encoder-hidden", "16,x"),
        ("--decoder-hidden", "0,8"),
        ("--latent-bits", "0"),
        ("--batch-size", "-3"),
        ("--batch-size", "0"),
        ("--epochs", "0"),
        ("--learning-rate", "-1"),
        ("--learning-rate", "inf"),
        ("--learning-rate", "nan"),
        ("--seed", "-1"),
    ])
    def test_bad_size_is_a_configuration_error(self, tmp_path, capsys, flag, value):
        corpus = tmp_path / "corpus.txt"
        main(["gen-corpus", "--kind", "half_planes", "--side", "6", "--count", "4",
              "--out", str(corpus)])
        out = tmp_path / "model.txt"
        rc = main(["train-bvae", "--images", str(corpus), "--epochs", "1", flag, value,
                   "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", ["IMG v1 m=6 count=0\n", "IMG v1 m=6 count=1\n0 1\n"],
                             ids=["empty", "malformed"])
    def test_bad_corpus_is_a_runtime_error(self, tmp_path, capsys, body):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(body)
        out = tmp_path / "model.txt"
        rc = main(["train-bvae", "--images", str(corpus), "--epochs", "1", "--out", str(out)])
        assert rc == 4
        assert "configuration error" not in capsys.readouterr().err
        assert not out.exists()


class TestGenDataset:
    def test_builds_labeled_dataset(self, workspace, capsys):
        tmp_path, config = workspace
        out = tmp_path / "fresh.txt"
        rc = main(
            ["gen-dataset", "--config", config, "--bvae", str(tmp_path / "bvae.txt"),
             "--count", "25", "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
        data = lq.load_dataset(out)
        assert len(data) == 25
        assert data.n == 16
        assert "best label" in capsys.readouterr().out

    def test_stratified_counts(self, tmp_path, toy_bvae):
        lq.save_bvae(toy_bvae, tmp_path / "bvae.txt")
        config = write_config(
            tmp_path / "strat.ini",
            """
            [objective]
            kind = product_efficiency
            target_fill = 0.5
            smoothness_weight = 1.0

            [stratify]
            total = 20
            bands = 0.0:0.5,0.5:1.0
            fractions = 0.5,0.5
            """,
        )
        out = tmp_path / "strat.txt"
        rc = main(
            ["gen-dataset", "--config", config, "--bvae", str(tmp_path / "bvae.txt"),
             "--count", "200", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        data = lq.load_dataset(out)
        assert len(data) == 20
        assert int((data.Y < 0.5).sum()) == 10
        assert int((data.Y >= 0.5).sum()) == 10

    def test_missing_checkpoint(self, workspace):
        tmp_path, config = workspace
        rc = main(
            ["gen-dataset", "--config", config, "--bvae", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "x.txt")]
        )
        assert rc == 3


class TestRunLoop:
    def test_full_run(self, workspace, capsys):
        tmp_path, config = workspace
        rc = main(["run-loop", "--config", config])
        assert rc == 0
        out = tmp_path / "out"
        for name in (
            "convergence.csv",
            "dataset_final.txt",
            "fm_final.txt",
            "best_design.pgm",
            "best_design_bits.txt",
        ):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "ran 2 iterations" in printed

    def test_seed_and_out_overrides(self, workspace):
        tmp_path, config = workspace
        rc = main(
            ["run-loop", "--config", config, "--seed", "77",
             "--out", str(tmp_path / "elsewhere")]
        )
        assert rc == 0
        assert (tmp_path / "elsewhere" / "convergence.csv").exists()

    def test_missing_config_file(self, tmp_path):
        rc = main(["run-loop", "--config", str(tmp_path / "absent.ini")])
        assert rc == 3

    def test_missing_input_artifact(self, workspace):
        tmp_path, config = workspace
        (tmp_path / "bvae.txt").unlink()
        rc = main(["run-loop", "--config", config])
        assert rc == 3

    def test_missing_objective_target(self, workspace, capsys):
        tmp_path, config = workspace
        (tmp_path / "target.pgm").unlink()
        rc = main(["run-loop", "--config", config])
        assert rc == 3
        assert "target.pgm" in capsys.readouterr().err

    def test_runtime_error_from_mismatched_dataset(self, workspace, toy_bvae, capsys):
        tmp_path, config = workspace
        rng = np.random.default_rng(0)
        wrong = lq.LabeledDataset(
            X=rng.integers(0, 2, (10, 8)).astype(np.uint8),
            Y=rng.random(10),
            provenance=("random",) * 10,
        )
        lq.save_dataset(wrong, tmp_path / "data.txt")
        rc = main(["run-loop", "--config", config])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_tagless_dataset_row_names_file_and_line(self, workspace, capsys):
        tmp_path, config = workspace
        path = tmp_path / "data.txt"
        lines = path.read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:2])
        path.write_text("\n".join(lines) + "\n")
        rc = main(["run-loop", "--config", config])
        assert rc == 4
        assert f"{path}:2:" in capsys.readouterr().err


def check_setting_is_rejected(workspace, capsys, setting: str):
    """run-loop exits 2, naming the key, with one [pipeline] setting added, and writes nothing."""
    tmp_path, config = workspace
    path = tmp_path / "run.ini"
    path.write_text(path.read_text().replace("seed = 21", f"seed = 21\n{setting}"))
    assert main(["run-loop", "--config", config]) == 2
    assert setting.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestConfigErrors:
    def test_unknown_key(self, workspace):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            latent_bits = 16
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out
            typo_key = 5

            [objective]
            kind = target_overlap
            target = target.pgm
            """,
        )
        assert main(["run-loop", "--config", config]) == 2

    def test_unknown_section(self, workspace, capsys):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            latent_bits = 16
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out

            [objective]
            kind = target_overlap
            target = target.pgm

            [annealer]
            sweeps = 10
            """,
        )
        assert main(["run-loop", "--config", config]) == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_missing_objective_section(self, workspace):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            latent_bits = 16
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out
            """,
        )
        assert main(["run-loop", "--config", config]) == 2

    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "latin1.ini"
        config.write_bytes(b"[pipeline]\n# caf\xe9\nlatent_bits = 16\n")
        assert main(["run-loop", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and str(config) in err

    def test_a_directory_is_not_a_config_file(self, tmp_path, capsys):
        assert main(["run-loop", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and str(tmp_path) in err

    def test_bad_objective_kind(self, workspace):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            latent_bits = 16
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out

            [objective]
            kind = resonance
            """,
        )
        assert main(["run-loop", "--config", config]) == 2

    def test_missing_required_key(self, workspace):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out

            [objective]
            kind = target_overlap
            target = target.pgm
            """,
        )
        assert main(["run-loop", "--config", config]) == 2

    def test_non_numeric_value(self, workspace, capsys):
        tmp_path, _ = workspace
        config = write_config(
            tmp_path / "bad.ini",
            """
            [pipeline]
            latent_bits = many
            fm_rank = 4
            bvae_checkpoint = bvae.txt
            dataset = data.txt
            output_dir = out

            [objective]
            kind = target_overlap
            target = target.pgm
            """,
        )
        assert main(["run-loop", "--config", config]) == 2
        assert "invalid value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        ["label_margin = nan", "decode_blur = nan", "fm_learning_rate = nan",
         "fm_learning_rate = 0", "fm_learning_rate = -0.1"],
    )
    def test_nan_or_non_positive_setting(self, workspace, capsys, setting):
        check_setting_is_rejected(workspace, capsys, setting)

    @pytest.mark.parametrize(
        "setting", ["label_margin = inf", "decode_blur = inf", "fm_learning_rate = inf"]
    )
    def test_infinite_setting(self, workspace, capsys, setting):
        check_setting_is_rejected(workspace, capsys, setting)

    def test_infinite_beta_end(self, workspace, capsys):
        tmp_path, config = workspace
        path = tmp_path / "run.ini"
        path.write_text(path.read_text().replace("num_reads = 5", "num_reads = 5\nbeta_end = inf"))
        assert main(["run-loop", "--config", config]) == 2
        assert "beta_end" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beta_ramp_that_overflows(self, workspace, capsys):
        tmp_path, config = workspace
        path = tmp_path / "run.ini"
        path.write_text(path.read_text().replace(
            "num_reads = 5", "num_reads = 5\nbeta_start = 1e-300\nbeta_end = 1e300"))
        assert main(["run-loop", "--config", config]) == 2
        assert "beta_end" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "subcommand", [["run-loop"], ["sample-once", "--out", "s.csv"]], ids=lambda argv: argv[0]
    )
    def test_brute_force_above_its_cap_fails_before_any_work(
        self, workspace, monkeypatch, capsys, subcommand
    ):
        tmp_path, config = workspace
        path = tmp_path / "run.ini"
        path.write_text(path.read_text().replace(
            "latent_bits = 16", "latent_bits = 30\nsampler = brute_force"
        ))
        monkeypatch.chdir(tmp_path)
        assert main([subcommand[0], "--config", config, *subcommand[1:]]) == 2
        assert "BRUTE_FORCE_MAX_BITS = 24" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "subcommand",
        [["run-loop"], ["sample-once", "--out", "s.csv"], ["check-hardware"],
         ["eval", "--image", "target.pgm"], ["gen-dataset", "--bvae", "bvae.txt", "--out", "d.txt"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "fault, code",
        [("short_target", 2), ("target_fill", 2), ("missing_target", 3)],
    )
    def test_objective_fault_exit_code(self, workspace, monkeypatch, capsys, subcommand, fault, code):
        tmp_path, config = workspace
        path = tmp_path / "run.ini"
        if fault == "short_target":
            (tmp_path / "target.pgm").write_text("P2\n2 2\n255\n0 255 0\n")
        elif fault == "target_fill":
            path.write_text(path.read_text().replace(
                "kind = target_overlap\ntarget = target.pgm",
                "kind = product_efficiency\ntarget_fill = 1.5\nsmoothness_weight = 0.1",
            ))
        else:
            (tmp_path / "target.pgm").rename(tmp_path / "elsewhere.pgm")
        monkeypatch.chdir(tmp_path)
        argv = [subcommand[0], "--config", config, *subcommand[1:]]
        assert main(argv) == code
        expected = "target_fill" if fault == "target_fill" else "target.pgm"
        assert expected in capsys.readouterr().err


TARGET = "kind = target_overlap\ntarget = target.pgm"
PRODUCT = "kind = product_efficiency\ntarget_fill = 0.5\nsmoothness_weight = {}"
STRATIFY = TARGET + "\n\n[stratify]\ntotal = {}\nbands = 0.0:1.0\nfractions = {}"
GEN_DATASET = ["gen-dataset", "--config", "{config}", "--bvae", "{bvae}", "--count", "5",
               "--out", "{out}"]
RUN_LOOP = ["run-loop", "--config", "{config}", "--out", "{out}"]
GEN_CORPUS = ["gen-corpus", "--kind", "half_planes", "--side", "4", "--count", "2",
              "--out", "{out}"]
EVAL_BITS = ["eval", "--config", "{config}", "--bits", "0" * 16, "--bvae", "{bvae}"]


@pytest.mark.parametrize("argv, edit, named", [
    (GEN_DATASET, (TARGET, PRODUCT.format("inf")), "smoothness_weight"),
    (GEN_DATASET, (TARGET, PRODUCT.format("nan")), "smoothness_weight"),
    (GEN_DATASET, (TARGET, STRATIFY.format(5, "nan")), "fractions"),
    (GEN_DATASET, (TARGET, STRATIFY.format(-3, "1.0")), "total"),
    (RUN_LOOP, ("seed = 21", "seed = -5"), "seed"),
    (RUN_LOOP + ["--seed", "-1"], None, "seed"),
    (GEN_CORPUS + ["--side", "3"], None, "side"),
    (GEN_CORPUS + ["--count", "0"], None, "count"),
    (GEN_CORPUS + ["--seed", "-1"], None, "seed"),
    (GEN_DATASET + ["--count", "0"], None, "count"),
    (GEN_DATASET + ["--blur", "nan"], None, "blur"),
    (EVAL_BITS + ["--blur", "-1"], None, "blur"),
    (["check-hardware", "--config", "{config}", "--max-clique", "0"], None, "max_clique"),
], ids=[
    "smoothness_weight-inf", "smoothness_weight-nan", "stratify-fractions-nan",
    "stratify-total-negative", "pipeline-seed-negative", "run-loop-seed-flag",
    "gen-corpus-side", "gen-corpus-count", "gen-corpus-seed", "gen-dataset-count",
    "gen-dataset-blur", "eval-blur", "check-hardware-max-clique",
])
def test_a_bad_number_is_a_configuration_error(workspace, capsys, argv, edit, named):
    tmp_path, config = workspace
    if edit is not None:
        path = tmp_path / "run.ini"
        assert edit[0] in path.read_text()
        path.write_text(path.read_text().replace(*edit))
    out = tmp_path / "made"
    paths = {"config": config, "bvae": str(tmp_path / "bvae.txt"), "out": str(out)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err
    assert not out.exists() and not (tmp_path / "out").exists()


def test_gen_dataset_checks_stratify_before_reading_the_checkpoint(workspace, capsys):
    tmp_path, config = workspace
    path = tmp_path / "run.ini"
    path.write_text(path.read_text().replace(TARGET, STRATIFY.format(-3, "1.0")))
    out = tmp_path / "made"
    argv = [arg.format(config=config, bvae=tmp_path / "absent.txt", out=out) for arg in GEN_DATASET]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "total" in err
    assert not out.exists()


# one non-default value per optional [pipeline] and [schedule] key
OPTIONAL_KEYS = {
    "pipeline": {
        "samples_per_iteration": 7, "iterations": 3, "sampler": "brute_force",
        "augmentation": "bit_flip", "bit_flip_copies": 3, "label_margin": 0.25,
        "warm_start_fm": False, "seed": 99, "fm_epochs": 11, "fm_learning_rate": 0.02,
        "decode_blur": 0.5,
    },
    "schedule": {"beta_start": 0.2, "beta_end": 20.0, "num_sweeps": 50, "num_reads": 3},
}


class TestConfigKeys:
    def test_table_covers_every_optional_field(self):
        for section, cls in (("pipeline", lq.PipelineConfig), ("schedule", lq.AnnealSchedule)):
            optional = {f.name for f in fields(cls) if f.default is not MISSING}
            assert set(OPTIONAL_KEYS[section]) == optional - {"schedule"}

    @pytest.mark.parametrize(
        "section, key, value",
        [(section, key, value) for section, table in OPTIONAL_KEYS.items()
         for key, value in table.items()],
    )
    def test_key_reaches_its_field(self, tmp_path, section, key, value):
        sections = {
            "pipeline": ["latent_bits = 16", "fm_rank = 4", "bvae_checkpoint = bvae.txt",
                         "dataset = data.txt", "output_dir = out"],
            "schedule": [],
            "objective": ["kind = product_efficiency", "target_fill = 0.5",
                          "smoothness_weight = 1.0"],
        }
        sections[section].append(f"{key} = {str(value).lower()}")
        path = tmp_path / "keys.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
            for name, lines in sections.items()
        ))
        cfg = build_pipeline_config(*_read_ini(str(path)))
        holder = cfg.schedule if section == "schedule" else cfg
        assert getattr(holder, key) == value
        assert cfg.dataset_path == str(tmp_path / "data.txt")


class TestSampleOnce:
    def test_writes_sample_csv(self, workspace, capsys):
        tmp_path, config = workspace
        out = tmp_path / "samples.csv"
        rc = main(["sample-once", "--config", config, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,energy,occurrences,bits"
        assert len(lines) > 1
        assert "best sampled energy" in capsys.readouterr().out

    def test_reads_its_inputs_like_run_loop(self, workspace, capsys):
        tmp_path, config = workspace
        rng = np.random.default_rng(0)
        wrong = lq.LabeledDataset(
            X=rng.integers(0, 2, (10, 12)).astype(np.uint8),
            Y=rng.random(10),
            provenance=("random",) * 10,
        )
        lq.save_dataset(wrong, tmp_path / "data.txt")
        out = tmp_path / "samples.csv"
        rc = main(["sample-once", "--config", config, "--out", str(out)])
        assert rc == 4
        assert "16 latent bits but the dataset has n=12" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_image_mode(self, workspace, capsys):
        tmp_path, config = workspace
        rc = main(["eval", "--config", config, "--image", str(tmp_path / "target.pgm")])
        assert rc == 0
        assert "figure of merit: 1.000000" in capsys.readouterr().out

    def test_bits_mode(self, workspace, capsys):
        tmp_path, config = workspace
        rc = main(
            ["eval", "--config", config, "--bits", "0" * 16,
             "--bvae", str(tmp_path / "bvae.txt")]
        )
        assert rc == 0
        assert "figure of merit:" in capsys.readouterr().out

    def test_bits_with_missing_checkpoint(self, workspace, capsys):
        tmp_path, config = workspace
        absent = tmp_path / "absent.txt"
        rc = main(["eval", "--config", config, "--bits", "0" * 16, "--bvae", str(absent)])
        assert rc == 3
        assert str(absent) in capsys.readouterr().err

    def test_bits_without_checkpoint(self, workspace, capsys):
        tmp_path, config = workspace
        rc = main(["eval", "--config", config, "--bits", "0" * 16])
        assert rc == 2
        assert "--bits together with --bvae" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["01x1", "0" * 15], ids=["not-binary", "too-short"])
    def test_bad_bits_are_a_configuration_error(self, workspace, capsys, bits):
        tmp_path, config = workspace
        checkpoint = str(tmp_path / "bvae.txt")
        rc = main(["eval", "--config", config, "--bits", bits, "--bvae", checkpoint])
        assert rc == 2
        assert f"--bits must be 16 characters of 0 or 1, got {bits!r}" in capsys.readouterr().err

    def test_image_and_bits_together_rejected_by_parser(self, workspace):
        tmp_path, config = workspace
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", config, "--image", str(tmp_path / "target.pgm"),
                  "--bits", "xyz"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--bvae", "no-such-checkpoint.txt"),
                                             ("--blur", "3")])
    def test_bits_only_flag_with_image_is_a_configuration_error(self, workspace, capsys, flag,
                                                                value):
        tmp_path, config = workspace
        rc = main(["eval", "--config", config, "--image", str(tmp_path / "target.pgm"),
                   flag, value])
        assert rc == 2
        assert f"{flag} is read only with --bits" in capsys.readouterr().err

    def test_missing_image(self, workspace):
        tmp_path, config = workspace
        rc = main(["eval", "--config", config, "--image", str(tmp_path / "absent.pgm")])
        assert rc == 3


class TestCheckHardware:
    def test_fits(self, workspace, capsys):
        tmp_path, config = workspace
        rc = main(["check-hardware", "--config", config, "--max-clique", "180"])
        assert rc == 0
        assert "fits a clique limit of 180" in capsys.readouterr().out

    def test_does_not_fit(self, workspace, capsys):
        tmp_path, config = workspace
        with pytest.warns(UserWarning):
            rc = main(["check-hardware", "--config", config, "--max-clique", "8"])
        assert rc == 0
        assert "does not fit" in capsys.readouterr().out


class TestExportCsv:
    def test_exports_rows(self, workspace, capsys):
        tmp_path, config = workspace
        out = tmp_path / "export.csv"
        rc = main(["export-csv", "--dataset", str(tmp_path / "data.txt"), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bits,label,provenance"
        assert len(lines) == 51
        bits, label, tag = lines[1].split(",")
        assert set(bits) <= {"0", "1"} and len(bits) == 16
        float(label)
        assert tag == "random"

    def test_tags_with_commas_and_quotes_are_quoted(self, tmp_path):
        data = lq.LabeledDataset(X=[[0, 1], [1, 0], [1, 1]], Y=[0.5, 0.25, 1.0],
                                 provenance=("a,b", 'say"hi"', "plain"))
        lq.save_dataset(data, tmp_path / "data.txt")
        out = tmp_path / "export.csv"
        assert main(["export-csv", "--dataset", str(tmp_path / "data.txt"), "--out", str(out)]) == 0
        assert out.read_bytes().splitlines(keepends=True)[1:] == [
            b'01,0.5,"a,b"\n', b'10,0.25,"say""hi"""\n', b"11,1,plain\n"]
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1:] == [["01", "0.5", "a,b"], ["10", "0.25", 'say"hi"'], ["11", "1", "plain"]]

    def test_missing_dataset(self, tmp_path):
        rc = main(
            ["export-csv", "--dataset", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "corpus.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "latentqubo", "gen-corpus", "--kind", "stripes",
             "--count", "4", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
