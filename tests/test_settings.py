import math
import re
from dataclasses import fields

import numpy as np
import pytest

import latentqubo as lq
from latentqubo import cli
from latentqubo._settings import ConfigError, count, flag, real

OBJECTIVE = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=1.0)

# a valid instance's arguments for each configuration class whose numbers the guard walks
VALID = {
    lq.PipelineConfig: dict(
        latent_bits=16, fm_rank=4, objective=OBJECTIVE, bvae_checkpoint="bvae.txt",
        dataset_path="data.txt", output_dir="out",
    ),
    lq.AnnealSchedule: {},
    lq.FmTrainConfig: {},
    lq.TemperatureSchedule: {},
    lq.ProductEfficiencyObjective: dict(target_fill=0.5, smoothness_weight=1.0),
}
BAD = {"int": (2.5, -1, True), "float": (math.nan, math.inf, -math.inf, True),
       "bool": ("false", 1, None)}


def numeric_fields(cls):
    """(name, kind) for each int, float or bool field of cls; kind is the type's name."""
    kinds = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    return [(name, kind) for name, kind in kinds.items() if kind in BAD]


@pytest.mark.parametrize(
    "cls, name, value",
    [(cls, name, value) for cls in VALID for name, kind in numeric_fields(cls)
     for value in BAD[kind]],
    ids=lambda item: getattr(item, "__name__", str(item)),
)
def test_every_numeric_field_refuses_a_bad_number(cls, name, value):
    cls(**VALID[cls])
    with pytest.raises(ValueError, match=name):
        cls(**{**VALID[cls], name: value})


def test_a_bool_field_takes_numpy_bools_as_bools():
    config = lq.PipelineConfig(**VALID[lq.PipelineConfig], warm_start_fm=np.False_)
    assert config.warm_start_fm is False


def test_the_guard_sees_numbers_in_every_class():
    # field types are annotation strings or types; either way each class has numbers to walk
    assert all(numeric_fields(cls) for cls in VALID)


def test_the_command_line_reports_the_rules_error():
    assert cli.ConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)


class TestRules:
    def test_counts(self):
        assert count("n", 3) == 3
        assert count("n", np.int64(0), low=0) == 0
        assert count("n", 16, high=16) == 16
        for value, message in [
            (0, "n must be an integer >= 1, got 0"),
            (2.5, "n must be an integer >= 1, got 2.5"),
            ("3", "n must be an integer >= 1, got '3'"),
            (np.float64(1.0), "n must be an integer >= 1"),
        ]:
            with pytest.raises(ConfigError, match=message):
                count("n", value)
        with pytest.raises(ConfigError, match=r"n must be an integer in \[1, 3\], got 4"):
            count("n", 4, high=3)

    def test_reals(self):
        assert real("x", 2) == 2.0
        assert real("x", np.float32(0.5), 0, 1, strict=True) == 0.5
        assert real("x", 0.0, 0) == 0.0
        for value, bounds, message in [
            (math.nan, {}, "x must be a finite real, got nan"),
            (-math.inf, {}, "x must be a finite real, got -inf"),
            (math.inf, dict(low=0), "x must be a finite real >= 0, got inf"),
            (0.0, dict(low=0, strict=True), "x must be a finite real > 0, got 0.0"),
            (1.0, dict(low=0, high=1, strict=True), r"x must be a finite real in \(0, 1\)"),
            (-0.5, dict(low=0, high=1), r"x must be a finite real in \[0, 1\], got -0.5"),
            ("0.5", {}, "x must be a finite real, got '0.5'"),
        ]:
            with pytest.raises(ConfigError, match=message):
                real("x", value, **bounds)

    def test_flags(self):
        assert flag("f", True) is True
        assert flag("f", np.bool_(False)) is False
        for value in ("false", 0, 1.0, None, np.int64(1)):
            with pytest.raises(ConfigError, match=re.escape(f"f must be a bool, got {value!r}")):
                flag("f", value)


def tiny_model():
    arch = lq.BvaeArchitecture(image_side=4, latent_bits=4, encoder_hidden=(8, 6),
                               decoder_hidden=(6, 8))
    params = {name: np.zeros(shape) for name, shape in arch.layer_shapes().items()}
    return lq.BvaeModel(architecture=arch, params=params, tau=1.0)


def pool():
    return lq.LabeledDataset(X=np.eye(4, dtype=np.uint8), Y=np.full(4, 0.5),
                             provenance=("random",) * 4)


# each library call takes one bad number and must name it in a ConfigError
BAD_CALLS = {
    "fractions": lambda: lq.StratificationSpec(bands=((0.0, 1.0),), fractions=(math.nan,)),
    "split": lambda: lq.FmTrainConfig(split=(0.5, math.nan, 0.5)),
    "split must be a sequence": lambda: lq.FmTrainConfig(split=0.7),
    "fractions must be a sequence": lambda: lq.StratificationSpec(bands=((0.0, 1.0),),
                                                                  fractions=0.5),
    "bands": lambda: lq.StratificationSpec(bands=((0.0, math.inf),), fractions=(1.0,)),
    "bands must be a sequence": lambda: lq.StratificationSpec(bands=0.5, fractions=(1.0,)),
    "bands must be pairs": lambda: lq.StratificationSpec(bands=(0.5,), fractions=(1.0,)),
    "total": lambda: lq.stratify_dataset(pool(), lq.StratificationSpec(((0.0, 1.0),), (1.0,)),
                                         total=-3, seed=0),
    "seed": lambda: lq.generate_toy_corpus("half_planes", m=4, count=2, seed=-1),
    "side m": lambda: lq.generate_toy_corpus("half_planes", m=3, count=2, seed=0),
    "count": lambda: lq.build_latent_dataset(tiny_model(), OBJECTIVE, count=0, seed=0),
    "blur": lambda: lq.build_latent_dataset(tiny_model(), OBJECTIVE, count=2, seed=0,
                                            blur=math.nan),
    "copies": lambda: lq.bit_flip_augment(np.zeros(4, dtype=np.uint8), copies=2.5, seed=0),
    "max_clique": lambda: lq.check_hardware_feasibility(
        lq.PipelineConfig(**VALID[lq.PipelineConfig]), max_clique=0),
    "margin": lambda: lq.apply_label_transform([0.5], margin=math.inf),
    "epoch": lambda: lq.anneal_tau(lq.TemperatureSchedule(), epoch=1.5),
    "tau": lambda: lq.gumbel_softmax(np.zeros((1, 1, 2)), math.inf, np.zeros((1, 1, 2))),
    "encoder_hidden": lambda: lq.BvaeArchitecture(image_side=4, latent_bits=4,
                                                  encoder_hidden=(8, 2.5)),
    "encoder_hidden must be a sequence": lambda: lq.BvaeArchitecture(4, 2, encoder_hidden=5),
    "image_side": lambda: lq.BvaeArchitecture(image_side=1, latent_bits=4),
    "batch_size": lambda: lq.bvae_train(np.zeros((2, 4, 4)), tiny_model().architecture,
                                        epochs=1, seed=0, batch_size=0),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_a_bad_argument_is_a_configuration_error_naming_it(name):
    with pytest.raises(ConfigError, match=name):
        BAD_CALLS[name]()
