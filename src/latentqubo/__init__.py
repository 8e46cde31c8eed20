"""Latent-space QUBO optimization.

Compresses pixelated design patterns into binary latent vectors with a
variational autoencoder, fits a factorization-machine surrogate whose
second-order form is exactly a QUBO, and improves designs by repeatedly
sampling low-energy vectors and retraining on their true scores.
"""

from .bvae import (
    BvaeArchitecture,
    BvaeModel,
    LossBreakdown,
    TemperatureSchedule,
    TrainCurves,
    anneal_tau,
    bernoulli_kl,
    bvae_loss,
    bvae_loss_and_grads,
    bvae_train,
    decode,
    encode,
    gumbel_softmax,
    load_bvae,
    reconstruction_accuracy,
    sample_gumbel_noise,
    save_bvae,
)
from .dataset import LabeledDataset, load_dataset, save_dataset
from .fm import (
    FmModel,
    FmTrainConfig,
    FmTrainReport,
    LabelTransform,
    apply_label_transform,
    fm_gradients,
    fm_predict,
    fm_predict_batch,
    fm_to_qubo,
    fm_train,
    load_fm,
    save_fm,
)
from .images import load_images, load_pgm, save_images, save_pgm
from .objectives import (
    CORPUS_KINDS,
    FigureOfMerit,
    ProductEfficiencyObjective,
    StratificationSpec,
    TargetOverlapObjective,
    build_latent_dataset,
    evaluate_fom,
    generate_toy_corpus,
    stratify_dataset,
)
from .pipeline import (
    ConvergenceRecord,
    PipelineConfig,
    RunState,
    bit_flip_augment,
    check_hardware_feasibility,
    fit_and_sample,
    run_iteration,
    run_pipeline,
    write_convergence_csv,
)
from .qubo import (
    ConnectivityReport,
    IsingProblem,
    QuboProblem,
    analyze_connectivity,
    as_binary_vector,
    as_spin_vector,
    binary_to_spin,
    ising_energy,
    ising_to_qubo,
    load_ising,
    load_qubo,
    qubo_energy,
    qubo_to_ising,
    save_ising,
    save_qubo,
    spin_to_binary,
)
from .samplers import (
    AnnealSchedule,
    SampleEntry,
    SampleSet,
    brute_force_sample,
    incremental_delta,
    simulated_annealing_sample,
)

__version__ = "0.1.0"
