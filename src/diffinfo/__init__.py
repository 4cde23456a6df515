"""Information decomposition for denoising models.

Exact negative log-likelihoods, pointwise and average (conditional) mutual
information, per-dimension information heatmaps, and probability-flow
encode/decode/intervention, all driven by a pluggable noise-prediction
interface and verified against closed-form Gaussian and mixture oracles.
"""

from .channel import LogSnrSampler, corrupt, noise_weight, signal_weight
from .checkpoint import load_checkpoint, save_checkpoint
from .denoise import ConditionId, GmmDenoiser, GmmSpec, gmm_mmse
from .estimators import (
    InfoReport,
    aggregate_reports,
    nll,
    pointwise_dataset,
    pointwise_o,
    pointwise_s,
)
from .flow import InterventionResult, SolverConfig, SolverError, decode, encode, intervene
from .mlp import MlpDenoiser, MlpTrainConfig, TrainingDivergedError, train_mlp
from .oracle import (
    OracleResult,
    QuadratureError,
    gaussian_mi,
    gaussian_pointwise,
    gmm_mi_numeric,
    mmse_gaussian,
)
from .tasks import (
    evaluate_ranking,
    intervention_correlation,
    iou,
    rank_conditions,
    sweep_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionId",
    "GmmDenoiser",
    "GmmSpec",
    "InfoReport",
    "InterventionResult",
    "LogSnrSampler",
    "MlpDenoiser",
    "MlpTrainConfig",
    "OracleResult",
    "QuadratureError",
    "SolverConfig",
    "SolverError",
    "TrainingDivergedError",
    "aggregate_reports",
    "corrupt",
    "decode",
    "encode",
    "evaluate_ranking",
    "gaussian_mi",
    "gaussian_pointwise",
    "gmm_mi_numeric",
    "gmm_mmse",
    "intervene",
    "intervention_correlation",
    "iou",
    "load_checkpoint",
    "mmse_gaussian",
    "nll",
    "noise_weight",
    "pointwise_dataset",
    "pointwise_o",
    "pointwise_s",
    "rank_conditions",
    "save_checkpoint",
    "signal_weight",
    "sweep_threshold",
    "train_mlp",
]
