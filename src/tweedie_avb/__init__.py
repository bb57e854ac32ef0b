"""Bayesian Tweedie compound Poisson-Gamma mixed models fitted by
adversarial variational inference, with an MCMC validator and ordered
Lorenz curve evaluation."""

from .avb import FitResult, TrainConfig, TrainingAbortError, posterior_predict, train
from .data import SchemaConfig, SimTruth, SplitSpec, load_csv, simulate_dataset, split_dataset
from .evaluation import gini, gini_index, ordered_lorenz, pairwise_gini_matrix
from .mcmc import ChainConfig, ChainResult, run_chain
from .model import Dataset, model_log_likelihood_value
from .tweedie import (
    CompoundParams,
    EdmParams,
    joint_log_density,
    marginal_log_likelihood,
    series_log_density_oracle,
    to_compound,
    to_edm,
    tweedie_moments,
    tweedie_sample,
)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ChainResult",
    "CompoundParams",
    "Dataset",
    "EdmParams",
    "FitResult",
    "SchemaConfig",
    "SimTruth",
    "SplitSpec",
    "TrainConfig",
    "TrainingAbortError",
    "gini",
    "gini_index",
    "joint_log_density",
    "load_csv",
    "marginal_log_likelihood",
    "model_log_likelihood_value",
    "ordered_lorenz",
    "pairwise_gini_matrix",
    "posterior_predict",
    "run_chain",
    "series_log_density_oracle",
    "simulate_dataset",
    "split_dataset",
    "to_compound",
    "to_edm",
    "train",
    "tweedie_moments",
    "tweedie_sample",
]
