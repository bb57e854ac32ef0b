"""Blockwise random-walk Metropolis over the same posterior as the
variational fit, for desk-scale validation.

Blocks: fixed-effect weights, the unconstrained index parameter, log
dispersion, log random-effect scale, and the per-group intercepts.
Proposals are Gaussian per block with step sizes auto-tuned during
burn-in toward a target acceptance rate.

The model's target comes in two parts: the Tweedie data log likelihood,
which the random-effect scale does not enter, and the priors.  The
sampler keeps the accepted state's data term, so a log random-effect
scale proposal costs a prior evaluation only.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .model import (
    Dataset,
    data_log_likelihood,
    draws_schema,
    globals_log_prior,
    intercept_log_prior,
    model_log_likelihood_value,
)
from .tweedie import TruncationConfig

BLOCK_ORDER = ("w", "raw_p", "raw_log_dispersion", "raw_log_sigma_b", "b")


class ChainConfigError(ValueError):
    """Chain settings violate their invariants."""


def _default_step_sizes() -> dict:
    return {
        "w": 0.05,
        "raw_p": 0.2,
        "raw_log_dispersion": 0.2,
        "raw_log_sigma_b": 0.5,
        "b": 0.1,
    }


@dataclass
class ChainConfig:
    """Random-walk Metropolis settings."""

    step_sizes: dict = field(default_factory=_default_step_sizes)
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 10
    seed: int = 0
    tune: bool = True
    tune_interval: int = 100
    target_acceptance: float = 0.25

    def __post_init__(self):
        if self.burn_in >= self.iterations:
            raise ChainConfigError(
                f"burn_in ({self.burn_in}) must be < iterations ({self.iterations})"
            )
        if self.thinning < 1:
            raise ChainConfigError("thinning must be >= 1")
        for name, step in self.step_sizes.items():
            if step <= 0:
                raise ChainConfigError(f"step size for block {name!r} must be > 0")

    def to_dict(self) -> dict:
        return {
            "step_sizes": dict(self.step_sizes),
            "iterations": self.iterations,
            "burn_in": self.burn_in,
            "thinning": self.thinning,
            "seed": self.seed,
            "tune": self.tune,
            "tune_interval": self.tune_interval,
            "target_acceptance": self.target_acceptance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChainConfig":
        return cls(**d)


@dataclass
class ChainResult:
    """Retained draws per block plus per-block acceptance rates."""

    draws: dict
    acceptance: dict

    def __post_init__(self):
        for name, rate in self.acceptance.items():
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"acceptance rate for {name!r} outside [0, 1]: {rate}")

    @property
    def retained(self) -> int:
        return next(iter(self.draws.values())).shape[0]

    def to_json_dict(self) -> dict:
        """The retained draws in :func:`model.draws_schema`, the schema FitResult stores."""
        raw = np.concatenate([self.draws["w"], self.draws["raw_p"],
                              self.draws["raw_log_dispersion"], self.draws["raw_log_sigma_b"]],
                             axis=1)
        b = self.draws.get("b", np.empty((self.retained, 0)))
        return {
            "metadata": {"sampler": "random-walk metropolis"},
            "draws": {k: np.asarray(v).tolist() for k, v in draws_schema(raw, b).items()},
            "acceptance": {k: float(v) for k, v in self.acceptance.items()},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def log_unnormalized_posterior(data: Dataset, raw: np.ndarray, b: np.ndarray,
                               t: TruncationConfig) -> float:
    """Model log likelihood plus :func:`model.globals_log_prior` of the raw globals.

    ``raw`` and ``b`` are as in :func:`model.model_log_likelihood_value`.
    Shares the likelihood code path with the variational fit, and the
    prior with the critic's prior batches.
    """
    return model_log_likelihood_value(data, raw, b, t) + globals_log_prior(raw)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def run_chain_generic(log_target: Callable[[dict], float], init: dict,
                      cfg: ChainConfig) -> ChainResult:
    """Blockwise Gaussian-proposal Metropolis over a dict-valued state.

    Deterministic given the seed.  Acceptance uses the detailed-balance
    rule min(1, exp(delta log target)).  During burn-in, step sizes are
    re-scaled every ``tune_interval`` iterations toward the target
    acceptance rate.
    """
    return _run_blocks(log_target, lambda state, data_value: data_value, (), init, cfg)


def _run_blocks(data_term: Callable[[dict], float],
                log_target: Callable[[dict, float], float],
                data_free: tuple, init: dict, cfg: ChainConfig) -> ChainResult:
    """:func:`run_chain_generic` over a target split in two parts.

    ``data_term(state)`` is the costly part and ``log_target(state, data_value)``
    the whole log target given its value.  A proposal in a block named in
    ``data_free``, which ``data_term`` does not read, reuses the accepted
    state's data term.
    """
    rng = np.random.default_rng(cfg.seed)
    state = {k: np.atleast_1d(np.asarray(v, dtype=float)).copy() for k, v in init.items()}
    blocks = [k for k in BLOCK_ORDER if k in state] + [k for k in state if k not in BLOCK_ORDER]
    steps = {k: float(cfg.step_sizes.get(k, 0.1)) for k in blocks}
    current_data_value = data_term(state)
    current_lp = log_target(state, current_data_value)
    if not math.isfinite(current_lp):
        raise ValueError("log target is non-finite at the initial state")

    accepted = {k: 0 for k in blocks}
    proposed = {k: 0 for k in blocks}
    tune_accepted = {k: 0 for k in blocks}
    tune_proposed = {k: 0 for k in blocks}
    kept: dict[str, list] = {k: [] for k in blocks}

    for it in range(cfg.iterations):
        in_burn = it < cfg.burn_in
        for name in blocks:
            proposal = state[name] + steps[name] * rng.standard_normal(state[name].shape)
            old = state[name]
            state[name] = proposal
            data_value = current_data_value if name in data_free else data_term(state)
            lp = log_target(state, data_value)
            accept = math.isfinite(lp) and math.log(rng.random()) < lp - current_lp
            if accept:
                current_lp, current_data_value = lp, data_value
            else:
                state[name] = old
            if in_burn:
                tune_proposed[name] += 1
                tune_accepted[name] += int(accept)
            else:
                proposed[name] += 1
                accepted[name] += int(accept)
        if cfg.tune and in_burn and (it + 1) % cfg.tune_interval == 0:
            for name in blocks:
                if tune_proposed[name]:
                    rate = tune_accepted[name] / tune_proposed[name]
                    steps[name] *= math.exp(rate - cfg.target_acceptance)
                tune_accepted[name] = 0
                tune_proposed[name] = 0
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            for name in blocks:
                kept[name].append(state[name].copy())

    acceptance = {
        k: (accepted[k] / proposed[k]) if proposed[k] else 0.0 for k in blocks
    }
    for name, rate in acceptance.items():
        if rate < 0.01:
            warnings.warn(
                f"block {name!r} accepted {rate:.3%} of proposals; "
                f"reduce its step size (current {steps[name]:.3g})",
                RuntimeWarning,
            )
    draws = {k: np.asarray(v) for k, v in kept.items()}
    return ChainResult(draws=draws, acceptance=acceptance)


def run_chain(data: Dataset, cfg: ChainConfig,
              t: Optional[TruncationConfig] = None,
              include_likelihood: bool = True) -> ChainResult:
    """Sample the Tweedie mixed-model posterior for a dataset.

    The state's blocks are the raw globals of :func:`model.split_raw_globals`
    (w, raw_p, raw_log_dispersion, raw_log_sigma_b) and the intercepts b.
    The target is :func:`log_unnormalized_posterior` of that raw vector
    and b, the posterior that AVB fits, summed in the same order, in two
    parts: the data term (:func:`model.data_log_likelihood`, which reads
    w, raw_p, raw_log_dispersion and b) and the priors (the intercept
    prior and :func:`model.globals_log_prior`).  A raw_log_sigma_b
    proposal reuses the accepted state's data term.  A part that raises a
    numerical error makes the log target -inf.  With
    ``include_likelihood=False`` the chain targets the priors alone, which
    is the stationarity smoke test.
    """
    t = t or TruncationConfig()
    d1 = data.n_covariates + 1
    g = data.group_count

    def data_term(state: dict) -> float:
        try:
            return data_log_likelihood(
                data, state["w"], state.get("b"), 1.0 + float(expit(state["raw_p"][0])),
                math.exp(float(state["raw_log_dispersion"][0])), t)
        except (OverflowError, FloatingPointError, ValueError):
            return -math.inf

    def log_target(state: dict, data_value: float) -> float:
        raw = np.concatenate([state["w"], state["raw_p"], state["raw_log_dispersion"],
                              state["raw_log_sigma_b"]])
        try:
            if g:
                data_value += intercept_log_prior(
                    state["b"], math.exp(float(state["raw_log_sigma_b"][0])))
            return data_value + globals_log_prior(raw)
        except (OverflowError, FloatingPointError, ValueError):
            return -math.inf

    init = {
        "w": np.zeros(d1),
        "raw_p": np.zeros(1),
        "raw_log_dispersion": np.zeros(1),
        "raw_log_sigma_b": np.zeros(1),
    }
    if g:
        init["b"] = np.zeros(g)
    if not include_likelihood:
        return _run_blocks(lambda state: 0.0, log_target, tuple(init), init, cfg)
    return _run_blocks(data_term, log_target, ("raw_log_sigma_b",), init, cfg)
