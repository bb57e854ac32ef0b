"""Per-observation Tweedie parameters from data and latent draws.

A dataset couples a nonnegative response with a fixed-effect design
matrix and a group index for the random intercept.  A draw of the latents
is one vector of raw globals (fixed-effect weights, unconstrained index
parameter, log dispersion, log random-effect scale; laid out by
:func:`split_raw_globals`) plus explicit per-group intercepts ``b``.
Constraint maps: p_index = 1 + sigmoid(raw), dispersion = exp(raw),
sigma_b = exp(raw); the link is log.  :func:`draws_schema` applies them
to rows of draws, in the schema that fitted and sampled draws are stored in.

The log likelihood has one formula, the numpy Tweedie density.  The MCMC
validator calls :func:`data_log_likelihood` for the data term and adds
the priors itself; :func:`model_log_likelihood_value` adds the intercept
prior to it; the variational trainer calls :func:`log_likelihood_partials`
for the value and the density's analytic partials chained through the
linear predictor and the constraint maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import expit
from .tweedie import (
    LOG_2PI,
    InvalidParameterError,
    tweedie_log_pdf,
    tweedie_log_pdf_partials,
)

ETA_OVERFLOW_LIMIT = 30.0


class ShapeError(ValueError):
    """Array dimensions disagree with the dataset structure."""


class FlaggedObservationError(ValueError):
    """A linear predictor overflowed the log link for a known row."""

    def __init__(self, index: int, eta: float):
        self.index = index
        self.eta = eta
        super().__init__(f"linear predictor eta={eta:.3g} at row {index} exceeds +/-{ETA_OVERFLOW_LIMIT}")


@dataclass
class Dataset:
    """Observed rows: response, fixed-effect design, group membership."""

    responses: np.ndarray
    fixed_design: np.ndarray
    group_index: np.ndarray
    group_count: int
    column_names: list[str] = field(default_factory=list)
    group_levels: list[str] | None = None  # original labels, sorted, when loaded from CSV

    def __post_init__(self):
        self.responses = np.asarray(self.responses, dtype=float)
        self.fixed_design = np.asarray(self.fixed_design, dtype=float)
        self.group_index = np.asarray(self.group_index, dtype=int)
        m = self.responses.shape[0]
        if self.fixed_design.ndim != 2 or self.fixed_design.shape[0] != m:
            raise ShapeError(f"fixed_design must be ({m}, D), got {self.fixed_design.shape}")
        if self.group_index.shape != (m,):
            raise ShapeError(f"group_index must have length {m}")
        if (self.responses < 0).any():
            raise InvalidParameterError("responses must be nonnegative")
        if self.group_count > 0 and self.group_index.size and self.group_index.max() >= self.group_count:
            raise ShapeError("group index out of range")
        if self.group_index.size and self.group_index.min() < 0:
            raise ShapeError("group index must be nonnegative")

    @property
    def n_obs(self) -> int:
        return self.responses.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.fixed_design.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            responses=self.responses[rows],
            fixed_design=self.fixed_design[rows],
            group_index=self.group_index[rows],
            group_count=self.group_count,
            column_names=list(self.column_names),
            group_levels=self.group_levels,
        )


def split_raw_globals(raw: np.ndarray, n_covariates: int):
    """(fixed_weights, raw_p, raw_log_dispersion, raw_log_sigma_b), split on the last axis."""
    d1 = n_covariates + 1
    return raw[..., :d1], raw[..., d1], raw[..., d1 + 1], raw[..., d1 + 2]


def _split_checked(data: Dataset, raw: np.ndarray):
    """:func:`split_raw_globals` of one raw vector, checked against the dataset."""
    d1 = data.n_covariates + 1
    if raw.shape != (d1 + 3,):
        raise ShapeError(f"raw globals must be {d1} fixed weights and 3 scalars, got {raw.shape}")
    return split_raw_globals(raw, data.n_covariates)


def draws_schema(raw: np.ndarray, b: np.ndarray) -> dict:
    """Rows of raw globals (n, D+4) and intercepts (n, G) as stored draws.

    Applies the constraint maps: ``fixed_weights`` (n, D+1), ``p_index``,
    ``dispersion`` and ``sigma_b`` (n,), ``b`` (n, G).  The variational
    fit's draws and the MCMC chain's JSON both come from here.
    """
    w, raw_p, raw_log_dispersion, raw_log_sigma_b = split_raw_globals(raw, raw.shape[-1] - 4)
    return {"fixed_weights": w, "p_index": 1.0 + expit(raw_p),
            "dispersion": np.exp(raw_log_dispersion), "sigma_b": np.exp(raw_log_sigma_b),
            "b": b}


# ---------------------------------------------------------------------------
# Predictor assembly
# ---------------------------------------------------------------------------

def linear_predictor(data: Dataset, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """eta_i = w_0 + X_i . w_1:D + b[group_i] (numpy path)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (data.n_covariates + 1,):
        raise ShapeError(f"w must have length {data.n_covariates + 1}, got {w.shape}")
    eta = w[0] + data.fixed_design @ w[1:]
    if data.group_count > 0:
        b = np.asarray(b, dtype=float)
        if b.shape != (data.group_count,):
            raise ShapeError(f"b must have length {data.group_count}, got {b.shape}")
        eta = eta + b[data.group_index]
    return eta


# ---------------------------------------------------------------------------
# Log likelihood
# ---------------------------------------------------------------------------

def _check_overflow(eta: np.ndarray) -> None:
    """Raise for the first |eta| past the limit; rows are eta's last axis."""
    big = np.abs(eta) > ETA_OVERFLOW_LIMIT
    if big.any():
        at = np.unravel_index(np.argmax(big), big.shape)
        raise FlaggedObservationError(int(at[-1]), float(eta[at]))


def intercept_log_prior(b: np.ndarray, sigma_b: float) -> float:
    """sum_g log N(b_g; 0, sigma_b^2)."""
    # (b / sigma_b) ** 2 stays 0 at b = 0 when sigma_b ** 2 underflows; past the
    # float range it is inf, and the log prior -inf
    with np.errstate(over="ignore"):
        return float(np.sum(-0.5 * LOG_2PI - math.log(sigma_b) - 0.5 * (b / sigma_b) ** 2))


def globals_log_prior(raw: np.ndarray):
    """sum_k log N(raw_k; 0, 1) over the last axis: the prior over the raw globals.

    ``raw`` is laid out as in :func:`split_raw_globals`; one vector gives a
    scalar, a batch one value per row.  This is the one prior of the model's
    globals: AVB's critic tells posterior draws apart from
    :func:`sample_globals_prior`'s batches, and the MCMC chain's target adds
    this term, so both target the same posterior.  The paper's flexible
    hyper prior is not implemented; if it is ever added, it must enter the
    chain's target too, or the chain checks a different posterior.
    """
    return np.sum(-0.5 * LOG_2PI - 0.5 * raw ** 2, axis=-1)


def sample_globals_prior(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim) draws from :func:`globals_log_prior`'s standard normal."""
    return rng.standard_normal((count, dim))


def data_log_likelihood(data: Dataset, w: np.ndarray, b, p: float, phi: float) -> float:
    """sum_i log Tweedie(y_i; mu_i, p, phi) with mu = exp(:func:`linear_predictor`)."""
    eta = linear_predictor(data, np.asarray(w, dtype=float), b)
    _check_overflow(eta)
    return float(tweedie_log_pdf(data.responses, np.exp(eta), p, phi).sum())


def model_log_likelihood_value(data: Dataset, raw: np.ndarray, b: np.ndarray) -> float:
    """:func:`data_log_likelihood` plus the random-intercept prior term (numpy).

    ``raw`` holds the raw globals in the layout of :func:`split_raw_globals`
    and ``b`` the intercept values (ignored without groups), as in
    :func:`log_likelihood_partials`.
    """
    w, raw_p, raw_log_dispersion, raw_log_sigma_b = _split_checked(data, raw)
    p = 1.0 + expit(raw_p)
    phi = math.exp(raw_log_dispersion)
    sigma_b = math.exp(raw_log_sigma_b)
    data_term = data_log_likelihood(data, w, b, p, phi)
    prior_term = 0.0
    if data.group_count > 0:
        prior_term = intercept_log_prior(np.asarray(b, dtype=float), sigma_b)
    return data_term + prior_term


def log_likelihood_partials(data: Dataset, raw: np.ndarray, b: np.ndarray,
                            data_scale: float = 1.0):
    """Value of :func:`model_log_likelihood_value` and its partials.

    ``raw`` holds the raw globals in the layout of :func:`split_raw_globals`
    and ``b`` the intercept values (ignored without groups).  Returns
    ``(value, d_raw, d_b)`` with ``d_raw`` aligned with ``raw`` and ``d_b``
    with ``b``; the intercept prior term reaches ``b`` and raw_log_sigma_b
    directly, so a caller whose ``b`` depends on sigma_b chains ``d_b``
    through that dependence itself.  ``data_scale`` multiplies the data
    terms only.  A p_index rounding to 1 or 2 raises InvalidParameterError,
    as in :func:`model_log_likelihood_value`.
    """
    d1 = data.n_covariates + 1
    w, raw_p, raw_log_dispersion, raw_log_sigma_b = _split_checked(data, raw)
    s = expit(raw_p)  # = p - 1
    eta = linear_predictor(data, w, b)
    _check_overflow(eta)
    log_pdf, d_eta, d_p, d_log_phi = tweedie_log_pdf_partials(
        data.responses, np.exp(eta), 1.0 + s, math.exp(raw_log_dispersion))
    value = data_scale * float(log_pdf.sum())
    d_eta = data_scale * d_eta
    d_raw = np.zeros(d1 + 3)
    d_raw[0] = d_eta.sum()
    d_raw[1:d1] = data.fixed_design.T @ d_eta
    d_raw[d1] = s * (1.0 - s) * data_scale * float(d_p.sum())
    d_raw[d1 + 1] = data_scale * float(d_log_phi.sum())
    d_b = np.zeros(0)
    if data.group_count > 0:
        sigma_b = math.exp(raw_log_sigma_b)
        value += intercept_log_prior(b, sigma_b)
        # b / sigma_b first: sigma_b ** 2 underflows to 0 below log sigma_b ~ -354;
        # where the value is -inf (b / sigma_b past the float range) the partials are infinite
        with np.errstate(over="ignore"):
            scaled = b / sigma_b
            d_b = np.bincount(data.group_index, d_eta, data.group_count) - scaled / sigma_b
            d_raw[d1 + 2] = float(scaled @ scaled) - data.group_count
    return value, d_raw, d_b
