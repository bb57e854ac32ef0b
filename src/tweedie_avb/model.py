"""Per-observation Tweedie parameters from data and latent draws.

A dataset couples a nonnegative response with a fixed-effect design
matrix and a group index for the random intercept.  This module alone
knows what a draw ``(raw, b)`` of the latents is; the trainer and the
MCMC chain read draws through its one layout (:func:`raw_blocks`: D+1
fixed-effect weights, then raw_p, raw_log_dispersion, raw_log_sigma_b),
its one constraint map (:func:`constrain`: p_index = 1 + expit(raw_p),
dispersion and sigma_b = exp(raw); the link is log) and its one set of
likelihood failures (:data:`LIKELIHOOD_FAILURES`).

The log likelihood has one formula, the numpy Tweedie density.
:func:`model_log_likelihood_value` sums it at :func:`edm_parameters` and adds
the intercept prior; the MCMC validator's target adds the globals prior to
that (its sampler composes the density's parts at :func:`edm_parameters`);
the variational trainer calls :func:`log_likelihood_partials` for the value
and the density's analytic partials chained through the linear predictor
and the constraint map.
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


#: The likelihood failures at a draw, which training turns into a typed abort and the
#: chain's target into -inf: eta past the log link's limit; (InvalidParameterError)
#: p_index rounding to 1 or 2, sigma_b underflowing to 0, u + v over- or underflowing,
#: or a latent-count series past its term budget; and (ArithmeticError) ``exp`` of a
#: raw log scale past ~709.  Any other error, a ShapeError say, is a bug and propagates.
LIKELIHOOD_FAILURES = (FlaggedObservationError, InvalidParameterError, ArithmeticError)


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
        if not np.isfinite(self.responses).all() or (self.responses < 0).any():
            raise InvalidParameterError("responses must be finite and nonnegative")
        if not np.isfinite(self.fixed_design).all():
            raise InvalidParameterError("fixed_design must be finite")
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


def raw_size(n_covariates: int) -> int:
    """Entries of one raw-globals vector: D+1 fixed weights and three scalars."""
    return n_covariates + 4


def raw_blocks(n_covariates: int) -> dict:
    """The layout of a raw-globals vector: each raw global's slice of it, in order."""
    d1 = n_covariates + 1
    return {"w": slice(0, d1), "raw_p": slice(d1, d1 + 1),
            "raw_log_dispersion": slice(d1 + 1, d1 + 2), "raw_log_sigma_b": slice(d1 + 2, d1 + 3)}


def split_raw_globals(raw: np.ndarray, n_covariates: int):
    """(fixed_weights, raw_p, raw_log_dispersion, raw_log_sigma_b) on the last axis, as laid out."""
    d1 = n_covariates + 1
    if raw.shape[-1:] != (raw_size(n_covariates),):
        raise ShapeError(f"raw globals must be {d1} fixed weights and 3 scalars, got {raw.shape}")
    return raw[..., :d1], raw[..., d1], raw[..., d1 + 1], raw[..., d1 + 2]


def constrain(raw: np.ndarray, n_covariates: int, groups: bool = True):
    """(fixed_weights, p_index, dispersion, sigma_b, s) of raw globals: the constraint map.

    p_index = 1 + s with s = expit(raw_p), kept for dp_index/draw_p = s (1 - s)
    (p_index - 1 loses its low bits).  One draw (1-D ``raw``) takes ``math.exp``,
    which raises OverflowError past ~709; rows of draws take ``np.exp``.
    ``sigma_b`` is None unless ``groups``, so group-free data never read it.
    """
    w, raw_p, raw_log_dispersion, raw_log_sigma_b = split_raw_globals(raw, n_covariates)
    exp = math.exp if raw.ndim == 1 else np.exp
    s = expit(raw_p)
    return w, 1.0 + s, exp(raw_log_dispersion), exp(raw_log_sigma_b) if groups else None, s


def draws_schema(raw: np.ndarray, b: np.ndarray) -> dict:
    """Rows of raw globals (n, D+4) and intercepts (n, G) through :func:`constrain`, as stored.

    The variational fit's draws and the MCMC chain's JSON both come from here.
    """
    w, p, phi, sigma_b, _ = constrain(raw, raw.shape[-1] - raw_size(0))
    return {"fixed_weights": w, "p_index": p, "dispersion": phi, "sigma_b": sigma_b, "b": b}


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


def intercept_log_prior_terms(data: Dataset, raw: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log N(b_g; 0, sigma_b^2) per group of a draw; empty without groups, which never read sigma_b.

    Raises InvalidParameterError where sigma_b underflows to 0 (raw_log_sigma_b below ~-745).
    """
    if data.group_count == 0:
        return np.zeros(0)
    _, _, _, sigma_b, _ = constrain(raw, data.n_covariates)
    if sigma_b == 0.0:
        raise InvalidParameterError("sigma_b underflows to 0")
    # (b / sigma_b) ** 2 stays 0 at b = 0 when sigma_b ** 2 underflows; past the
    # float range it is inf, and the group's log prior -inf
    with np.errstate(over="ignore"):
        return -0.5 * LOG_2PI - math.log(sigma_b) - 0.5 * (b / sigma_b) ** 2


def intercept_log_prior(data: Dataset, raw: np.ndarray, b: np.ndarray) -> float:
    """sum_g log N(b_g; 0, sigma_b^2) of a draw: the sum of :func:`intercept_log_prior_terms`."""
    return float(np.sum(intercept_log_prior_terms(data, raw, b)))


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


def edm_parameters(data: Dataset, raw: np.ndarray, b: np.ndarray):
    """``(mu, p_index, dispersion)`` of a draw: each row's mean exp(:func:`linear_predictor`).

    ``raw`` holds the raw globals (its raw_log_sigma_b does not enter) and
    ``b`` the intercept values (ignored without groups).  Raises
    FlaggedObservationError for eta past the log link's limit.
    """
    w, p, phi, _, _ = constrain(raw, data.n_covariates, groups=False)
    eta = linear_predictor(data, w, b)
    _check_overflow(eta)
    return np.exp(eta), p, phi


def model_log_likelihood_value(data: Dataset, raw: np.ndarray, b: np.ndarray) -> float:
    """sum_i log Tweedie(y_i; mu_i, p, phi) at :func:`edm_parameters` of a draw, plus the
    random-intercept prior term."""
    return (float(tweedie_log_pdf(data.responses, *edm_parameters(data, raw, b)).sum())
            + intercept_log_prior(data, raw, b))


def log_likelihood_partials(data: Dataset, raw: np.ndarray, b: np.ndarray,
                            data_scale: float = 1.0):
    """Value of :func:`model_log_likelihood_value` and its partials.

    Returns ``(value, d_raw, d_b)`` with ``d_raw`` aligned with ``raw`` and
    ``d_b`` with ``b``; the intercept prior term reaches ``b`` and
    raw_log_sigma_b directly, so a caller whose ``b`` depends on sigma_b
    chains ``d_b`` through that dependence itself.  ``data_scale``
    multiplies the data terms only.
    """
    d1 = data.n_covariates + 1
    w, p, phi, sigma_b, s = constrain(raw, data.n_covariates, groups=data.group_count > 0)
    eta = linear_predictor(data, w, b)
    _check_overflow(eta)
    log_pdf, d_eta, d_p, d_log_phi = tweedie_log_pdf_partials(data.responses, np.exp(eta), p, phi)
    value = data_scale * float(log_pdf.sum())
    d_eta = data_scale * d_eta
    d_raw = np.zeros(raw_size(data.n_covariates))
    d_raw[0] = d_eta.sum()
    d_raw[1:d1] = data.fixed_design.T @ d_eta
    d_raw[d1] = s * (1.0 - s) * data_scale * float(d_p.sum())
    d_raw[d1 + 1] = data_scale * float(d_log_phi.sum())
    d_b = np.zeros(0)
    if sigma_b is not None:
        value += intercept_log_prior(data, raw, b)
        # b / sigma_b first: sigma_b ** 2 underflows to 0 below log sigma_b ~ -354;
        # where the value is -inf (b / sigma_b past the float range) the partials are infinite
        with np.errstate(over="ignore"):
            scaled = b / sigma_b
            d_b = np.bincount(data.group_index, d_eta, data.group_count) - scaled / sigma_b
            d_raw[d1 + 2] = float(scaled @ scaled) - data.group_count
    return value, d_raw, d_b
