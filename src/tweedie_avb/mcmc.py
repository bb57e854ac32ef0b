"""Blockwise random-walk Metropolis over the same posterior as the
variational fit, for desk-scale validation.

The state is one vector ``x = [raw; b (G)]``, the form of a draw
everywhere: the raw globals in the layout of :func:`model.raw_blocks`,
then the group intercepts.  Its blocks, fixed slices of ``x``, are the
raw globals' blocks and the intercepts (absent without groups).
Proposals are Gaussian per block with step sizes auto-tuned during
burn-in toward an acceptance rate of ``_TARGET_ACCEPTANCE``.

The one target, :func:`log_unnormalized_posterior`, is the Tweedie data
log likelihood plus the intercept prior plus the globals prior; a part
that raises one of :data:`model.LIKELIHOOD_FAILURES` makes it -inf.  The
sampler keeps the accepted state's parts and a proposal recomputes only
those its block enters (:class:`_SplitTarget`): the density's μ-free
series on raw_p and raw_log_dispersion proposals, its mean terms on every
proposal but raw_log_sigma_b's, the intercept prior on raw_log_sigma_b
and b proposals, and the globals prior on every proposal but b's.  Each
part has the bits the full target computes, so the draws are those of
evaluating it in full.  On a dataset with no rows the data term is
exactly 0 and the chain samples the prior.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import write_json
from .model import (
    LIKELIHOOD_FAILURES,
    Dataset,
    data_log_likelihood,
    draws_schema,
    edm_parameters,
    globals_log_prior,
    intercept_log_prior,
    raw_blocks,
    raw_size,
)
from .tweedie import checked_responses, compose_log_pdf, mean_terms, series_terms

#: The raw globals' blocks in layout order, then the intercepts.
BLOCK_ORDER = (*raw_blocks(0), "b")
#: Burn-in re-scales each block's step every ``_TUNE_INTERVAL`` iterations
#: toward this acceptance rate.
_TUNE_INTERVAL = 100
_TARGET_ACCEPTANCE = 0.25
#: Each block's first proposal scale where ``ChainConfig.step_sizes`` does not set it.
_DEFAULT_STEP_SIZES = {"w": 0.05, "raw_p": 0.2, "raw_log_dispersion": 0.2,
                       "raw_log_sigma_b": 0.5, "b": 0.1}


class ChainConfigError(ValueError):
    """Chain settings violate their invariants."""


@dataclass
class ChainConfig:
    """Random-walk Metropolis settings.

    ``step_sizes`` sets the first proposal scale of any blocks of :data:`BLOCK_ORDER`;
    the others keep their defaults, and the merged dict is what the config echoes.
    """

    step_sizes: dict = field(default_factory=dict)
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("burn_in", "seed"):
            if getattr(self, name) < 0:
                raise ChainConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.burn_in >= self.iterations:
            raise ChainConfigError(
                f"burn_in ({self.burn_in}) must be < iterations ({self.iterations})"
            )
        if self.thinning < 1:
            raise ChainConfigError("thinning must be >= 1")
        self.step_sizes = {**_DEFAULT_STEP_SIZES, **self.step_sizes}
        for name, step in self.step_sizes.items():
            if name not in BLOCK_ORDER:
                raise ChainConfigError(
                    f"step_sizes names unknown block {name!r}; blocks are {', '.join(BLOCK_ORDER)}")
            if step <= 0:
                raise ChainConfigError(f"step size for block {name!r} must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ChainResult:
    """Retained draws, ``{"raw": (n, D+4), "b": (n, G)}``, plus per-block acceptance rates."""

    draws: dict
    acceptance: dict

    def __post_init__(self):
        for name, rate in self.acceptance.items():
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"acceptance rate for {name!r} outside [0, 1]: {rate}")

    @property
    def retained(self) -> int:
        return self.draws["raw"].shape[0]

    def to_json_dict(self) -> dict:
        """The retained draws in :func:`model.draws_schema`, the schema FitResult stores."""
        draws = draws_schema(self.draws["raw"], self.draws["b"])
        return {
            "metadata": {"sampler": "random-walk metropolis"},
            "draws": {k: np.asarray(v).tolist() for k, v in draws.items()},
            "acceptance": {k: float(v) for k, v in self.acceptance.items()},
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())


# ---------------------------------------------------------------------------
# Target
# ---------------------------------------------------------------------------

def log_unnormalized_posterior(data: Dataset, raw: np.ndarray, b: np.ndarray) -> float:
    """Data log likelihood plus the intercept prior and :func:`model.globals_log_prior`.

    ``raw`` holds the raw globals in the layout of :func:`model.split_raw_globals`
    and ``b`` the group intercepts (empty without groups).  The target that
    :func:`run_chain` samples and AVB fits; a part that raises one of
    :data:`model.LIKELIHOOD_FAILURES` makes it -inf.
    """
    try:
        return (data_log_likelihood(data, raw, b) + intercept_log_prior(data, raw, b)
                + float(globals_log_prior(raw)))
    except LIKELIHOOD_FAILURES:
        return -math.inf


class _SplitTarget:
    """:func:`log_unnormalized_posterior` at the chain's states, kept in parts.

    The parts are the positive rows' :func:`tweedie.series_terms`, the data
    term (the row sum of :func:`tweedie.compose_log_pdf` of the series and
    :func:`tweedie.mean_terms`), the intercept prior and the globals prior,
    added in the full target's order.  The accepted state's parts are kept,
    and :meth:`propose` recomputes only those the moving block enters.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self._rows = None  # checked_responses of the data, set by the first evaluation
        self._accepted = self._proposed = None

    def propose(self, block: str | None, raw: np.ndarray, b: np.ndarray) -> float:
        """The target at ``(raw, b)``, which differs from the accepted state in ``block`` only.

        ``block`` None evaluates every part; that is the first evaluation.
        """
        series, data_value, intercept, globals_value = self._accepted or (None,) * 4
        try:
            if block is None:
                self._rows = checked_responses(self.data.responses)
            if block != "raw_log_sigma_b":
                y, positive, log_y = self._rows
                mu, p, phi = edm_parameters(self.data, raw, b)
                u, v = mean_terms(y, mu, p, phi)
                if block in (None, "raw_p", "raw_log_dispersion"):
                    series = series_terms(log_y, p, phi)
                data_value = float(compose_log_pdf(positive, u, v, series).sum())
            if block in (None, "raw_log_sigma_b", "b"):
                intercept = intercept_log_prior(self.data, raw, b)
            if block != "b":
                globals_value = float(globals_log_prior(raw))
        except LIKELIHOOD_FAILURES:
            self._proposed = None
            return -math.inf
        self._proposed = series, data_value, intercept, globals_value
        return data_value + intercept + globals_value

    def accept(self) -> None:
        """Keep the last proposal's parts as the accepted state's."""
        self._accepted = self._proposed


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def run_chain(data: Dataset, cfg: ChainConfig) -> ChainResult:
    """Sample :func:`log_unnormalized_posterior` for a dataset, from x = 0.

    Each iteration proposes the blocks in :data:`BLOCK_ORDER` in turn.  The
    accepted state's parts of the target are kept, and a proposal
    recomputes only those its block enters: the density's series on raw_p
    and raw_log_dispersion proposals, its mean terms on every proposal but
    raw_log_sigma_b's, the intercept prior on raw_log_sigma_b and b
    proposals, and the globals prior on every proposal but b's.
    Deterministic given the seed.  Acceptance uses the detailed-balance
    rule min(1, exp(delta log target)).  Each block starts at its
    ``cfg.step_sizes`` entry; during burn-in, every ``_TUNE_INTERVAL`` (100)
    iterations, each step is multiplied by exp(acceptance over those
    iterations - ``_TARGET_ACCEPTANCE`` (0.25)).  After burn-in the steps
    stay fixed, so ``burn_in=0`` runs an untuned chain.
    """
    n_raw = raw_size(data.n_covariates)
    blocks = {**raw_blocks(data.n_covariates), "b": slice(n_raw, n_raw + data.group_count)}
    spans = {name: span for name, span in blocks.items() if span.stop > span.start}
    steps = {k: float(cfg.step_sizes[k]) for k in spans}
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n_raw + data.group_count)
    target = _SplitTarget(data)
    current_lp = target.propose(None, x[:n_raw], x[n_raw:])
    if not math.isfinite(current_lp):
        raise ValueError("log target is non-finite at the initial state")
    target.accept()

    kept = []
    for it in range(cfg.iterations):
        if it in (0, cfg.burn_in):  # per-block counts: for tuning, then for the report
            accepted, proposed = dict.fromkeys(spans, 0), dict.fromkeys(spans, 0)
        for name, span in spans.items():
            old = x[span].copy()
            x[span] += steps[name] * rng.standard_normal(old.size)
            lp = target.propose(name, x[:n_raw], x[n_raw:])
            accept = math.isfinite(lp) and math.log(rng.random()) < lp - current_lp
            if accept:
                current_lp = lp
                target.accept()
            else:
                x[span] = old
            proposed[name] += 1
            accepted[name] += int(accept)
        if it < cfg.burn_in and (it + 1) % _TUNE_INTERVAL == 0:
            for name in spans:
                steps[name] *= math.exp(accepted[name] / proposed[name] - _TARGET_ACCEPTANCE)
            accepted, proposed = dict.fromkeys(spans, 0), dict.fromkeys(spans, 0)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            kept.append(x.copy())

    acceptance = {k: accepted[k] / proposed[k] for k in spans}
    for name, rate in acceptance.items():
        if rate < 0.01:
            warnings.warn(
                f"block {name!r} accepted {rate:.3%} of proposals; "
                f"reduce its step size (current {steps[name]:.3g})",
                RuntimeWarning,
            )
    kept = np.asarray(kept)
    return ChainResult(draws={"raw": kept[:, :n_raw], "b": kept[:, n_raw:]},
                       acceptance=acceptance)
