"""Blockwise random-walk Metropolis over the same posterior as the
variational fit, for desk-scale validation.

The state is one vector ``x = [raw; b (G)]``, the form of a draw
everywhere: the raw globals in the layout of :func:`model.raw_blocks`,
then the group intercepts.  Each iteration updates the blocks of
:data:`BLOCK_ORDER` in turn, each a fixed slice of ``x``: the fixed
weights ``w``, ``p_dispersion`` (raw_p and raw_log_dispersion together),
``raw_log_sigma_b`` and the intercepts ``b`` (absent without groups).
Proposals are Gaussian with step sizes auto-tuned during burn-in toward
an acceptance rate of ``_TARGET_ACCEPTANCE``.  The ``p_dispersion``
proposal is shaped by the covariance of its draws in the second half of
burn-in, and each group's intercept is accepted or rejected on its own.
Nothing adapts after burn-in, so the kept chain is a fixed Markov kernel.

The one target, :func:`log_unnormalized_posterior`, is
:func:`model.model_log_likelihood_value` (the Tweedie data log
likelihood plus the intercept prior) plus the globals prior; a part
that raises one of :data:`model.LIKELIHOOD_FAILURES` makes it -inf.  The
sampler keeps the accepted state's parts and a proposal recomputes only
those its block enters (:class:`_SplitTarget`): the density's μ-free
series on ``p_dispersion`` proposals only, its mean terms on every
proposal but raw_log_sigma_b's, the intercept prior terms on
raw_log_sigma_b and b proposals, and the globals prior on every proposal
but b's.  At every accepted state the kept parts have the bits the full
target computes.  On a dataset with no rows the data term is exactly 0 and the
chain samples the prior.
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
    constrain,
    draws_schema,
    edm_parameters,
    globals_log_prior,
    intercept_log_prior_terms,
    model_log_likelihood_value,
    raw_blocks,
    raw_size,
)
from .tweedie import checked_responses, compose_log_pdf, mean_terms, series_terms

#: The blocks of one iteration, in order.
BLOCK_ORDER = ("w", "p_dispersion", "raw_log_sigma_b", "b")
#: Burn-in re-scales each block's step every ``_TUNE_INTERVAL`` iterations
#: toward this acceptance rate.
_TUNE_INTERVAL = 100
_TARGET_ACCEPTANCE = 0.25
#: The ``p_dispersion`` proposal's shape is first learnt at this iteration.
_SHAPE_START = 500
#: Each block's first proposal scale where ``ChainConfig.step_sizes`` does not set it.
_DEFAULT_STEP_SIZES = {"w": 0.05, "p_dispersion": 0.2, "raw_log_sigma_b": 0.5, "b": 0.1}


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
            if isinstance(step, bool) or not (isinstance(step, (int, float))
                                              and 0 < step < math.inf):
                raise ChainConfigError(
                    f"step_sizes[{name!r}] must be a finite number > 0, got {step!r}")

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
        """The retained draws in :func:`model.draws_schema`, the schema FitResult stores,
        and under ``diagnostics`` the :func:`effective_sample_size` of each stored value."""
        draws = draws_schema(self.draws["raw"], self.draws["b"])
        ess = {k: effective_sample_size(v) for k, v in draws.items()}
        return {
            "metadata": {"sampler": "random-walk metropolis"},
            "draws": {k: np.asarray(v).tolist() for k, v in draws.items()},
            "acceptance": {k: float(v) for k, v in self.acceptance.items()},
            "diagnostics": {"effective_sample_size": {k: v.tolist() for k, v in ess.items()}},
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())


def effective_sample_size(draws) -> np.ndarray:
    """Geyer's initial-monotone effective sample size of each coordinate of ``(n, ...)`` draws.

    The autocorrelations come from one FFT per coordinate.  Their pair sums
    rho_2k + rho_2k+1 are kept up to the first that is not positive and
    made non-increasing; ESS = n / (2 * their sum - 1), at most
    n log10(n) (at most n below 10 draws).  A coordinate whose draws are
    all equal counts as one draw.
    """
    x = np.asarray(draws, dtype=float)
    n = x.shape[0]
    flat = x.reshape(n, -1)
    centred = flat - flat.mean(axis=0)
    size = 1 << (2 * n - 1).bit_length()  # zero-padded past 2n: no circular wrap
    spectrum = np.fft.rfft(centred, n=size, axis=0)
    autocovariance = np.fft.irfft(spectrum * spectrum.conj(), n=size, axis=0)[:n]
    constant = (flat == flat[0]).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = autocovariance / autocovariance[0]
    pairs = rho[0:n - 1:2] + rho[1:n:2]
    initial = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    tau = 2.0 * np.where(initial, np.minimum.accumulate(pairs, axis=0), 0.0).sum(axis=0) - 1.0
    ess = n / np.maximum(tau, 1.0 / math.log10(max(n, 10)))
    return np.where(constant, 1.0, ess).reshape(x.shape[1:])


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
        return model_log_likelihood_value(data, raw, b) + float(globals_log_prior(raw))
    except LIKELIHOOD_FAILURES:
        return -math.inf


class _SplitTarget:
    """:func:`log_unnormalized_posterior` at the chain's states, kept in parts.

    The parts are each row's mean mu, the positive rows'
    :func:`tweedie.series_terms`, each row's log density (the
    :func:`tweedie.compose_log_pdf` of the series and
    :func:`tweedie.mean_terms`), each group's intercept prior term and the
    globals prior; ``value``, the accepted state's target, adds them up in
    the full target's order.  A block's units are accepted on their own:
    ``b`` has one per group, every other block one.
    """

    def __init__(self, data: Dataset, raw: np.ndarray, b: np.ndarray):
        self.data = data
        try:
            self._responses = y, positive, log_y = checked_responses(data.responses)
            mu, p, phi = edm_parameters(data, raw, b)
            series = series_terms(log_y, p, phi)
            rows = compose_log_pdf(positive, *mean_terms(y, mu, p, phi), series)
            self._kept = (mu, series, rows, intercept_log_prior_terms(data, raw, b),
                          float(globals_log_prior(raw)))
            self.value = self._total(self._kept)
        except LIKELIHOOD_FAILURES:
            self.value = -math.inf
        if not math.isfinite(self.value):
            raise ValueError("log target is non-finite at the initial state")

    @staticmethod
    def _total(parts) -> float:
        """The target of a state's parts: data term, intercept prior, globals prior."""
        _, _, rows, terms, globals_value = parts
        return float(rows.sum()) + float(np.sum(terms)) + globals_value

    def propose(self, block: str, raw: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each unit's change in the target at ``(raw, b)``, which differs from the
        accepted state in ``block`` only; -inf for every unit where a part fails.

        Only the parts ``block`` enters are recomputed.  A group's change is
        its rows' change in log density plus its prior term's.
        """
        mu, series, rows, terms, globals_value = self._kept
        y, positive, log_y = self._responses
        units = self.data.group_count if block == "b" else 1
        try:
            if block != "raw_log_sigma_b":
                if block == "p_dispersion":  # eta, so mu, does not move
                    _, p, phi, _, _ = constrain(raw, self.data.n_covariates, groups=False)
                    series = series_terms(log_y, p, phi)
                else:
                    mu, p, phi = edm_parameters(self.data, raw, b)
                rows = compose_log_pdf(positive, *mean_terms(y, mu, p, phi), series)
            if block in ("raw_log_sigma_b", "b"):
                terms = intercept_log_prior_terms(self.data, raw, b)
            if block != "b":
                globals_value = float(globals_log_prior(raw))
        except LIKELIHOOD_FAILURES:
            self._proposed = None
            return np.full(units, -math.inf)
        self._proposed = mu, series, rows, terms, globals_value
        if block == "b":
            _, _, kept_rows, kept_terms, _ = self._kept
            return np.bincount(self.data.group_index, rows - kept_rows,
                               minlength=units) + (terms - kept_terms)
        return np.array([self._total(self._proposed) - self.value])

    def accept(self, moves: np.ndarray) -> None:
        """Keep the last :meth:`propose`'s parts of the units where ``moves`` is True."""
        if moves.all():
            self._kept = self._proposed
        elif moves.any():  # some of b's groups: their rows and prior terms
            mu, series, rows, terms, globals_value = self._kept
            moved_mu, _, moved_rows, moved_terms, _ = self._proposed
            on_moved = moves[self.data.group_index]
            self._kept = (np.where(on_moved, moved_mu, mu), series,
                          np.where(on_moved, moved_rows, rows),
                          np.where(moves, moved_terms, terms), globals_value)
        else:
            return
        self.value = self._total(self._kept)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def _block_spans(data: Dataset) -> dict:
    """Each block of :data:`BLOCK_ORDER`'s slice of the state, the empty ones left out."""
    layout = raw_blocks(data.n_covariates)
    n_raw = raw_size(data.n_covariates)
    spans = {"w": layout["w"],
             "p_dispersion": slice(layout["raw_p"].start, layout["raw_log_dispersion"].stop),
             "raw_log_sigma_b": layout["raw_log_sigma_b"],
             "b": slice(n_raw, n_raw + data.group_count)}
    return {name: span for name, span in spans.items() if span.stop > span.start}


def _proposal_shape(draws: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """The Cholesky factor of the draws' covariance scaled to trace 2, else ``previous``."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a block that never moved
        covariance = np.cov(draws, rowvar=False)
        covariance *= len(covariance) / np.trace(covariance)
    try:
        shape = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        return previous
    return shape if np.isfinite(shape).all() else previous


def run_chain(data: Dataset, cfg: ChainConfig) -> ChainResult:
    """Sample :func:`log_unnormalized_posterior` for a dataset, from x = 0.

    Each iteration updates the blocks of :data:`BLOCK_ORDER` in turn;
    deterministic given the seed.  A block adds ``step * eps`` to its
    slice, eps ~ N(0, I) (``step * C eps`` for ``p_dispersion``), and takes
    one Metropolis step: each of its units is accepted where log U < its
    change in the target (:meth:`_SplitTarget.propose`; -inf where a part
    fails), one uniform per unit.  Each group's intercept is a unit of
    ``b``, as the intercepts are independent given the rest; every other
    block is one unit.  Acceptance counts units.

    C starts as I.  At each tuning point in the second half of burn-in from
    iteration ``_SHAPE_START`` (500), C becomes the Cholesky factor of the
    covariance of that half's draws so far, scaled to trace 2; where the
    factorisation fails C stays.  Only the ``p_dispersion`` proposal
    evaluates the density's series.
    Each block starts at its ``cfg.step_sizes`` entry; during burn-in,
    every ``_TUNE_INTERVAL`` (100) iterations, each step is multiplied by
    exp(acceptance over those iterations - ``_TARGET_ACCEPTANCE`` (0.25)).
    After burn-in the steps and C stay fixed, so ``burn_in=0`` runs an
    untuned chain.
    """
    n_raw = raw_size(data.n_covariates)
    spans = _block_spans(data)
    steps = {k: float(cfg.step_sizes[k]) for k in spans}
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n_raw + data.group_count)
    target = _SplitTarget(data, x[:n_raw], x[n_raw:])
    shape = np.eye(2)
    half = cfg.burn_in // 2
    shape_draws = np.empty((cfg.burn_in - half, 2))  # p_dispersion in burn-in's second half

    kept = []
    for it in range(cfg.iterations):
        if it in (0, cfg.burn_in):  # per-block counts: for tuning, then for the report
            accepted, proposed = dict.fromkeys(spans, 0), dict.fromkeys(spans, 0)
        for name, span in spans.items():
            old = x[span].copy()
            eps = rng.standard_normal(old.size)
            x[span] += steps[name] * (shape @ eps if name == "p_dispersion" else eps)
            change = target.propose(name, x[:n_raw], x[n_raw:])
            moves = np.log(rng.random(change.size)) < change
            x[span] = np.where(moves, x[span], old)
            target.accept(moves)
            proposed[name] += moves.size
            accepted[name] += int(moves.sum())
        if half <= it < cfg.burn_in:
            shape_draws[it - half] = x[spans["p_dispersion"]]
        if it < cfg.burn_in and (it + 1) % _TUNE_INTERVAL == 0:
            for name in spans:
                steps[name] *= math.exp(accepted[name] / proposed[name] - _TARGET_ACCEPTANCE)
            accepted, proposed = dict.fromkeys(spans, 0), dict.fromkeys(spans, 0)
            if half < it and it + 1 >= _SHAPE_START:
                shape = _proposal_shape(shape_draws[:it + 1 - half], shape)
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
