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
burn-in, and the ``b`` update accepts or rejects each group's intercept
on its own.  Nothing adapts after burn-in, so the kept chain is a fixed
Markov kernel.

The one target, :func:`log_unnormalized_posterior`, is the Tweedie data
log likelihood plus the intercept prior plus the globals prior; a part
that raises one of :data:`model.LIKELIHOOD_FAILURES` makes it -inf.  The
sampler keeps the accepted state's parts and a proposal recomputes only
those its block enters (:class:`_SplitTarget`): the density's μ-free
series on ``p_dispersion`` proposals only, its mean terms on every
proposal but raw_log_sigma_b's, the intercept prior on raw_log_sigma_b
and b proposals, and the globals prior on every proposal but b's.  At
every accepted state the kept parts have the bits the full target
computes.  On a dataset with no rows the data term is exactly 0 and the
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
    data_log_likelihood,
    draws_schema,
    edm_parameters,
    globals_log_prior,
    intercept_log_prior,
    intercept_log_prior_terms,
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
        return (data_log_likelihood(data, raw, b) + intercept_log_prior(data, raw, b)
                + float(globals_log_prior(raw)))
    except LIKELIHOOD_FAILURES:
        return -math.inf


class _SplitTarget:
    """:func:`log_unnormalized_posterior` at the chain's states, kept in parts.

    The parts are each row's mean mu, the positive rows'
    :func:`tweedie.series_terms`, each row's log density (the
    :func:`tweedie.compose_log_pdf` of the series and
    :func:`tweedie.mean_terms`), the data term (their sum), the intercept
    prior and the globals prior; the last three add up in the full
    target's order.  The accepted state's parts are kept; :meth:`propose`
    and :meth:`propose_groups` recompute only those the moving block enters.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self._responses = None  # checked_responses of the data, set by the first evaluation
        self._accepted = self._proposed = None

    def propose(self, block: str | None, raw: np.ndarray, b: np.ndarray) -> float:
        """The target at ``(raw, b)``, which differs from the accepted state in ``block`` only.

        ``block`` is None, which evaluates every part (the first evaluation),
        or a block of :data:`BLOCK_ORDER` other than ``b``.
        """
        mu, series, rows, data_value, intercept, globals_value = self._accepted or (None,) * 6
        try:
            if block is None:
                self._responses = checked_responses(self.data.responses)
            if block != "raw_log_sigma_b":
                y, positive, log_y = self._responses
                if block == "p_dispersion":  # eta, so mu, does not move
                    _, p, phi, _, _ = constrain(raw, self.data.n_covariates, groups=False)
                else:
                    mu, p, phi = edm_parameters(self.data, raw, b)
                if block != "w":
                    series = series_terms(log_y, p, phi)
                rows = compose_log_pdf(positive, *mean_terms(y, mu, p, phi), series)
                data_value = float(rows.sum())
            if block in (None, "raw_log_sigma_b"):
                intercept = intercept_log_prior(self.data, raw, b)
            globals_value = float(globals_log_prior(raw))
        except LIKELIHOOD_FAILURES:
            self._proposed = None
            return -math.inf
        self._proposed = mu, series, rows, data_value, intercept, globals_value
        return data_value + intercept + globals_value

    def accept(self) -> None:
        """Keep the last :meth:`propose`'s parts as the accepted state's."""
        self._accepted = self._proposed

    def propose_groups(self, raw: np.ndarray, b: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Per group, the target's change when its intercept alone goes from ``b`` to ``moved``.

        ``b`` is the accepted state's intercepts.  Given the rest, the
        intercepts are independent, so one evaluation at ``moved`` gives
        every group's change: its rows' change in log density plus its
        prior term's.  Every change is -inf where the evaluation fails.
        """
        mu, series, rows = self._accepted[:3]
        y, positive, _ = self._responses
        try:
            moved_mu, p, phi = edm_parameters(self.data, raw, moved)
            moved_rows = compose_log_pdf(positive, *mean_terms(y, moved_mu, p, phi), series)
            prior_change = (intercept_log_prior_terms(self.data, raw, moved)
                            - intercept_log_prior_terms(self.data, raw, b))
        except LIKELIHOOD_FAILURES:
            self._proposed = None
            return np.full(self.data.group_count, -math.inf)
        self._proposed = moved_mu, moved_rows
        return np.bincount(self.data.group_index, moved_rows - rows,
                           minlength=self.data.group_count) + prior_change

    def accept_groups(self, raw: np.ndarray, b: np.ndarray, accepted: np.ndarray) -> float:
        """Keep the accepted groups' rows from the last :meth:`propose_groups`; the new target.

        ``b`` is the new state's intercepts: the accepted groups' moved
        values, the other groups' old ones.
        """
        mu, series, rows, _, _, globals_value = self._accepted
        moved_mu, moved_rows = self._proposed
        on_moved = accepted[self.data.group_index]
        rows = np.where(on_moved, moved_rows, rows)
        data_value = float(rows.sum())
        intercept = intercept_log_prior(self.data, raw, b)
        self._accepted = (np.where(on_moved, moved_mu, mu), series, rows, data_value,
                          intercept, globals_value)
        return data_value + intercept + globals_value


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
    deterministic given the seed.

    - ``w`` and ``raw_log_sigma_b`` add ``step * eps`` to their slice,
      eps ~ N(0, I), and accept with probability min(1, exp(delta log target)).
    - ``p_dispersion`` adds ``step * C eps`` to (raw_p, raw_log_dispersion),
      accepted by the same rule.  C starts as I.  At each tuning point in the
      second half of burn-in from iteration ``_SHAPE_START`` (500), C becomes
      the Cholesky factor of the covariance of that half's draws so far,
      scaled to trace 2; where the factorisation fails C stays.
    - ``b`` moves every group's intercept by ``step * eps_g`` and accepts
      group g where log U_g < its own change in the target
      (:meth:`_SplitTarget.propose_groups`): the intercepts are independent
      given the rest, so this is G exact Metropolis steps from one
      evaluation.  Its acceptance counts groups.

    Only the ``p_dispersion`` proposal evaluates the density's series.
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
    target = _SplitTarget(data)
    current_lp = target.propose(None, x[:n_raw], x[n_raw:])
    if not math.isfinite(current_lp):
        raise ValueError("log target is non-finite at the initial state")
    target.accept()
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
            if name == "b":
                log_u = np.log(rng.random(old.size))
                moves = log_u < target.propose_groups(x[:n_raw], old, x[span])
                x[span] = np.where(moves, x[span], old)
                if moves.any():
                    current_lp = target.accept_groups(x[:n_raw], x[span], moves)
                proposed[name] += moves.size
                accepted[name] += int(moves.sum())
                continue
            lp = target.propose(name, x[:n_raw], x[n_raw:])
            accept = math.isfinite(lp) and math.log(rng.random()) < lp - current_lp
            if accept:
                current_lp = lp
                target.accept()
            else:
                x[span] = old
            proposed[name] += 1
            accepted[name] += int(accept)
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
