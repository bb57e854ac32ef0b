"""Tweedie compound Poisson-Gamma distribution mathematics.

Two parameterizations are supported and linked by closed-form maps:
the compound form {lambda, alpha, beta} (Poisson rate, Gamma shape,
Gamma scale) and the exponential-dispersion form {mu, p_index,
dispersion} with variance Var(Y) = dispersion * mu ** p_index and
p_index restricted to (1, 2).

All density work happens in log space.  The intractable marginal is
approximated by a truncated sum over the latent Poisson count; a
high-precision series evaluator serves as the internal ground-truth
oracle for truncation-error tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

LOG_2PI = math.log(2.0 * math.pi)

#: Adaptive truncation keeps every latent-count term at least this
#: fraction of the largest one.
TAIL_REL_TOL = 1e-10
_LOG_TAIL_TOL = math.log(TAIL_REL_TOL)
#: Longest latent-count table the truncated sum may build.
_MAX_TERMS = 100_000


class InvalidParameterError(ValueError):
    """Distribution parameters violate their invariants."""


class TruncationConfigError(ValueError):
    """Truncation settings violate their invariants."""


class NonConvergenceError(RuntimeError):
    """The series evaluator failed to converge within its term budget."""

    def __init__(self, message: str, last_value: float):
        self.last_value = last_value
        super().__init__(message)


def _require_positive_finite(**fields) -> None:
    for name, value in fields.items():
        if not math.isfinite(value) or value <= 0.0:
            raise InvalidParameterError(f"{name} must be a finite positive real, got {value!r}")


@dataclass(frozen=True)
class CompoundParams:
    """Compound Poisson-Gamma parameters: Poisson rate, Gamma shape/scale."""

    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive_finite(lam=self.lam, alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class EdmParams:
    """Exponential-dispersion parameters: mean, variance power, dispersion."""

    mu: float
    p_index: float
    dispersion: float

    def __post_init__(self):
        _require_positive_finite(mu=self.mu, dispersion=self.dispersion)
        if not (1.0 < self.p_index < 2.0) or not math.isfinite(self.p_index):
            raise InvalidParameterError(
                f"p_index must lie in the open interval (1, 2), got {self.p_index!r}"
            )


@dataclass(frozen=True)
class TruncationConfig:
    """Finite-sum approximation settings for the latent-count marginal.

    In fixed mode exactly the counts 1..n_max are summed.  In adaptive
    mode ``n_max`` is the width of the core window centered on the count
    that maximizes the log summand; the sum also takes in every further
    count whose term is at least ``TAIL_REL_TOL`` times the largest term,
    so the dropped tails are negligible whatever the core width.
    """

    n_max: int = 10
    adaptive: bool = True

    def __post_init__(self):
        if self.n_max < 1:
            raise TruncationConfigError(f"n_max must be >= 1, got {self.n_max}")


# ---------------------------------------------------------------------------
# Parameter maps
# ---------------------------------------------------------------------------

def to_edm(c: CompoundParams) -> EdmParams:
    """Map compound parameters to the mean/power/dispersion form."""
    mu = c.lam * c.alpha * c.beta
    p = (c.alpha + 2.0) / (c.alpha + 1.0)
    phi = c.lam ** (1.0 - p) * (c.alpha * c.beta) ** (2.0 - p) / (2.0 - p)
    return EdmParams(mu=mu, p_index=p, dispersion=phi)


def compound_arrays(mu, p: float, phi: float):
    """(lambda, alpha, beta) for a mean or an array of means with shared p and phi."""
    lam = mu ** (2.0 - p) / (phi * (2.0 - p))
    alpha = (2.0 - p) / (p - 1.0)
    beta = phi * (p - 1.0) * mu ** (p - 1.0)
    return lam, alpha, beta


def to_compound(e: EdmParams) -> CompoundParams:
    """Map mean/power/dispersion parameters to the compound form."""
    lam, alpha, beta = compound_arrays(e.mu, e.p_index, e.dispersion)
    return CompoundParams(lam=lam, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def joint_log_density(y: float, n: int, c: CompoundParams) -> float:
    """Log joint density of (Y = y, N = n) under the compound law.

    The mismatched branches (y = 0 with n > 0, or y > 0 with n = 0)
    carry zero probability mass and return -inf rather than raising, so
    the truncated-sum marginal stays branch-free.
    """
    if y < 0.0:
        raise InvalidParameterError(f"y must be nonnegative, got {y!r}")
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n!r}")
    if n == 0:
        return -c.lam if y == 0.0 else -math.inf
    if y == 0.0:
        return -math.inf
    return _log_summand(y, np.array([n], dtype=float), c)[0]


def _log_summand(y: float, n, c: CompoundParams) -> np.ndarray:
    """Log of the n-th term of the latent-count sum, for y > 0, n >= 1.

    Gamma(y; shape n*alpha, scale beta) * Poisson(n; lambda), vectorized
    over n.
    """
    n = np.asarray(n, dtype=float)
    na = n * c.alpha
    log_y = math.log(y)
    log_beta = math.log(c.beta)
    log_lam = math.log(c.lam)
    return (
        (na - 1.0) * log_y
        - y / c.beta
        - na * log_beta
        - gammaln(na)
        + n * log_lam
        - c.lam
        - gammaln(n + 1.0)
    )


def _count_table(alpha: float, size: int) -> np.ndarray:
    """G(n) = lgamma(n * alpha) + lgamma(n + 1) for n = 1..size, at index n - 1."""
    n = np.arange(1.0, size + 1.0)
    return gammaln(n * alpha) + gammaln(n + 1.0)


def series_slope(y, lam, alpha: float, beta):
    """Coefficient of n in the log summand: alpha * log(y / beta) + log(lambda).

    The log summand is n * slope - G(n) - log(y) - y / beta - lambda.
    """
    return alpha * (np.log(y) - np.log(beta)) + np.log(lam)


def _summand_mode(slope: np.ndarray, alpha: float,
                  reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count n >= 1 maximizing n * slope - G(n), a G table past it, and the maximum.

    G is convex, so the increments G(n + 1) - G(n) increase in n and the
    mode is one past the number of increments below the slope.  The
    table doubles until, on every row, it covers the mode plus ``reach``
    counts and its last term is below ``TAIL_REL_TOL`` of the largest.
    """
    size = 4 * reach
    while True:
        if size > _MAX_TERMS:
            raise InvalidParameterError(
                f"the latent-count series needs more than {_MAX_TERMS} terms"
            )
        g = _count_table(alpha, size)
        mode = 1 + np.searchsorted(np.diff(g), slope)
        peak = mode * slope - g[mode - 1]
        if ((mode + reach <= size) & (size * slope - g[-1] - peak < _LOG_TAIL_TOL)).all():
            return mode, g, peak
        size *= 2


def summation_range(slope: np.ndarray, alpha: float,
                    t: TruncationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts summed for each positive observation, and the sum itself.

    ``slope`` holds each row's :func:`series_slope`; ``alpha`` is shared.
    Row i sums n = lo[i] .. hi[i] - 1.  In fixed mode that is 1..n_max.
    In adaptive mode it is the core window of n_max counts around the
    summand's mode (starting at max(1, mode - n_max // 2)) together with
    every count whose term is at least ``TAIL_REL_TOL`` times the largest
    term.  The log summand is concave in n, so those counts form one run
    through the mode, whose ends are found by bisection.  Returns
    ``(lo, hi, log_mass)`` with log_mass[i] = log sum_n exp(n * slope[i] - G(n))
    over the row's range.
    """
    lo, hi, _, terms = _summed_terms(slope, alpha, t)
    return lo, hi, _log_row_sums(terms)


def _summed_terms(slope, alpha: float, t: TruncationConfig):
    """(lo, hi, counts, log terms) of :func:`summation_range` on a rectangular grid.

    Row i of ``counts`` starts at lo[i]; cells at or past hi[i] hold a
    log term of -inf.
    """
    slope = np.asarray(slope, dtype=float)
    if t.adaptive:
        # non-finite slopes give non-finite sums; plan their range as slope 0
        plan = np.where(np.isfinite(slope), slope, 0.0)
        mode, g, peak = _summand_mode(plan, alpha, t.n_max)
        floor = peak + _LOG_TAIL_TOL

        def kept(n):
            return n * plan - g[n - 1] >= floor

        # invariants: up_ok and down_ok are kept; up_out (past the table)
        # and down_out (n = 0, no term for y > 0) are not
        up_ok, up_out = mode, np.full(mode.shape, g.size)
        down_out, down_ok = np.zeros_like(mode), mode
        for _ in range(g.size.bit_length()):
            mid = (up_ok + up_out) // 2
            ok = kept(mid)
            up_ok, up_out = np.where(ok, mid, up_ok), np.where(ok, up_out, mid)
            mid = (down_out + down_ok + 1) // 2
            ok = kept(mid)
            down_out, down_ok = np.where(ok, down_out, mid), np.where(ok, mid, down_ok)
        core_lo = np.maximum(1, mode - t.n_max // 2)
        lo = np.minimum(core_lo, down_ok)
        hi = np.maximum(core_lo + t.n_max, up_ok + 1)
    else:
        g = _count_table(alpha, t.n_max)
        lo = np.ones(slope.shape, dtype=int)
        hi = lo + t.n_max
    ns = lo[:, None] + np.arange((hi - lo).max(initial=1))
    raw = np.where(ns < hi[:, None],
                   ns * slope[:, None] - g[np.minimum(ns, g.size) - 1], -np.inf)
    return lo, hi, ns, raw


def _log_row_sums(terms: np.ndarray) -> np.ndarray:
    """log sum(exp(terms)) along each row, shifted by the row maximum."""
    m = terms.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return m[:, 0] + np.log(np.exp(terms - m).sum(axis=1))


def marginal_log_likelihood(y: float, c: CompoundParams, t: TruncationConfig) -> float:
    """Truncated-sum approximation of the marginal log density of Y.

    Exact at y = 0 (the zero branch is a single term, -lambda); for
    y > 0 the latent count is summed over the range of
    :func:`summation_range`.  In fixed mode that gives a lower bound
    nondecreasing in ``n_max``; in adaptive mode the dropped tails are
    negligible.  This is a size-1 call of :func:`tweedie_log_pdf`'s sum.
    """
    if y < 0.0:
        raise InvalidParameterError(f"y must be nonnegative, got {y!r}")
    if y == 0.0:
        return -c.lam
    slope = series_slope(np.array([y]), c.lam, c.alpha, c.beta)
    _, _, log_mass = summation_range(slope, c.alpha, t)
    return float(log_mass[0] - math.log(y) - y / c.beta - c.lam)


def series_log_density_oracle(y: float, e: EdmParams, rel_tol: float = 1e-12) -> float:
    """High-precision log density by summing the latent-count series.

    Terms are added from n = 1 upward until the next term contributes
    less than ``rel_tol`` of the running sum and n has passed the
    summand's mode.  This is the internal ground truth against which the
    truncated marginal is tested; it is not tied to any published
    evaluator.
    """
    if y < 0.0:
        raise InvalidParameterError(f"y must be nonnegative, got {y!r}")
    if not (0.0 < rel_tol <= 1e-3):
        raise InvalidParameterError(f"rel_tol must lie in (0, 1e-3], got {rel_tol!r}")
    c = to_compound(e)
    if y == 0.0:
        return -c.lam
    mode = int(_summand_mode(series_slope(np.array([y]), c.lam, c.alpha, c.beta),
                             c.alpha, 1)[0][0])
    max_terms = 100_000
    log_sum = -math.inf
    for n in range(1, max_terms + 1):
        log_t = float(_log_summand(y, n, c))
        log_sum = np.logaddexp(log_sum, log_t)
        if n > mode and log_t - log_sum < math.log(rel_tol):
            return float(log_sum)
    raise NonConvergenceError(
        f"series did not converge within {max_terms} terms (y={y}, {e})",
        last_value=float(log_sum),
    )


# ---------------------------------------------------------------------------
# Vectorized fast path (shared p_index and dispersion across observations)
# ---------------------------------------------------------------------------

def _compound_rows(y, mu, p: float, phi: float):
    """Checked ``(y, mu, lambda, alpha, beta)`` for the vectorized paths."""
    y = np.asarray(y, dtype=float)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
    if (y < 0).any():
        raise InvalidParameterError("y must be nonnegative")
    if not 1.0 < p < 2.0:  # 1 + sigmoid(raw) rounds to 1 or 2 for |raw| past ~37
        raise InvalidParameterError(f"p_index must lie in the open interval (1, 2), got {p!r}")
    # an extreme dispersion over- or underflows lambda or beta: checked below
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        lam, alpha, beta = compound_arrays(mu, p, phi)
    if not (np.isfinite(lam) & (lam > 0.0) & np.isfinite(beta) & (beta > 0.0)).all():
        raise InvalidParameterError(
            f"compound parameters out of range at p_index={p!r}, dispersion={phi!r}")
    return y, mu, lam, alpha, beta


def tweedie_log_pdf(y: np.ndarray, mu: np.ndarray, p: float, phi: float,
                    t: TruncationConfig) -> np.ndarray:
    """Truncated marginal log density for arrays of y and mu.

    Same sum over the counts of :func:`summation_range` as
    :func:`marginal_log_likelihood`, vectorized for a shared index
    parameter and dispersion across observations.
    """
    y, mu, lam, alpha, beta = _compound_rows(y, mu, p, phi)
    out = -lam
    pos = y > 0.0
    if pos.any():
        yp, lamp, betap = y[pos], lam[pos], beta[pos]
        _, _, log_mass = summation_range(series_slope(yp, lamp, alpha, betap), alpha, t)
        out[pos] = log_mass - np.log(yp) - yp / betap - lamp
    return out


def tweedie_log_pdf_partials(y: np.ndarray, mu: np.ndarray, p: float, phi: float,
                             t: TruncationConfig):
    """:func:`tweedie_log_pdf` and its partials in log(mu), p and log(phi), per row.

    Returns ``(log_pdf, d_log_mu, d_p, d_log_phi)``.  The counts summed
    are those of :func:`summation_range`, treated as fixed.  With softmax
    weights pi over a row's summed terms, the partials in the compound
    parameters are d/dlog(lambda) = E_pi[n] - lambda,
    d/dlog(beta) = y / beta - alpha * E_pi[n] and
    d/dalpha = E_pi[n * (log(y / beta) - digamma(n * alpha))]; a zero
    row has log density -lambda.  The chain rule through
    :func:`compound_arrays` then gives the returned partials.
    """
    y, mu, lam, alpha, beta = _compound_rows(y, mu, p, phi)
    out = -lam
    d_log_lam = -lam
    d_log_beta = np.zeros(y.shape)
    d_alpha = np.zeros(y.shape)
    pos = y > 0.0
    if pos.any():
        yp, lamp, betap = y[pos], lam[pos], beta[pos]
        _, _, ns, terms = _summed_terms(series_slope(yp, lamp, alpha, betap), alpha, t)
        log_mass = _log_row_sums(terms)
        out[pos] = log_mass - np.log(yp) - yp / betap - lamp
        weights = np.exp(terms - log_mass[:, None])
        mean_n = (weights * ns).sum(axis=1)
        d_log_lam[pos] = mean_n - lamp
        d_log_beta[pos] = yp / betap - alpha * mean_n
        d_alpha[pos] = (mean_n * (np.log(yp) - np.log(betap))
                        - (weights * ns * digamma(ns * alpha)).sum(axis=1))
    # log(lambda) = (2 - p) log(mu) - log(phi) - log(2 - p), alpha = (2 - p) / (p - 1),
    # log(beta) = log(phi) + log(p - 1) + (p - 1) log(mu)
    log_mu = np.log(mu)
    d_log_mu = (2.0 - p) * d_log_lam + (p - 1.0) * d_log_beta
    d_p = (d_log_lam * (1.0 / (2.0 - p) - log_mu) - d_alpha / (p - 1.0) ** 2
           + d_log_beta * (1.0 / (p - 1.0) + log_mu))
    return out, d_log_mu, d_p, d_log_beta - d_log_lam


# ---------------------------------------------------------------------------
# Sampling and moments
# ---------------------------------------------------------------------------

def tweedie_sample(c: CompoundParams, rng: np.random.Generator) -> float:
    """One draw: N ~ Poisson(lambda), then the sum of N Gamma(alpha, beta)."""
    n = int(rng.poisson(c.lam))
    if n == 0:
        return 0.0
    # sum of n iid Gamma(alpha, scale beta) is Gamma(n * alpha, scale beta)
    return float(rng.gamma(n * c.alpha, c.beta))


def tweedie_sample_array(lam: np.ndarray, alpha: float, beta: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Vectorized compound draws with per-observation rate and scale."""
    lam = np.asarray(lam, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), lam.shape)
    n = rng.poisson(lam)
    y = np.zeros(lam.shape)
    pos = n > 0
    if pos.any():
        y[pos] = rng.gamma(n[pos] * alpha, beta[pos])
    return y


def tweedie_moments(e: EdmParams) -> tuple[float, float]:
    """Mean and variance: (mu, dispersion * mu ** p_index)."""
    return e.mu, e.dispersion * e.mu ** e.p_index
