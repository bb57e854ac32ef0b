"""Tweedie compound Poisson-Gamma distribution mathematics.

Two parameterizations are supported and linked by closed-form maps:
the compound form {lambda, alpha, beta} (Poisson rate, Gamma shape,
Gamma scale) and the exponential-dispersion form {mu, p_index,
dispersion} with variance Var(Y) = dispersion * mu ** p_index and
p_index restricted to (1, 2).

All density work happens in log space.  The log density splits as
log f = a(y; p, phi) - u - v (Dunn & Smyth 2005): the exponential-family
term has u = y * mu ** (1 - p) / (phi * (p - 1)) and
v = mu ** (2 - p) / (phi * (2 - p)), and the series
a = log sum_n exp(n * s - G(n)) - log(y) for y > 0 (a = 0 at y = 0) does
not depend on mu.  :func:`mean_terms` writes u and v, :func:`series_terms`
the series, and :func:`tweedie_log_pdf` composes them, so a caller that
moves only mu can keep the series.  The series is truncated to every
count whose term is at least ``TAIL_REL_TOL`` of the largest, a rule with
no settings (:func:`summation_range`).  A high-precision series evaluator
serves as the internal ground-truth oracle for truncation-error tests.

The count terms need lgamma and digamma only at the multiples n * alpha
of the Gamma shape.  Their tables, indexed by the count n, are pure
functions of (alpha, size) built from ``math.lgamma`` and
:func:`special.digamma`; the lgamma tables of a few recent (alpha, size)
pairs are cached, read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import digamma

LOG_2PI = math.log(2.0 * math.pi)

#: The truncated sum keeps every latent-count term at least this fraction
#: of the largest one.
TAIL_REL_TOL = 1e-10
_LOG_TAIL_TOL = math.log(TAIL_REL_TOL)
#: Counts summed around the summand's mode whatever their size.  Those
#: outside the kept run each add less than ``TAIL_REL_TOL`` of the largest
#: term; the core lets most rows end their run at its edge without a scan.
_CORE_WIDTH = 10
#: Longest latent-count table the truncated sum may build.
_MAX_TERMS = 100_000
#: (alpha, size) pairs whose count tables are kept: the chain reuses its accepted alpha.
_TABLES_KEPT = 4
#: Counts past each end of the core window checked in one 2-D evaluation
#: before a row whose summed range reaches further is bisected.
_SCAN_WINDOW = 16
#: Largest rate ``Generator.poisson`` accepts (numpy's POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


class InvalidParameterError(ValueError):
    """Distribution parameters violate their invariants."""


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


# ---------------------------------------------------------------------------
# Parameter maps
# ---------------------------------------------------------------------------

def to_edm(c: CompoundParams) -> EdmParams:
    """Map compound parameters to the mean/power/dispersion form."""
    mu = c.lam * c.alpha * c.beta
    p = (c.alpha + 2.0) / (c.alpha + 1.0)
    phi = c.lam ** (1.0 - p) * (c.alpha * c.beta) ** (2.0 - p) / (2.0 - p)
    return EdmParams(mu=mu, p_index=p, dispersion=phi)


def compound_arrays(mu, p, phi):
    """(lambda, alpha, beta) for a mean or an array of means; p and phi broadcast against mu."""
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
        - _lgamma(na.ravel().tolist()).reshape(n.shape)
        + n * log_lam
        - c.lam
        - _lgamma((n + 1.0).ravel().tolist()).reshape(n.shape)
    )


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------

def _lgamma(values) -> np.ndarray:
    """``math.lgamma`` of each of ``values``."""
    return np.array(list(map(math.lgamma, values)))


@lru_cache(maxsize=_TABLES_KEPT)
def _log_factorials(size: int) -> tuple:
    """lgamma(n + 1) at n = 1..size, the part of every alpha's :func:`_count_table`."""
    return tuple(map(math.lgamma, range(2, size + 2)))


@lru_cache(maxsize=_TABLES_KEPT)
def _count_table(alpha: float, size: int) -> np.ndarray:
    """G(n) = lgamma(n * alpha) + lgamma(n + 1) at n = 1..size, +inf at n = 0; read-only."""
    g = np.concatenate(([np.inf], _lgamma([n * alpha for n in range(1, size + 1)])))
    g[1:] += _log_factorials(size)
    g.flags.writeable = False
    return g


def _digamma_table(alpha: float, size: int) -> np.ndarray:
    """digamma(n * alpha) at index n - 1 for n = 1..size."""
    return digamma(np.arange(1, size + 1) * alpha)


def series_slope(log_y, p: float, phi: float):
    """Coefficient s of n in the log series term, from log(y) of positive rows.

    s = alpha * (log(y) - log(phi * (p - 1))) - log(phi * (2 - p)) with
    alpha = (2 - p) / (p - 1); the mean cancels from it.  The series is
    a = log sum_n exp(n * s - G(n)) - log(y).
    """
    alpha = (2.0 - p) / (p - 1.0)
    return alpha * (log_y - math.log(phi * (p - 1.0))) - math.log(phi * (2.0 - p))


def _summand_mode(slope: np.ndarray, alpha: float,
                  reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count n >= 1 maximizing n * slope - G(n), a G table past it, and the maximum.

    G is convex, so the increments G(n + 1) - G(n) increase in n and the
    mode is one past the number of increments below the slope.  The
    table (:func:`_count_table`, +inf at n = 0) doubles until, on every
    row, it covers the mode plus ``reach`` counts and its last term is
    below ``TAIL_REL_TOL`` of the largest.
    """
    size = 4 * reach
    while True:
        if size > _MAX_TERMS:
            raise InvalidParameterError(
                f"the latent-count series needs more than {_MAX_TERMS} terms"
            )
        table = _count_table(float(alpha), size)
        mode = 1 + np.searchsorted(np.diff(table[1:]), slope)
        peak = mode * slope - table[mode]
        if ((mode + reach <= size) & (size * slope - table[-1] - peak < _LOG_TAIL_TOL)).all():
            return mode, table, peak
        size *= 2


def summation_range(slope: np.ndarray,
                    alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts summed for each positive observation, and the sum itself.

    ``slope`` holds each row's :func:`series_slope`; ``alpha`` is shared.
    Row i sums n = lo[i] .. hi[i] - 1: the core of ``_CORE_WIDTH`` counts
    around the summand's mode (starting at max(1, mode - _CORE_WIDTH // 2))
    together with every count whose term is at least ``TAIL_REL_TOL``
    times the largest term.  The log summand is concave in n, so those
    counts form one run through the mode, and a row's range leaves the
    core only on a side where the count just outside the core is kept;
    see :func:`_first_dropped`.  Returns ``(lo, hi, log_mass)`` with
    log_mass[i] = log sum_n exp(n * slope[i] - G(n)) over the row's range.
    """
    lo, hi, starts, row, _, terms = _summed_terms(slope, alpha)
    return lo, hi, _log_row_sums(terms, starts, row)


def _summed_terms(slope, alpha: float):
    """(lo, hi, starts, row, counts, log terms) of :func:`summation_range`, laid out flat.

    Row i's counts lo[i] .. hi[i] - 1 fill positions starts[i] ..
    starts[i] + hi[i] - lo[i] - 1 of ``counts``, one row after another
    with no padding; ``row`` holds each position's row.
    """
    slope = np.asarray(slope, dtype=float)
    # non-finite slopes give non-finite sums; plan their range as slope 0
    plan = np.where(np.isfinite(slope), slope, 0.0)
    mode, table, peak = _summand_mode(plan, alpha, _CORE_WIDTH)
    floor = peak + _LOG_TAIL_TOL
    lo = np.maximum(1, mode - _CORE_WIDTH // 2)
    hi = _first_dropped(plan, table, floor, lo + _CORE_WIDTH, 1)
    lo = _first_dropped(plan, table, floor, lo - 1, -1) + 1
    widths = hi - lo
    starts = np.cumsum(widths) - widths
    row = np.repeat(np.arange(slope.size), widths)
    ns = np.arange(row.size) + (lo - starts)[row]
    return lo, hi, starts, row, ns, ns * slope[row] - table[ns]


def _first_dropped(plan, table, floor, start, step: int) -> np.ndarray:
    """Per row, the first count start + k * step (k >= 0) whose term is not kept.

    ``table[n]`` is G(n) for n = 1 .. table.size - 1 and +inf at n = 0,
    and n is kept when n * plan - table[n] >= floor.  Neither n = 0 (no
    term for y > 0) nor the last count of the table (below the floor,
    see :func:`_summand_mode`) is kept, so a count past the table in the
    search direction is clamped to its edge.  The kept counts form one
    run through the mode and ``start`` lies beyond the mode in the search
    direction, so the first dropped count ends that run: it is start
    itself on most rows, the first gap in the next ``_SCAN_WINDOW``
    counts on most others, and bisection finds it on the rest.
    """
    edge = table.size - 1 if step > 0 else 0
    clamp = np.minimum if step > 0 else np.maximum

    def kept(s, p, f, k):
        n = clamp(s + step * k, edge)
        return n * p - table[n] >= f

    first = np.zeros_like(start)
    rows = np.flatnonzero(kept(start, plan, floor, 0))
    if rows.size:
        s, p, f = start[rows], plan[rows], floor[rows]
        # one column per row, so each pass runs along the rows
        window = np.arange(1, _SCAN_WINDOW + 1)[:, None]
        scan = kept(s, p, f, window)
        gap = ~scan.all(axis=0)
        first[rows[gap]] = 1 + scan[:, gap].argmin(axis=0)
        if not gap.all():
            # bisect the rest: distance k_ok is kept, k_out is not
            rest = ~gap
            rows, s, p, f = rows[rest], s[rest], p[rest], f[rest]
            k_ok = np.full(rows.shape, _SCAN_WINDOW)
            k_out = step * (edge - s)
            while (k_out - k_ok > 1).any():
                mid = (k_ok + k_out) // 2
                ok = kept(s, p, f, mid)
                k_ok, k_out = np.where(ok, mid, k_ok), np.where(ok, k_out, mid)
            first[rows] = k_out
    return start + step * first


def _log_row_sums(terms: np.ndarray, starts: np.ndarray, row: np.ndarray) -> np.ndarray:
    """log sum(exp(terms)) over each row of a flat layout, shifted by the row maximum."""
    m = np.maximum.reduceat(terms, starts)
    with np.errstate(invalid="ignore"):
        return m + np.log(np.add.reduceat(np.exp(terms - m[row]), starts))


def marginal_log_likelihood(y: float, c: CompoundParams) -> float:
    """Truncated-sum approximation of the marginal log density of Y.

    Exact at y = 0 (the zero branch is a single term, -lambda); for
    y > 0 this is a size-1 call of :func:`tweedie_log_pdf` at
    :func:`to_edm` of ``c``.
    """
    if y == 0.0:
        return -c.lam
    e = to_edm(c)
    return float(tweedie_log_pdf(np.array([y]), e.mu, e.p_index, e.dispersion)[0])


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
    mode = int(_summand_mode(series_slope(np.log([y]), e.p_index, e.dispersion),
                             c.alpha, 1)[0][0])
    log_sum = -math.inf
    for n in range(1, _MAX_TERMS + 1):
        log_t = float(_log_summand(y, n, c))
        log_sum = np.logaddexp(log_sum, log_t)
        if n > mode and log_t - log_sum < math.log(rel_tol):
            return float(log_sum)
    raise NonConvergenceError(
        f"series did not converge within {_MAX_TERMS} terms (y={y}, {e})",
        last_value=float(log_sum),
    )


# ---------------------------------------------------------------------------
# Vectorized fast path (shared p_index and dispersion across observations)
# ---------------------------------------------------------------------------

def checked_responses(y):
    """``(y, positive rows, log y of the positive rows)``; raises for a negative response.

    These depend on the responses alone, so a caller that evaluates one
    dataset at many parameters computes them once.
    """
    y = np.asarray(y, dtype=float)
    if (y < 0).any():
        raise InvalidParameterError("y must be nonnegative")
    positive = y > 0.0
    return y, positive, np.log(y[positive])


def _check_index(p: float) -> None:
    if not 1.0 < p < 2.0:  # 1 + sigmoid(raw) rounds to 1 or 2 for |raw| past ~37
        raise InvalidParameterError(f"p_index must lie in the open interval (1, 2), got {p!r}")


def mean_terms(y, mu, p: float, phi: float):
    """Checked ``(u, v)`` per row: the exponential-family term of the log density is -(u + v).

    u = y * mu ** (1 - p) / (phi * (p - 1)) and v = mu ** (2 - p) / (phi * (2 - p)),
    computed as mu * mu ** (1 - p).  Raises InvalidParameterError for p
    outside (1, 2) and where u or v over- or underflows.
    """
    _check_index(p)
    # an extreme mean or dispersion over- or underflows u or v: checked below
    with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
        mu = np.asarray(mu, dtype=float)
        mu_1p = mu ** (1.0 - p)
        u = y * mu_1p / (phi * (p - 1.0))
        v = mu * mu_1p / (phi * (2.0 - p))
    if not (np.isfinite(u).all() and (np.isfinite(v) & (v > 0.0)).all()):
        raise InvalidParameterError(
            f"compound parameters out of range at p_index={p!r}, dispersion={phi!r}")
    return u, v


def series_terms(log_y: np.ndarray, p: float, phi: float) -> np.ndarray:
    """The series a = log_mass - log(y) of each positive row, from its log(y).

    ``log_mass`` is :func:`summation_range`'s truncated sum at the row's
    :func:`series_slope`.  The mean does not enter, so the terms change
    only with p and phi.
    """
    _check_index(p)
    if not (math.isfinite(phi) and phi * min(p - 1.0, 2.0 - p) > 0.0):
        raise InvalidParameterError(f"dispersion out of range for the series: {phi!r}")
    if not log_y.size:
        return log_y
    _, _, log_mass = summation_range(series_slope(log_y, p, phi), (2.0 - p) / (p - 1.0))
    return log_mass - log_y


def compose_log_pdf(positive: np.ndarray, u: np.ndarray, v: np.ndarray,
                    series: np.ndarray) -> np.ndarray:
    """log f = a - u - v per row: :func:`mean_terms` and the positive rows' :func:`series_terms`."""
    out = -(u + v)
    out[positive] += series
    return out


def tweedie_log_pdf(y: np.ndarray, mu: np.ndarray, p: float, phi: float) -> np.ndarray:
    """Truncated marginal log density a - u - v for arrays of y and mu.

    The series a sums the counts of :func:`summation_range` for a shared
    index parameter and dispersion across observations; see the module
    docstring for the split.
    """
    y, positive, log_y = checked_responses(y)
    u, v = mean_terms(y, mu, p, phi)
    return compose_log_pdf(positive, u, v, series_terms(log_y, p, phi))


def tweedie_log_pdf_partials(y: np.ndarray, mu: np.ndarray, p: float, phi: float):
    """:func:`tweedie_log_pdf` and its partials in log(mu), p and log(phi), per row.

    Returns ``(log_pdf, d_log_mu, d_p, d_log_phi)``.  The counts summed
    are those of :func:`summation_range`, treated as fixed.  With E over
    the softmax weights of a row's summed terms and L = log(y) - log(phi * (p - 1)),
    d/dlog(mu) = (p - 1) u - (2 - p) v, d/dlog(phi) = u + v - E[n] / (p - 1) and
    d/dp = u (log(mu) + 1 / (p - 1)) + v (log(mu) - 1 / (2 - p)) + E[n] / (2 - p)
    + (E[n * digamma(n * alpha)] - E[n] (L + 2 - p)) / (p - 1) ** 2; the
    series terms are absent on a zero row.
    """
    y, pos, log_y = checked_responses(y)
    u, v = mean_terms(y, mu, p, phi)
    log_mu = np.log(mu)
    d_log_phi = u + v
    d_p = u * (log_mu + 1.0 / (p - 1.0)) + v * (log_mu - 1.0 / (2.0 - p))
    series = log_y
    if log_y.size:
        alpha = (2.0 - p) / (p - 1.0)
        _, hi, starts, row, ns, terms = _summed_terms(series_slope(log_y, p, phi), alpha)
        log_mass = _log_row_sums(terms, starts, row)
        series = log_mass - log_y
        weighted_n = np.exp(terms - log_mass[row]) * ns
        mean_n = np.add.reduceat(weighted_n, starts)
        mean_n_psi = np.add.reduceat(weighted_n * _digamma_table(alpha, hi.max() - 1)[ns - 1], starts)
        d_log_phi[pos] -= mean_n / (p - 1.0)
        d_p[pos] += (mean_n / (2.0 - p)
                     + (mean_n_psi - mean_n * (log_y - math.log(phi * (p - 1.0)) + 2.0 - p))
                     / (p - 1.0) ** 2)
    return compose_log_pdf(pos, u, v, series), (p - 1.0) * u - (2.0 - p) * v, d_p, d_log_phi


# ---------------------------------------------------------------------------
# Sampling and moments
# ---------------------------------------------------------------------------

def tweedie_sample(c: CompoundParams, rng: np.random.Generator) -> float:
    """One draw: N ~ Poisson(lambda), then the sum of N Gamma(alpha, beta); see the array form."""
    return float(tweedie_sample_array(c.lam, c.alpha, c.beta, rng))


def tweedie_sample_array(lam: np.ndarray, alpha, beta: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Vectorized compound draws; ``alpha`` and ``beta`` broadcast against the rate ``lam``.

    A zero count gives Gamma shape 0, which numpy draws as exactly 0
    without taking from ``rng``.  A rate past what ``rng.poisson`` accepts
    (or NaN), or a draw that is not finite (an infinite ``beta``), raises
    InvalidParameterError.
    """
    if not (np.asarray(lam) <= _POISSON_LAM_MAX).all():
        raise InvalidParameterError(f"Poisson rate past the sampler's limit {_POISSON_LAM_MAX:.4g}")
    y = rng.gamma(rng.poisson(lam) * np.asarray(alpha, dtype=float), beta)
    if not np.isfinite(y).all():
        raise InvalidParameterError("compound draw outside the float range")
    return y


def tweedie_moments(e: EdmParams) -> tuple[float, float]:
    """Mean and variance: (mu, dispersion * mu ** p_index)."""
    return e.mu, e.dispersion * e.mu ** e.p_index
