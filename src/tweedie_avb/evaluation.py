"""Ordered Lorenz curves, Gini indices, and posterior summaries.

The ordered Lorenz curve sorts observations by the relativity (model
prediction over baseline prediction) and plots the cumulative baseline
share against the cumulative outcome share.  The Gini index is twice
the signed area between that curve and the diagonal; positive means the
model separates risk better than the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegeneratePredictionError(ValueError):
    """All model predictions are zero while outcomes are positive."""


class GiniDomainError(ValueError):
    """Inputs violate the Lorenz-curve preconditions."""


@dataclass(frozen=True)
class LorenzCurve:
    """Ordered list of (cumulative baseline share, cumulative outcome share)."""

    points: tuple

    def __post_init__(self):
        fp = np.array([p[0] for p in self.points])
        fy = np.array([p[1] for p in self.points])
        if fp[0] != 0.0 or fy[0] != 0.0:
            raise GiniDomainError("curve must start at the origin")
        if (np.diff(fp) < 0).any() or (np.diff(fy) < -1e-12).any():
            raise GiniDomainError("cumulative shares must be nondecreasing")

    @property
    def baseline_shares(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def outcome_shares(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


def ordered_lorenz(y: np.ndarray, p: np.ndarray, y_hat: np.ndarray) -> LorenzCurve:
    """Empirical ordered Lorenz curve for outcomes y, baseline p, model y_hat.

    Observations are sorted by the relativity y_hat / p in increasing
    order (stable, so ties keep their original order); cumulative shares
    of p and y are accumulated along that order, starting from (0, 0).
    Observations sharing a relativity value contribute one combined
    curve point, so a model evaluated against itself traces the exact
    diagonal and scores a Gini of zero.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if not (y.shape == p.shape == y_hat.shape) or y.ndim != 1 or y.size < 1:
        raise GiniDomainError("y, p, y_hat must be equal-length vectors")
    if (p <= 0).any():
        raise GiniDomainError("baseline predictions must be strictly positive")
    if y_hat.sum() == 0.0 and y.sum() > 0.0:
        raise DegeneratePredictionError("all model predictions are zero")
    r = y_hat / p
    order = np.argsort(r, kind="stable")
    r_sorted = r[order]
    fp = np.cumsum(p[order]) / p.sum()
    y_total = y.sum()
    fy = np.cumsum(y[order]) / y_total if y_total > 0 else np.zeros_like(fp)
    fp[-1] = 1.0
    if y_total > 0:
        fy[-1] = 1.0
    # keep only the last observation of each tied-relativity run
    last = np.ones(r_sorted.size, dtype=bool)
    last[:-1] = r_sorted[:-1] != r_sorted[1:]
    points = [(0.0, 0.0)] + list(zip(fp[last].tolist(), fy[last].tolist()))
    return LorenzCurve(points=tuple(points))


def gini_index(curve: LorenzCurve) -> float:
    """1 - 2 * integral of F_y dF_p by the trapezoid rule over the curve."""
    fp = curve.baseline_shares
    fy = curve.outcome_shares
    area = float(np.sum((fy[1:] + fy[:-1]) / 2.0 * np.diff(fp)))
    return 1.0 - 2.0 * area


def gini(y: np.ndarray, p: np.ndarray, y_hat: np.ndarray) -> float:
    return gini_index(ordered_lorenz(y, p, y_hat))


def pairwise_gini_matrix(y: np.ndarray, predictions: dict) -> dict:
    """All ordered pairs of models as (baseline, model) Gini entries.

    Returns ``{"names": [...], "matrix": K x K list}`` where the
    diagonal is None and entry (i, j) uses model i as the baseline.
    """
    names = list(predictions)
    if len(names) < 2:
        raise GiniDomainError("need at least two prediction sets")
    k = len(names)
    matrix = [[None] * k for _ in range(k)]
    for i, baseline in enumerate(names):
        for j, model in enumerate(names):
            if i == j:
                continue
            try:
                matrix[i][j] = gini(y, predictions[baseline], predictions[model])
            except (GiniDomainError, DegeneratePredictionError) as exc:
                raise type(exc)(
                    f"pair (baseline={baseline!r}, model={model!r}): {exc}"
                ) from exc
    return {"names": names, "matrix": matrix}


def gini_standard_error(y: np.ndarray, p: np.ndarray, y_hat: np.ndarray,
                        n_splits: int = 20, split_fraction: float = 0.5,
                        seed: int = 0) -> tuple[float, float]:
    """Gini on the full set plus a standard error over random splits.

    Each split evaluates the Gini on a random ``split_fraction`` subset;
    the standard error is the sample standard deviation across the
    split-level values.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    n = y.size
    size = max(2, int(round(split_fraction * n)))
    values = []
    for _ in range(n_splits):
        rows = rng.choice(n, size=size, replace=False)
        values.append(gini(y[rows], np.asarray(p)[rows], np.asarray(y_hat)[rows]))
    return gini(y, p, y_hat), float(np.std(values, ddof=1))


def posterior_summary(draws: np.ndarray, bins: int = 30) -> dict:
    """Mean, sample variance, equal-width histogram, and 5/50/95 quantiles."""
    draws = np.asarray(draws, dtype=float)
    if draws.size < 2:
        raise ValueError("need at least two draws")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(draws.min()), float(draws.max())
    if lo == hi:
        counts = np.array([draws.size])
        edges = np.array([lo, hi])
    else:
        counts, edges = np.histogram(draws, bins=bins, range=(lo, hi))
    q05, q50, q95 = np.quantile(draws, [0.05, 0.5, 0.95])
    return {
        "mean": float(draws.mean()),
        "variance": float(draws.var(ddof=1)),
        "histogram_counts": counts.astype(int).tolist(),
        "histogram_edges": edges.tolist(),
        "q05": float(q05),
        "q50": float(q50),
        "q95": float(q95),
    }


def random_effect_bias(b_draws: np.ndarray, true_b: np.ndarray) -> dict:
    """Per-group posterior-mean bias against known simulation truth."""
    b_draws = np.atleast_2d(np.asarray(b_draws, dtype=float))
    true_b = np.asarray(true_b, dtype=float)
    if b_draws.shape[1] != true_b.shape[0]:
        raise ValueError(
            f"group mismatch: draws have {b_draws.shape[1]} groups, truth has {true_b.shape[0]}"
        )
    bias = b_draws.mean(axis=0) - true_b
    return {
        "bias": bias,
        "mean_absolute_bias": float(np.abs(bias).mean()),
        "max_absolute_bias": float(np.abs(bias).max()),
    }

