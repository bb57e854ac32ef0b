"""CSV ingestion, splitting, standardization, and synthetic data.

CSV files are UTF-8 with a header row, comma delimiter, and '.' decimal
separator.  A schema maps columns to roles: one nonnegative response,
fixed-effect covariates (categoricals one-hot expanded with the first
level dropped), and an optional group column for the random intercept.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Dataset
from .tweedie import compound_arrays, tweedie_sample_array


class SchemaError(ValueError):
    """Schema/CSV mismatch: missing columns, bad cells, bad roles."""


class SplitError(ValueError):
    """Split fractions are inconsistent or produce an empty partition."""


@dataclass(frozen=True)
class SchemaConfig:
    """Column-role mapping for a CSV dataset."""

    response_column: str
    fixed_columns: tuple
    group_column: Optional[str] = None
    categorical_columns: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "fixed_columns", tuple(self.fixed_columns))
        object.__setattr__(self, "categorical_columns", tuple(self.categorical_columns))
        names = [self.response_column, *self.fixed_columns]
        if self.group_column is not None:
            names.append(self.group_column)
        if len(set(names)) != len(names):
            raise SchemaError(f"column roles overlap: {names}")
        for col in self.categorical_columns:
            if col not in self.fixed_columns:
                raise SchemaError(f"categorical column {col!r} not among fixed columns")

    def to_dict(self) -> dict:
        return {**asdict(self), "fixed_columns": list(self.fixed_columns),
                "categorical_columns": list(self.categorical_columns)}

    @classmethod
    def from_dict(cls, d: dict) -> "SchemaConfig":
        return cls(**d)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions plus the shuffle seed."""

    train: float = 0.5
    valid: float = 0.25
    test: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name, f in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if not (0.0 < f < 1.0):
                raise SplitError(f"{name} fraction must lie in (0, 1), got {f}")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-12:
            raise SplitError(
                f"fractions must sum to 1, got {self.train + self.valid + self.test!r}"
            )
        if self.seed < 0:
            raise SplitError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SplitSpec":
        return cls(**d)


@dataclass
class SimTruth:
    """Ground-truth parameters for synthetic data generation."""

    fixed_weights: np.ndarray
    p_index: float
    dispersion: float
    sigma_b: float
    n_obs: int
    group_count: int = 0
    b: Optional[np.ndarray] = None
    covariate_scale: float = 1.0

    def __post_init__(self):
        self.fixed_weights = np.asarray(self.fixed_weights, dtype=float)
        if not (1.0 < self.p_index < 2.0):
            raise ValueError(f"p_index must lie in (1, 2), got {self.p_index}")
        if self.dispersion <= 0 or self.sigma_b < 0:
            raise ValueError("dispersion must be positive and sigma_b nonnegative")
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be >= 1, got {self.n_obs}")
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=float)
            if self.b.shape != (self.group_count,):
                raise ValueError("b must have one entry per group")

    @property
    def n_covariates(self) -> int:
        return self.fixed_weights.size - 1

    def to_dict(self) -> dict:
        return {**asdict(self), "fixed_weights": self.fixed_weights.tolist(),
                "b": None if self.b is None else self.b.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SimTruth":
        return cls(**d)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(
            f"unparseable numeric cell {text!r} at row {row}, column {column!r}"
        ) from None


def _encode(labels: Sequence[str]) -> tuple:
    """Sorted distinct labels and each label's index among them."""
    levels = sorted(set(labels))
    index = {lvl: k for k, lvl in enumerate(levels)}
    return levels, np.array([index[v] for v in labels], dtype=int)


def load_csv(path, schema: SchemaConfig) -> Dataset:
    """Read a CSV into a Dataset under the given column-role schema.

    Blank lines are skipped, and row numbers in errors count the
    remaining data rows from 0.  Categorical covariates are one-hot
    expanded with the first (sorted) level dropped; the group column is
    label-encoded to 0..G-1 in sorted label order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        needed = [schema.response_column, *schema.fixed_columns]
        if schema.group_column is not None:
            needed.append(schema.group_column)
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"missing columns {missing} in {path}")
        rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"no data rows in {path}")
    for i, row in enumerate(rows):
        if len(row) < len(header):
            raise SchemaError(f"row {i} has {len(row)} cells but the header has {len(header)}")
    # one pass transposes the rows; a repeated header name reads its last column
    cells = dict(zip(header, zip(*rows)))

    responses = []
    for i, text in enumerate(cells[schema.response_column]):
        value = _parse_cell(text, i, schema.response_column)
        if value < 0:
            raise SchemaError(f"negative response {value} at row {i}")
        responses.append(value)

    columns = []
    names = []
    categorical = set(schema.categorical_columns)
    for col in schema.fixed_columns:
        raw = cells[col]
        if col in categorical:
            levels, codes = _encode(raw)
            for k, level in enumerate(levels[1:], start=1):
                names.append(f"{col}={level}")
                columns.append((codes == k).astype(float))
        else:
            names.append(col)
            columns.append(np.array([_parse_cell(v, i, col) for i, v in enumerate(raw)]))
    design = np.column_stack(columns) if columns else np.zeros((len(rows), 0))

    if schema.group_column is not None:
        levels, group_index = _encode(cells[schema.group_column])
        group_count = len(levels)
    else:
        levels = None
        group_index = np.zeros(len(rows), dtype=int)
        group_count = 0

    return Dataset(
        responses=np.array(responses),
        fixed_design=design,
        group_index=group_index,
        group_count=group_count,
        column_names=names,
        group_levels=levels,
    )


def write_csv(data: Dataset, path, response_column: str = "y",
              group_column: str = "group") -> None:
    """Write a Dataset so that :func:`load_csv` round-trips it bit-exactly."""
    names = data.column_names or [f"x{j}" for j in range(data.n_covariates)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [response_column, *names]
        if data.group_count > 0:
            header.append(group_column)
        writer.writerow(header)
        for i in range(data.n_obs):
            row = [repr(float(data.responses[i]))]
            row.extend(repr(float(v)) for v in data.fixed_design[i])
            if data.group_count > 0:
                row.append(f"g{data.group_index[i]:04d}")
            writer.writerow(row)


def csv_schema_for(data: Dataset, response_column: str = "y",
                   group_column: str = "group") -> SchemaConfig:
    """Schema matching the layout produced by :func:`write_csv`."""
    names = data.column_names or [f"x{j}" for j in range(data.n_covariates)]
    return SchemaConfig(
        response_column=response_column,
        fixed_columns=tuple(names),
        group_column=group_column if data.group_count > 0 else None,
    )


# ---------------------------------------------------------------------------
# Splitting and standardization
# ---------------------------------------------------------------------------

def split_dataset(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous train/valid/test partition.

    Valid and test sizes round to nearest; train absorbs the remainder.
    """
    m = data.n_obs
    if m < 4:
        raise SplitError(f"need at least 4 rows to split, got {m}")
    n_valid = round(spec.valid * m)
    n_test = round(spec.test * m)
    n_train = m - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise SplitError(
            f"fractions {spec.train}/{spec.valid}/{spec.test} give an empty partition for M={m}"
        )
    perm = np.random.default_rng(spec.seed).permutation(m)
    train = data.subset(perm[:n_train])
    valid = data.subset(perm[n_train:n_train + n_valid])
    test = data.subset(perm[n_train + n_valid:])
    return train, valid, test


def standardize(train: Dataset, others: Sequence[Dataset] = ()) -> tuple:
    """Shift/scale continuous covariates to train mean 0, sample std 1.

    One-hot columns (train values all in {0, 1}) and zero-variance
    columns are left untouched; the latter with a warning.  The train
    transform is applied unchanged to every other dataset.  Returns
    (train_std, [others_std], means, scales); untouched columns carry
    mean 0 and scale 1.
    """
    if train.n_obs == 0:
        raise ValueError("train dataset is empty")
    x = train.fixed_design
    means = np.zeros(train.n_covariates)
    scales = np.ones(train.n_covariates)
    for j in range(train.n_covariates):
        col = x[:, j]
        if np.isin(col, (0.0, 1.0)).all():
            continue
        std = col.std(ddof=1) if train.n_obs > 1 else 0.0
        if std == 0.0:
            warnings.warn(
                f"column {j} ({train.column_names[j] if train.column_names else j}) "
                "has zero variance; left unstandardized",
                RuntimeWarning,
            )
            continue
        means[j] = col.mean()
        scales[j] = std
    return (apply_standardization(train, means, scales),
            [apply_standardization(ds, means, scales) for ds in others], means, scales)


def apply_standardization(ds: Dataset, means: np.ndarray, scales: np.ndarray) -> Dataset:
    """Copy of ``ds`` with covariate column j mapped to (x - means[j]) / scales[j]."""
    return Dataset(
        responses=ds.responses.copy(),
        fixed_design=(ds.fixed_design - means) / scales,
        group_index=ds.group_index.copy(),
        group_count=ds.group_count,
        column_names=list(ds.column_names),
        group_levels=ds.group_levels,
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_dataset(truth: SimTruth, rng: np.random.Generator) -> tuple[Dataset, SimTruth]:
    """Draw a synthetic dataset with known ground truth.

    Covariates are standard normal (times ``covariate_scale``), groups
    uniform, intercepts b ~ N(0, sigma_b^2) unless supplied, responses
    compound Poisson-Gamma under the log link.  Returns the dataset and
    a copy of the truth with the realized intercepts filled in.
    """
    m, d, g = truth.n_obs, truth.n_covariates, truth.group_count
    x = truth.covariate_scale * rng.standard_normal((m, d))
    if g > 0:
        groups = rng.integers(0, g, size=m)
        b = truth.b if truth.b is not None else truth.sigma_b * rng.standard_normal(g)
    else:
        groups = np.zeros(m, dtype=int)
        b = np.zeros(0)
    eta = truth.fixed_weights[0] + x @ truth.fixed_weights[1:]
    if g > 0:
        eta = eta + b[groups]
    mu = np.exp(eta)
    p, phi = truth.p_index, truth.dispersion
    lam, alpha, beta = compound_arrays(mu, p, phi)
    y = tweedie_sample_array(lam, alpha, beta, rng)
    data = Dataset(
        responses=y,
        fixed_design=x,
        group_index=groups,
        group_count=g,
        column_names=[f"x{j}" for j in range(d)],
    )
    realized = SimTruth(
        fixed_weights=truth.fixed_weights.copy(),
        p_index=p,
        dispersion=phi,
        sigma_b=truth.sigma_b,
        n_obs=m,
        group_count=g,
        b=b.copy() if g > 0 else None,
        covariate_scale=truth.covariate_scale,
    )
    return data, realized
