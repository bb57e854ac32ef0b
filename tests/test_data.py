"""CSV ingestion, splitting, standardization, and simulation."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tweedie_avb.data import (
    SchemaConfig,
    SchemaError,
    SimTruth,
    SplitError,
    SplitSpec,
    csv_schema_for,
    load_csv,
    simulate_dataset,
    split_dataset,
    standardize,
    write_csv,
)
from tweedie_avb.model import Dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dict_reader_load_csv(path, schema):
    """The csv.DictReader loader that load_csv replaced: its reference for full rows."""
    def parse(text, row, column):
        try:
            return float(text)
        except ValueError:
            raise SchemaError(
                f"unparseable numeric cell {text!r} at row {row}, column {column!r}"
            ) from None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [schema.response_column, *schema.fixed_columns]
        if schema.group_column is not None:
            needed.append(schema.group_column)
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"missing columns {missing} in {path}")
        rows = list(reader)
    if not rows:
        raise SchemaError(f"no data rows in {path}")
    responses = np.empty(len(rows))
    for i, row in enumerate(rows):
        responses[i] = parse(row[schema.response_column], i, schema.response_column)
        if responses[i] < 0:
            raise SchemaError(f"negative response {responses[i]} at row {i}")
    columns, names = [], []
    for col in schema.fixed_columns:
        raw = [row[col] for row in rows]
        if col in schema.categorical_columns:
            levels = sorted(set(raw))
            for level in levels[1:]:
                names.append(f"{col}={level}")
                columns.append(np.array([1.0 if v == level else 0.0 for v in raw]))
        else:
            names.append(col)
            columns.append(np.array([parse(v, i, col) for i, v in enumerate(raw)]))
    design = np.column_stack(columns) if columns else np.zeros((len(rows), 0))
    levels, group_index = None, np.zeros(len(rows), dtype=int)
    if schema.group_column is not None:
        labels = [row[schema.group_column] for row in rows]
        levels = sorted(set(labels))
        encode = {lvl: i for i, lvl in enumerate(levels)}
        group_index = np.array([encode[v] for v in labels], dtype=int)
    return Dataset(responses=responses, fixed_design=design, group_index=group_index,
                   group_count=0 if levels is None else len(levels), column_names=names,
                   group_levels=levels)


def load_or_error(loader, path, schema):
    try:
        return loader(path, schema)
    except SchemaError as exc:
        return str(exc)


NUMERIC_CELLS = ["0", "1.5", "2e-3", " 4 ", "-0.0", "-1", "-2.5e300", "nan", "inf", "1_0",
                 "", "oops", "1,5", '3"']
LABELS = ["a", "b", "B", "a b", "c,d", 'e"f', "g\nh", "", "1"]


@st.composite
def csv_files(draw):
    """A CSV text and a schema over it: shuffled columns, perhaps a repeated or an
    unused one, quoted or bare cells, blank lines, extra trailing cells."""
    columns = draw(st.permutations(["y", "x", "c", "g", "u"]))
    columns = columns[:draw(st.integers(3, 5))]
    if draw(st.booleans()):
        columns.append(draw(st.sampled_from(columns)))
    fixed = [c for c in ("x", "c") if c in columns and draw(st.booleans())]
    schema = SchemaConfig(
        response_column="y", fixed_columns=tuple(draw(st.permutations(fixed))),
        group_column="g" if draw(st.booleans()) else None,
        categorical_columns=("c",) if "c" in fixed else ())
    cell = {"y": NUMERIC_CELLS, "x": NUMERIC_CELLS, "c": LABELS, "g": LABELS, "u": LABELS}
    rows = draw(st.lists(st.tuples(*(st.sampled_from(cell[c]) for c in columns)),
                         max_size=6))
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(columns)
    for row in rows:
        if draw(st.booleans()):
            out.write("\r\n" * draw(st.integers(1, 2)))
        writer.writerow([*row, *draw(st.lists(st.sampled_from(LABELS), max_size=2))])
    return out.getvalue(), schema


class TestSchemaConfig:
    def test_overlap_rejected(self):
        with pytest.raises(SchemaError):
            SchemaConfig(response_column="y", fixed_columns=("y", "x"))

    def test_categorical_must_be_fixed(self):
        with pytest.raises(SchemaError):
            SchemaConfig(response_column="y", fixed_columns=("x",),
                         categorical_columns=("z",))

    def test_dict_round_trip(self):
        schema = SchemaConfig(response_column="y", fixed_columns=("a", "b"),
                              group_column="g", categorical_columns=("b",))
        assert SchemaConfig(**schema.to_dict()) == schema

    @pytest.mark.parametrize("doc", [
        {"response_column": "y", "fixed_columns": ["x"], "group_colum": "g"},
        {"fixed_columns": ["x"]},
    ])
    def test_unknown_or_missing_key_rejected(self, doc):
        with pytest.raises(TypeError, match="group_colum|response_column"):
            SchemaConfig(**doc)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,x", "0,1.5", "1.5,2.0", "2.0,-0.5"])
        data = load_csv(path, SchemaConfig(response_column="y", fixed_columns=("x",)))
        assert data.n_obs == 3
        assert data.n_covariates == 1
        assert_allclose(data.responses, [0.0, 1.5, 2.0])

    def test_categorical_drop_first(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,c", "1,red", "2,blue", "3,green"])
        schema = SchemaConfig(response_column="y", fixed_columns=("c",),
                              categorical_columns=("c",))
        data = load_csv(path, schema)
        assert data.n_covariates == 2
        assert data.column_names == ["c=green", "c=red"]

    def test_group_label_encoding(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,x,g", "1,0,A", "2,0,B", "3,0,A"])
        schema = SchemaConfig(response_column="y", fixed_columns=("x",), group_column="g")
        data = load_csv(path, schema)
        assert list(data.group_index) == [0, 1, 0]
        assert data.group_count == 2
        assert data.group_levels == ["A", "B"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y", "1"])
        with pytest.raises(SchemaError, match="missing columns"):
            load_csv(path, SchemaConfig(response_column="y", fixed_columns=("x",)))

    def test_unparseable_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,x", "1,2", "1,oops"])
        with pytest.raises(SchemaError, match="row 1, column 'x'"):
            load_csv(path, SchemaConfig(response_column="y", fixed_columns=("x",)))

    def test_negative_response_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["y,x", "-1,2"])
        with pytest.raises(SchemaError, match="negative response"):
            load_csv(path, SchemaConfig(response_column="y", fixed_columns=("x",)))

    @pytest.mark.parametrize("short,cells", [("0.0,0.1", 2), (",,", 3), ('""', 1)])
    def test_short_row_rejected(self, tmp_path, short, cells):
        # a missing response, covariate, categorical or group cell is named, not a TypeError
        path = tmp_path / "d.csv"
        write_lines(path, ["y,x,c,g", "1.0,0.5,red,g1", "", short, "2.0,0.1,blue,g2"])
        schema = SchemaConfig(response_column="y", fixed_columns=("x", "c"),
                              categorical_columns=("c",), group_column="g")
        with pytest.raises(SchemaError, match=f"row 1 has {cells} cells but the header has 4"):
            load_csv(path, schema)

    @settings(max_examples=300, deadline=None)
    @given(csv_files())
    @example(("y,x\r\n", SchemaConfig(response_column="y", fixed_columns=("x",))))
    @example(("", SchemaConfig(response_column="y", fixed_columns=())))
    @example(("\r\ny\r\n1\r\n", SchemaConfig(response_column="y", fixed_columns=())))
    @example(("y,x,x\r\n1,2,3\r\n", SchemaConfig(response_column="y", fixed_columns=("x",))))
    @example(("y,x\r\n\r\n1,2,extra\r\n\r\n\r\n1,oops\r\n",
              SchemaConfig(response_column="y", fixed_columns=("x",))))
    def test_matches_the_dict_reader_loader(self, tmp_path_factory, case):
        # same Dataset, or the same SchemaError message, as the DictReader loader
        text, schema = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = load_or_error(load_csv, path, schema)
        want = load_or_error(dict_reader_load_csv, path, schema)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for field in ("responses", "fixed_design", "group_index"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert (got.group_count, got.column_names, got.group_levels) == \
            (want.group_count, want.column_names, want.group_levels)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(
            responses=np.concatenate([[0.0], rng.uniform(0.01, 5.0, 9)]),
            fixed_design=rng.standard_normal((10, 3)),
            group_index=rng.integers(0, 4, 10),
            group_count=4,
            column_names=["x0", "x1", "x2"],
        )
        path = tmp_path / "d.csv"
        write_csv(data, path)
        back = load_csv(path, csv_schema_for(data))
        assert (back.responses == data.responses).all()
        assert (back.fixed_design == data.fixed_design).all()
        assert (back.group_index == data.group_index).all()

    def test_writes_each_cells_repr(self, tmp_path):
        # the shortest repr of every float, whatever its exponent or sign
        values = [0.0, 5e-324, 0.1, 1e-7, 1e16, 123456789012345678.0, 2.5]
        negated = [-v for v in values]
        groups = [0, 1, 2, 0, 1, 2, 11]
        data = Dataset(responses=values, fixed_design=np.column_stack([values[::-1], negated]),
                       group_index=groups, group_count=12, column_names=["a", "b"])
        write_csv(data, tmp_path / "d.csv")
        rows = [[repr(y), repr(a), repr(b), f"g{g:04d}"]
                for y, a, b, g in zip(values, values[::-1], negated, groups)]
        want = "".join(",".join(r) + "\r\n" for r in [["y", "a", "b", "group"], *rows])
        assert (tmp_path / "d.csv").read_bytes().decode() == want


class TestSplit:
    def test_paper_fractions(self):
        data = Dataset(responses=np.zeros(100), fixed_design=np.zeros((100, 1)),
                       group_index=np.zeros(100, dtype=int), group_count=1)
        train, valid, test = split_dataset(data, SplitSpec(0.5, 0.25, 0.25, seed=0))
        assert (train.n_obs, valid.n_obs, test.n_obs) == (50, 25, 25)

    def test_small_m_rounding(self):
        data = Dataset(responses=np.zeros(10), fixed_design=np.zeros((10, 1)),
                       group_index=np.zeros(10, dtype=int), group_count=1)
        train, valid, test = split_dataset(data, SplitSpec(0.5, 0.25, 0.25, seed=0))
        assert (train.n_obs, valid.n_obs, test.n_obs) == (6, 2, 2)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for m in (4, 7, 23, 100):
            responses = rng.uniform(0, 1, m)
            data = Dataset(responses=responses, fixed_design=np.zeros((m, 1)),
                           group_index=np.zeros(m, dtype=int), group_count=1)
            parts = split_dataset(data, SplitSpec(0.5, 0.25, 0.25, seed=int(m)))
            combined = np.concatenate([p.responses for p in parts])
            assert combined.size == m
            assert_allclose(np.sort(combined), np.sort(responses))

    def test_bad_fractions(self):
        with pytest.raises(SplitError):
            SplitSpec(0.5, 0.3, 0.3)
        with pytest.raises(SplitError):
            SplitSpec(0.0, 0.5, 0.5)

    def test_too_few_rows(self):
        data = Dataset(responses=np.zeros(3), fixed_design=np.zeros((3, 1)),
                       group_index=np.zeros(3, dtype=int), group_count=1)
        with pytest.raises(SplitError):
            split_dataset(data, SplitSpec(0.5, 0.25, 0.25))


class TestStandardize:
    def test_hand_case(self):
        data = Dataset(responses=np.zeros(3), fixed_design=np.array([[1.0], [2.0], [3.0]]),
                       group_index=np.zeros(3, dtype=int), group_count=1)
        std, _, means, scales = standardize(data)
        assert_allclose(std.fixed_design[:, 0], [-1.0, 0.0, 1.0])
        assert means[0] == 2.0
        assert scales[0] == 1.0  # sample standard deviation with ddof=1

    def test_transform_reapplies_exactly(self):
        rng = np.random.default_rng(5)
        data = Dataset(responses=np.zeros(20), fixed_design=rng.standard_normal((20, 2)),
                       group_index=np.zeros(20, dtype=int), group_count=1)
        copy = data.subset(np.arange(20))
        std, (std_copy,), _, _ = standardize(data, [copy])
        assert (std.fixed_design == std_copy.fixed_design).all()

    def test_one_hot_untouched(self):
        design = np.column_stack([np.array([0.0, 1.0, 1.0, 0.0]),
                                  np.array([1.0, 5.0, 9.0, 13.0])])
        data = Dataset(responses=np.zeros(4), fixed_design=design,
                       group_index=np.zeros(4, dtype=int), group_count=1)
        std, _, means, scales = standardize(data)
        assert (std.fixed_design[:, 0] == design[:, 0]).all()
        assert means[0] == 0.0 and scales[0] == 1.0
        assert abs(std.fixed_design[:, 1].mean()) < 1e-12

    def test_constant_column_warns(self):
        design = np.full((5, 1), 3.0)
        data = Dataset(responses=np.zeros(5), fixed_design=design,
                       group_index=np.zeros(5, dtype=int), group_count=1)
        with pytest.warns(RuntimeWarning, match="zero variance"):
            std, _, _, _ = standardize(data)
        assert (std.fixed_design == design).all()


class TestSimulate:
    def test_zero_sigma_zero_weights(self):
        truth = SimTruth(fixed_weights=np.zeros(1), p_index=1.5, dispersion=2.0,
                         sigma_b=0.0, n_obs=50_000, group_count=0)
        data, _ = simulate_dataset(truth, np.random.default_rng(0))
        frac = (data.responses == 0.0).mean()
        p0 = math.exp(-1.0)  # mu=1, p=1.5, phi=2 gives lam=1
        se = math.sqrt(p0 * (1 - p0) / data.n_obs)
        assert abs(frac - p0) < 3 * se

    def test_mean_matches_truth(self):
        truth = SimTruth(fixed_weights=np.array([0.2, 0.3]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.0, n_obs=100_000, group_count=0)
        rng = np.random.default_rng(3)
        data, _ = simulate_dataset(truth, rng)
        mu = np.exp(0.2 + 0.3 * data.fixed_design[:, 0])
        var = (1.0 * mu ** 1.5).mean()
        se = math.sqrt(var / data.n_obs)
        assert abs(data.responses.mean() - mu.mean()) < 3 * se

    def test_deterministic(self):
        truth = SimTruth(fixed_weights=np.array([0.1, -0.2]), p_index=1.4,
                         dispersion=0.8, sigma_b=0.3, n_obs=100, group_count=4)
        a, ta = simulate_dataset(truth, np.random.default_rng(7))
        b, tb = simulate_dataset(truth, np.random.default_rng(7))
        assert (a.responses == b.responses).all()
        assert (ta.b == tb.b).all()

    def test_realized_b_returned(self):
        truth = SimTruth(fixed_weights=np.zeros(1), p_index=1.5, dispersion=1.0,
                         sigma_b=0.5, n_obs=30, group_count=3)
        _, realized = simulate_dataset(truth, np.random.default_rng(1))
        assert realized.b is not None and realized.b.shape == (3,)

    def test_outputs_valid(self):
        truth = SimTruth(fixed_weights=np.array([0.0, 0.5]), p_index=1.8,
                         dispersion=2.0, sigma_b=0.4, n_obs=500, group_count=5)
        data, _ = simulate_dataset(truth, np.random.default_rng(11))
        assert ((data.responses == 0.0) | (data.responses > 0.0)).all()
        assert data.group_index.max() < 5

    def test_dict_round_trip_and_unknown_key(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.2]), p_index=1.5, dispersion=1.0,
                         sigma_b=0.3, n_obs=10, group_count=2, b=np.array([0.1, -0.1]))
        doc = json.loads(json.dumps(truth.to_dict()))
        assert SimTruth(**doc).to_dict() == doc
        with pytest.raises(TypeError, match="group_cont"):
            SimTruth(**{**doc, "group_cont": 2})

    def test_truth_validation(self):
        with pytest.raises(ValueError):
            SimTruth(fixed_weights=np.zeros(1), p_index=2.5, dispersion=1.0,
                     sigma_b=0.1, n_obs=10)
        with pytest.raises(ValueError):
            SimTruth(fixed_weights=np.zeros(1), p_index=1.5, dispersion=1.0,
                     sigma_b=0.1, n_obs=10, group_count=2, b=np.zeros(3))

    @pytest.mark.parametrize("setting,named", [
        ({"group_count": -2}, "group_count"),
        ({"fixed_weights": []}, "fixed_weights"),
        ({"fixed_weights": [[0.1, 0.3]]}, "fixed_weights"),
        ({"fixed_weights": [0.1, float("nan")]}, "fixed_weights"),
    ])
    def test_truth_simulate_cannot_use_rejected(self, setting, named):
        # each of these once simulated a group-free dataset or failed inside numpy
        doc = {"fixed_weights": [0.1, 0.3], "p_index": 1.5, "dispersion": 1.0,
               "sigma_b": 0.5, "n_obs": 10, "group_count": 2}
        with pytest.raises(ValueError, match=named):
            SimTruth(**{**doc, **setting})
