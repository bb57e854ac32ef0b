"""Ordered Lorenz curves, Gini indices, and posterior summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tweedie_avb.data import write_table
from tweedie_avb.evaluation import (
    DegeneratePredictionError,
    GiniDomainError,
    LorenzCurve,
    gini,
    gini_index,
    gini_standard_error,
    ordered_lorenz,
    pairwise_gini_matrix,
    posterior_summary,
    random_effect_bias,
)

Y = np.array([0.0, 1.0, 2.0])
ONES = np.ones(3)
MISORDERED = np.array([2.0, 1.0, 0.5])   # predicts high where outcomes are low
WELL_ORDERED = np.array([0.5, 1.0, 2.0])


class TestOrderedLorenz:
    def test_equal_relativities_give_diagonal(self):
        curve = ordered_lorenz(Y, ONES, ONES)
        assert_allclose(curve.baseline_shares, curve.outcome_shares)

    def test_misordered_hand_example(self):
        curve = ordered_lorenz(Y, ONES, MISORDERED)
        assert_allclose(curve.points,
                        [(0, 0), (1 / 3, 2 / 3), (2 / 3, 1.0), (1.0, 1.0)], rtol=1e-14)

    def test_well_ordered_hand_example(self):
        curve = ordered_lorenz(Y, ONES, WELL_ORDERED)
        assert_allclose(curve.points,
                        [(0, 0), (1 / 3, 0.0), (2 / 3, 1 / 3), (1.0, 1.0)], rtol=1e-14)

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 2, size=57)
        p = rng.uniform(0.1, 3, size=57)
        yh = rng.uniform(0.1, 3, size=57)
        curve = ordered_lorenz(y, p, yh)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_write_csv_gives_each_points_repr(self, tmp_path):
        points = ((0.0, 0.0), (1 / 3, 5e-324), (np.float64(2 / 3), 1e-7), (1.0, 1.0))
        write_table(tmp_path / "c.csv", ["F_p", "F_y"], LorenzCurve(points=points).points)
        want = "F_p,F_y\r\n" + "".join(f"{float(a)!r},{float(b)!r}\r\n" for a, b in points)
        assert (tmp_path / "c.csv").read_bytes().decode() == want

    def test_degenerate_predictions(self):
        with pytest.raises(DegeneratePredictionError):
            ordered_lorenz(Y, ONES, np.zeros(3))

    def test_nonpositive_baseline(self):
        with pytest.raises(GiniDomainError):
            ordered_lorenz(Y, np.array([1.0, 0.0, 1.0]), WELL_ORDERED)

    def test_curve_invariants_enforced(self):
        with pytest.raises(GiniDomainError):
            LorenzCurve(points=((0.1, 0.0), (1.0, 1.0)))
        with pytest.raises(GiniDomainError):
            LorenzCurve(points=((0.0, 0.0), (0.5, 0.8), (1.0, 0.2)))


class TestGiniIndex:
    def test_diagonal_is_zero(self):
        assert gini(Y, ONES, ONES) == 0.0

    def test_misordered_hand_value(self):
        assert_allclose(gini(Y, ONES, MISORDERED), 1.0 - 2.0 * (13.0 / 18.0), atol=1e-12)
        assert_allclose(gini(Y, ONES, MISORDERED), -4.0 / 9.0, atol=1e-12)

    def test_well_ordered_hand_value(self):
        assert_allclose(gini(Y, ONES, WELL_ORDERED), 1.0 - 2.0 * (5.0 / 18.0), atol=1e-12)
        assert_allclose(gini(Y, ONES, WELL_ORDERED), 4.0 / 9.0, atol=1e-12)

    def test_self_vs_self_is_zero_exactly(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.2, 5.0, size=40)
        y = rng.uniform(0.0, 3.0, size=40)
        assert gini(y, p, p) == 0.0

    @given(scale=st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_bit_exact(self, scale):
        base = gini(Y, ONES, MISORDERED)
        assert gini(Y, ONES, MISORDERED * scale) == base

    def test_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            y = rng.uniform(0, 4, size=15)
            p = rng.uniform(0.1, 4, size=15)
            yh = rng.uniform(0.01, 4, size=15)
            assert -1.0 <= gini(y, p, yh) <= 1.0


class TestPairwiseMatrix:
    def test_identical_models_zero(self):
        preds = {"a": WELL_ORDERED, "b": WELL_ORDERED.copy()}
        result = pairwise_gini_matrix(Y, preds)
        assert result["matrix"][0][1] == 0.0
        assert result["matrix"][1][0] == 0.0

    def test_asymmetry(self):
        preds = {"mis": MISORDERED, "well": WELL_ORDERED}
        result = pairwise_gini_matrix(Y, preds)
        assert result["matrix"][0][1] != result["matrix"][1][0]

    def test_three_models_six_entries(self):
        preds = {"a": WELL_ORDERED, "b": MISORDERED, "c": ONES}
        result = pairwise_gini_matrix(Y, preds)
        filled = sum(v is not None for row in result["matrix"] for v in row)
        assert filled == 6
        assert all(result["matrix"][i][i] is None for i in range(3))

    def test_error_carries_pair_context(self):
        preds = {"a": ONES, "bad": np.zeros(3)}
        with pytest.raises(DegeneratePredictionError, match="baseline='a'"):
            pairwise_gini_matrix(Y, preds)

    def test_needs_two_models(self):
        with pytest.raises(GiniDomainError):
            pairwise_gini_matrix(Y, {"only": ONES})

    def test_csv_shape(self, tmp_path):
        preds = {"a": WELL_ORDERED, "b": MISORDERED}
        result = pairwise_gini_matrix(Y, preds)
        path = tmp_path / "m.csv"
        write_table(path, ["baseline\\model", *result["names"]],
                    ([name, *row] for name, row in zip(result["names"], result["matrix"])))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("a,b")


class TestStandardError:
    def test_runs_and_matches_point_estimate(self):
        rng = np.random.default_rng(21)
        y = rng.uniform(0, 3, size=200)
        p = np.ones(200)
        yh = y + rng.uniform(0.1, 1.0, size=200)
        point, se = gini_standard_error(y, p, yh, n_splits=20, seed=0)
        assert point == gini(y, p, yh)
        assert se >= 0.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(22)
        y = rng.uniform(0, 3, size=60)
        yh = rng.uniform(0.1, 2, size=60)
        a = gini_standard_error(y, np.ones(60), yh, seed=4)
        b = gini_standard_error(y, np.ones(60), yh, seed=4)
        assert a == b


class TestPosteriorSummary:
    def test_constant_draws(self):
        s = posterior_summary(np.ones(4))
        assert s["mean"] == 1.0
        assert s["variance"] == 0.0
        assert sum(s["histogram_counts"]) == 4

    def test_hand_arithmetic(self):
        s = posterior_summary(np.array([1.0, 2.0, 3.0]))
        assert s["mean"] == 2.0
        assert s["variance"] == 1.0

    def test_histogram_partition(self):
        draws = np.random.default_rng(7).normal(size=500)
        s = posterior_summary(draws, bins=17)
        assert sum(s["histogram_counts"]) == 500
        assert len(s["histogram_edges"]) == 18

    def test_quantile_order(self):
        draws = np.random.default_rng(9).normal(size=300)
        s = posterior_summary(draws)
        assert s["q05"] <= s["q50"] <= s["q95"]

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            posterior_summary(np.array([1.0]))


class TestRandomEffectBias:
    def test_perfect_draws(self):
        truth = np.array([0.3, -0.2])
        draws = np.tile(truth, (10, 1))
        report = random_effect_bias(draws, truth)
        assert_allclose(report["bias"], 0.0, atol=1e-12)
        assert report["mean_absolute_bias"] < 1e-12

    def test_constant_offset(self):
        truth = np.array([0.3, -0.2, 0.0])
        draws = np.tile(truth + 0.1, (5, 1))
        report = random_effect_bias(draws, truth)
        assert_allclose(report["bias"], 0.1, rtol=1e-12)
        assert_allclose(report["max_absolute_bias"], 0.1, rtol=1e-12)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            random_effect_bias(np.zeros((3, 2)), np.zeros(4))
