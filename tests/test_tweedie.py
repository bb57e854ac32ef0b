"""Distribution mathematics: parameter maps, densities, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from tweedie_avb.tweedie import (
    CompoundParams,
    EdmParams,
    InvalidParameterError,
    NonConvergenceError,
    TruncationConfig,
    TruncationConfigError,
    joint_log_density,
    marginal_log_likelihood,
    series_log_density_oracle,
    series_slope,
    summation_range,
    to_compound,
    to_edm,
    tweedie_log_pdf,
    tweedie_moments,
    tweedie_sample,
    tweedie_sample_array,
)

PHI_325 = 2.0 ** -0.25 * 1.5 ** 0.75 / 0.75  # dispersion for (lam=2, alpha=3, beta=0.5)


class TestParameterMaps:
    def test_to_edm_unit_case(self):
        e = to_edm(CompoundParams(lam=1.0, alpha=1.0, beta=1.0))
        assert_allclose([e.mu, e.p_index, e.dispersion], [1.0, 1.5, 2.0], rtol=1e-14)

    def test_to_edm_second_case(self):
        e = to_edm(CompoundParams(lam=2.0, alpha=3.0, beta=0.5))
        assert_allclose([e.mu, e.p_index, e.dispersion], [3.0, 1.25, PHI_325], rtol=1e-14)

    def test_large_alpha_limit(self):
        e = to_edm(CompoundParams(lam=1.0, alpha=1e6, beta=1.0))
        assert abs(e.p_index - 1.0) < 1e-5

    def test_to_compound_unit_case(self):
        c = to_compound(EdmParams(mu=1.0, p_index=1.5, dispersion=2.0))
        assert_allclose([c.lam, c.alpha, c.beta], [1.0, 1.0, 1.0], rtol=1e-14)

    def test_to_compound_second_case(self):
        c = to_compound(EdmParams(mu=3.0, p_index=1.25, dispersion=PHI_325))
        assert_allclose([c.lam, c.alpha, c.beta], [2.0, 3.0, 0.5], rtol=1e-12)

    def test_round_trip_fixed_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = CompoundParams(
                lam=float(rng.uniform(0.01, 100.0)),
                alpha=float(rng.uniform(0.05, 20.0)),
                beta=float(rng.uniform(0.01, 100.0)),
            )
            e = to_edm(c)
            assert 1.0 < e.p_index < 2.0
            back = to_compound(e)
            assert_allclose([back.lam, back.alpha, back.beta],
                            [c.lam, c.alpha, c.beta], rtol=1e-10)

    @given(
        mu=st.floats(0.05, 50.0),
        p=st.floats(1.01, 1.99),
        phi=st.floats(0.05, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, mu, p, phi):
        e = EdmParams(mu=mu, p_index=p, dispersion=phi)
        back = to_edm(to_compound(e))
        assert_allclose([back.mu, back.p_index, back.dispersion],
                        [mu, p, phi], rtol=1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompoundParams(lam=-1.0, alpha=1.0, beta=1.0)
        with pytest.raises(InvalidParameterError):
            CompoundParams(lam=math.inf, alpha=1.0, beta=1.0)
        with pytest.raises(InvalidParameterError):
            EdmParams(mu=1.0, p_index=2.5, dispersion=1.0)
        with pytest.raises(InvalidParameterError):
            EdmParams(mu=1.0, p_index=1.0, dispersion=1.0)


class TestJointDensity:
    def test_zero_branch(self):
        c = CompoundParams(lam=2.0, alpha=1.0, beta=1.0)
        assert joint_log_density(0.0, 0, c) == -2.0

    def test_positive_branch_by_hand(self):
        # Gamma(1; 1, 1) = e^-1 and Poisson(1; 1) = e^-1
        c = CompoundParams(lam=1.0, alpha=1.0, beta=1.0)
        assert_allclose(joint_log_density(1.0, 1, c), -2.0, rtol=1e-14)

    def test_mismatched_branches(self):
        c = CompoundParams(lam=1.0, alpha=1.0, beta=1.0)
        assert joint_log_density(0.0, 3, c) == -math.inf
        assert joint_log_density(1.0, 0, c) == -math.inf

    def test_negative_y_rejected(self):
        c = CompoundParams(lam=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(InvalidParameterError):
            joint_log_density(-0.1, 1, c)
        with pytest.raises(InvalidParameterError):
            joint_log_density(1.0, -1, c)


class TestMarginal:
    def test_zero_branch_exact(self):
        c = CompoundParams(lam=1.7, alpha=0.3, beta=2.0)
        assert marginal_log_likelihood(0.0, c, TruncationConfig(n_max=5)) == -1.7

    def test_single_term_equals_joint(self):
        c = CompoundParams(lam=1.0, alpha=1.0, beta=1.0)
        got = marginal_log_likelihood(1.0, c, TruncationConfig(n_max=1, adaptive=False))
        assert_allclose(got, -2.0, rtol=1e-14)

    def test_monotone_in_n_max(self):
        c = CompoundParams(lam=2.0, alpha=1.5, beta=0.8)
        v2 = marginal_log_likelihood(3.0, c, TruncationConfig(n_max=2, adaptive=False))
        v10 = marginal_log_likelihood(3.0, c, TruncationConfig(n_max=10, adaptive=False))
        assert v10 >= v2

    def test_adaptive_window_covers_mode(self):
        c = to_compound(EdmParams(mu=1.0, p_index=1.5, dispersion=0.5))
        slope = series_slope(np.array([8.0]), c.lam, c.alpha, c.beta)
        lo, hi, _ = summation_range(slope, c.alpha, TruncationConfig(n_max=10, adaptive=True))
        assert lo[0] >= 1
        assert hi[0] - lo[0] >= 10
        # wide-window reference: the mode must be inside the summed range
        from tweedie_avb.tweedie import _log_summand
        wide = np.arange(1, 200)
        mode = wide[np.argmax(_log_summand(8.0, wide, c))]
        assert lo[0] <= mode < hi[0]

    def test_bad_truncation_rejected(self):
        with pytest.raises(TruncationConfigError):
            TruncationConfig(n_max=0)


class TestSeriesOracle:
    def test_zero_branch(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=2.0)
        assert series_log_density_oracle(0.0, e) == -1.0

    def test_agreement_with_wide_marginal(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)
        oracle = series_log_density_oracle(2.0, e, rel_tol=1e-12)
        wide = marginal_log_likelihood(2.0, to_compound(e),
                                       TruncationConfig(n_max=50, adaptive=True))
        assert abs(oracle - wide) < 1e-8

    def test_normalization(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)
        lam = to_compound(e).lam
        upper = e.mu + 20.0 * math.sqrt(e.dispersion * e.mu ** e.p_index)
        integral, _ = quad(
            lambda y: math.exp(series_log_density_oracle(y, e, rel_tol=1e-10)),
            0.0, upper, limit=200,
        )
        assert abs(math.exp(-lam) + integral - 1.0) < 1e-4

    def test_rel_tol_validated(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)
        with pytest.raises(InvalidParameterError):
            series_log_density_oracle(1.0, e, rel_tol=0.1)
        with pytest.raises(InvalidParameterError):
            series_log_density_oracle(1.0, e, rel_tol=0.0)

    def test_nonconvergence_reports_last_value(self):
        err = NonConvergenceError("x", last_value=-3.5)
        assert err.last_value == -3.5


class TestVectorizedPdf:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        p, phi = 1.4, 0.8
        t = TruncationConfig(n_max=10, adaptive=True)
        y = np.concatenate([[0.0], rng.uniform(0.05, 6.0, size=20)])
        mu = rng.uniform(0.3, 4.0, size=y.size)
        vec = tweedie_log_pdf(y, mu, p, phi, t)
        for i in range(y.size):
            c = to_compound(EdmParams(mu=float(mu[i]), p_index=p, dispersion=phi))
            assert_allclose(vec[i], marginal_log_likelihood(float(y[i]), c, t),
                            rtol=1e-12, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            tweedie_log_pdf(np.array([-1.0]), np.array([1.0]), 1.5, 1.0,
                            TruncationConfig())

    def test_rejects_series_past_term_budget(self):
        # the summand's mode for y = 1e300 lies far beyond any table the sum may build
        with pytest.raises(InvalidParameterError):
            tweedie_log_pdf(np.array([1e300]), np.array([1.0]), 1.5, 1.0,
                            TruncationConfig())


class TestSampling:
    def test_zero_fraction(self):
        rng = np.random.default_rng(0)
        c = CompoundParams(lam=1.0, alpha=1.0, beta=1.0)
        n = 100_000
        draws = np.array([tweedie_sample(c, rng) for _ in range(n)])
        frac = (draws == 0.0).mean()
        p0 = math.exp(-1.0)
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(frac - p0) < 3 * se

    def test_mean_and_variance(self):
        rng = np.random.default_rng(1)
        c = CompoundParams(lam=2.0, alpha=3.0, beta=0.5)
        e = to_edm(c)
        n = 200_000
        draws = tweedie_sample_array(np.full(n, c.lam), c.alpha,
                                     np.full(n, c.beta), rng)
        mean, var = tweedie_moments(e)
        assert abs(draws.mean() - mean) / mean < 0.01
        assert abs(draws.var() - var) / var < 0.03

    def test_deterministic_given_seed(self):
        c = CompoundParams(lam=1.5, alpha=2.0, beta=0.7)
        a = [tweedie_sample(c, np.random.default_rng(9)) for _ in range(3)]
        b = [tweedie_sample(c, np.random.default_rng(9)) for _ in range(3)]
        assert a == b

    def test_samples_zero_or_strictly_positive(self):
        rng = np.random.default_rng(2)
        draws = tweedie_sample_array(np.full(5000, 0.5), 1.2, np.full(5000, 0.4), rng)
        assert ((draws == 0.0) | (draws > 0.0)).all()

    def test_sampler_matches_density_ks(self):
        # Kolmogorov-Smirnov distance between positive-part samples and
        # the numerically integrated oracle CDF
        rng = np.random.default_rng(3)
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)
        c = to_compound(e)
        n = 100_000
        draws = tweedie_sample_array(np.full(n, c.lam), c.alpha, np.full(n, c.beta), rng)
        pos = np.sort(draws[draws > 0.0])
        grid = np.quantile(pos, np.linspace(0.02, 0.98, 25))
        cdf_emp = np.searchsorted(pos, grid, side="right") / pos.size
        p0 = math.exp(-c.lam)
        cdf_model = np.array([
            quad(lambda y: math.exp(series_log_density_oracle(y, e, rel_tol=1e-10)),
                 0.0, g, limit=200)[0] / (1.0 - p0)
            for g in grid
        ])
        assert np.max(np.abs(cdf_emp - cdf_model)) < 0.01


class TestMoments:
    def test_unit_fixed_point(self):
        assert tweedie_moments(EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)) == (1.0, 1.0)

    def test_hand_case(self):
        mean, var = tweedie_moments(EdmParams(mu=4.0, p_index=1.5, dispersion=2.0))
        assert mean == 4.0
        assert_allclose(var, 16.0, rtol=1e-14)

    def test_power_irrelevant_at_unit_mean(self):
        mean, var = tweedie_moments(EdmParams(mu=1.0, p_index=1.999, dispersion=3.0))
        assert (mean, var) == (1.0, 3.0)
