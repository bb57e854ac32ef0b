"""Distribution mathematics: parameter maps, densities, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import digamma, gammaln

from tweedie_avb import tweedie
from tweedie_avb.tweedie import (
    TAIL_REL_TOL,
    CompoundParams,
    EdmParams,
    InvalidParameterError,
    NonConvergenceError,
    compound_arrays,
    joint_log_density,
    marginal_log_likelihood,
    series_log_density_oracle,
    series_slope,
    summation_range,
    to_compound,
    to_edm,
    tweedie_log_pdf,
    tweedie_log_pdf_partials,
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
        assert marginal_log_likelihood(0.0, c) == -1.7

    def test_adaptive_window_covers_mode(self):
        c = to_compound(EdmParams(mu=1.0, p_index=1.5, dispersion=0.5))
        slope = series_slope(np.log([8.0]), 1.5, 0.5)
        lo, hi, _ = summation_range(slope, c.alpha)
        assert lo[0] >= 1
        assert hi[0] - lo[0] >= tweedie._CORE_WIDTH
        # wide-window reference: the mode must be inside the summed range
        from tweedie_avb.tweedie import _log_summand
        wide = np.arange(1, 200)
        mode = wide[np.argmax(_log_summand(8.0, wide, c))]
        assert lo[0] <= mode < hi[0]


class TestSummationRange:
    def test_matches_exhaustive_scan_of_kept_run(self):
        # lo/hi must equal the core window joined with the run of kept counts
        # through the mode, found here by scanning the whole count table
        rng = np.random.default_rng(20)
        past_window = below_window = above_core = below_core = 0
        width = tweedie._CORE_WIDTH
        for _ in range(3000):
            p = rng.uniform(1.01, 1.99)
            log_phi, log_y = rng.uniform(-3, 3), rng.uniform(-5, 5)
            alpha = (2.0 - p) / (p - 1.0)
            slope = series_slope(np.array([log_y]), p, math.exp(log_phi))
            lo, hi, log_mass = summation_range(slope, alpha)

            mode, table, peak = tweedie._summand_mode(slope, alpha, width)
            g = table[1:]
            n = np.arange(1, g.size + 1)
            terms = n * slope[0] - g
            kept = np.flatnonzero(terms >= peak[0] + math.log(TAIL_REL_TOL)) + 1
            assert kept[0] <= mode[0] <= kept[-1]
            assert kept.size == kept[-1] - kept[0] + 1, "kept counts are not one run"
            core_lo = max(1, mode[0] - width // 2)
            assert lo[0] == min(core_lo, kept[0])
            assert hi[0] == max(core_lo + width, kept[-1] + 1)
            assert_allclose(log_mass[0], np.logaddexp.reduce(terms[lo[0] - 1:hi[0] - 1]),
                            rtol=1e-13, atol=1e-13)
            past_window += hi[0] > core_lo + width + tweedie._SCAN_WINDOW
            below_window += lo[0] < core_lo - tweedie._SCAN_WINDOW
            above_core += core_lo > 1
            below_core += lo[0] < core_lo
        # the cases reach the lower side and the bisection past either scan window
        assert past_window > 50
        assert below_window > 50
        assert above_core > 500
        assert below_core > 50


P_GRID = [1.001, 1.01, 1.2, 1.5, 1.8, 1.99, 1.999]


class TestCountTables:
    @pytest.mark.parametrize("p", P_GRID)
    def test_tables_match_scipy(self, p):
        alpha = (2.0 - p) / (p - 1.0)
        n = np.arange(1.0, 10_001.0)
        g = tweedie._count_table(alpha, 10_000)
        psi = tweedie._digamma_table(alpha, 10_000)
        assert g.shape == (10_001,) and psi.shape == (10_000,) and g[0] == np.inf
        # atol for the values near 0: G(1) = lgamma(alpha) at alpha near 1 or 2, and
        # digamma near its root 1.4616...
        assert_allclose(g[1:], gammaln(n * alpha) + gammaln(n + 1.0), rtol=1e-13, atol=1e-14)
        assert_allclose(psi, digamma(n * alpha), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("p", P_GRID)
    def test_extended_table_equals_fresh_build(self, p):
        # the doubling in _summand_mode asks for longer tables of one alpha: each is
        # built afresh and starts with the shorter ones, bit for bit
        alpha = (2.0 - p) / (p - 1.0)
        long_g = tweedie._count_table(alpha, 5000)
        long_psi = tweedie._digamma_table(alpha, 5000)
        for size in (3, 10, 40, 41, 700):
            np.testing.assert_array_equal(tweedie._count_table(alpha, size), long_g[:size + 1])
            np.testing.assert_array_equal(tweedie._digamma_table(alpha, size), long_psi[:size])
        # a cached table is shared, so callers cannot write it
        assert not tweedie._count_table(alpha, 10).flags.writeable

    def test_cache_stays_bounded(self):
        for k, alpha in enumerate(np.linspace(0.01, 50.0, 1000)):
            tweedie._count_table(float(alpha), 40 << k % 4)
        assert tweedie._count_table.cache_info().currsize <= tweedie._TABLES_KEPT
        assert tweedie._log_factorials.cache_info().currsize <= tweedie._TABLES_KEPT

    def test_recent_alpha_is_kept(self):
        # the chain's pattern: an index-parameter proposal at a fresh alpha, then a
        # dispersion proposal at the accepted one, which must find its table kept
        accepted = tweedie._count_table(0.5, 40)
        for alpha in np.linspace(1.0, 3.0, 50):
            tweedie._count_table(float(alpha), 40)
            assert tweedie._count_table(0.5, 40) is accepted

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1.15, 1.85), phi=st.floats(0.2, 5.0),
           history=st.lists(st.just(0.0) | st.floats(-0.1, 0.1), max_size=6))
    def test_results_do_not_depend_on_earlier_alphas(self, p, phi, history):
        # history holds the offsets from p of the index parameters evaluated before
        rng = np.random.default_rng(0)
        y = np.where(rng.random(64) < 0.3, 0.0, rng.gamma(0.7, 3.0, 64))
        mu = rng.gamma(2.0, 1.0, 64)
        log_y = np.log(y[y > 0])

        def bits():
            return [a.tobytes() for a in (tweedie.series_terms(log_y, p, phi),
                                          *tweedie_log_pdf_partials(y, mu, p, phi))]

        for offset in history:
            tweedie_log_pdf_partials(y, mu, p + offset, phi)
        after_history = bits()
        tweedie._count_table.cache_clear()
        assert bits() == after_history


class TestSeriesOracle:
    def test_zero_branch(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=2.0)
        assert series_log_density_oracle(0.0, e) == -1.0

    def test_agreement_with_wide_marginal(self):
        e = EdmParams(mu=1.0, p_index=1.5, dispersion=1.0)
        oracle = series_log_density_oracle(2.0, e, rel_tol=1e-12)
        assert abs(oracle - marginal_log_likelihood(2.0, to_compound(e))) < 1e-8

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
        y = np.concatenate([[0.0], rng.uniform(0.05, 6.0, size=20)])
        mu = rng.uniform(0.3, 4.0, size=y.size)
        vec = tweedie_log_pdf(y, mu, p, phi)
        for i in range(y.size):
            c = to_compound(EdmParams(mu=float(mu[i]), p_index=p, dispersion=phi))
            assert_allclose(vec[i], marginal_log_likelihood(float(y[i]), c),
                            rtol=1e-12, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            tweedie_log_pdf(np.array([-1.0]), np.array([1.0]), 1.5, 1.0)

    def test_rejects_series_past_term_budget(self):
        # the summand's mode for y = 1e300 lies far beyond any table the sum may build
        with pytest.raises(InvalidParameterError):
            tweedie_log_pdf(np.array([1e300]), np.array([1.0]), 1.5, 1.0)


class TestSplitDensity:
    def test_matches_compound_form(self):
        # a - u - v against the compound form log_mass - log(y) - y / beta - lambda
        rng = np.random.default_rng(8)
        for _ in range(50):
            p, phi = rng.uniform(1.05, 1.95), math.exp(rng.uniform(-3.0, 3.0))
            y = np.where(rng.random(40) < 0.3, 0.0, rng.uniform(1e-3, 50.0, 40))
            mu = np.exp(rng.uniform(-5.0, 5.0, 40))
            lam, alpha, beta = compound_arrays(mu, p, phi)
            pos = y > 0.0
            log_y, lamp, betap = np.log(y[pos]), lam[pos], beta[pos]
            _, _, log_mass = summation_range(alpha * (log_y - np.log(betap)) + np.log(lamp),
                                             alpha)
            expected = -lam
            expected[pos] = log_mass - log_y - y[pos] / betap - lamp
            assert_allclose(tweedie_log_pdf(y, mu, p, phi), expected, rtol=1e-10, atol=1e-10)

    @given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                                   st.floats(-5.0, 5.0)), min_size=1, max_size=6),
           p=st.floats(1.05, 1.95), log_phi=st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_partials_match_central_differences(self, rows, p, log_phi):
        y, log_mu = np.array(rows).T
        h = 1e-5

        def log_pdf(log_mu, p, log_phi):
            return tweedie_log_pdf(y, np.exp(log_mu), p, math.exp(log_phi))

        _, d_log_mu, d_p, d_log_phi = tweedie_log_pdf_partials(y, np.exp(log_mu), p,
                                                               math.exp(log_phi))
        for analytic, up, down in (
                (d_log_mu, log_pdf(log_mu + h, p, log_phi), log_pdf(log_mu - h, p, log_phi)),
                (d_p, log_pdf(log_mu, p + h, log_phi), log_pdf(log_mu, p - h, log_phi)),
                (d_log_phi, log_pdf(log_mu, p, log_phi + h), log_pdf(log_mu, p, log_phi - h))):
            fd = (up - down) / (2.0 * h)
            assert (np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)) < 1e-4).all()

    @pytest.mark.parametrize("p, phi", [(1.0, 1.0), (2.0, 1.0), (1.5, 0.0), (1.5, -1.0),
                                        (1.5, math.inf), (1.5, math.nan), (1.5, 5e-324)])
    def test_series_rejects_out_of_range_parameters(self, p, phi):
        # the series alone, without the mean terms' checks, fails typed, not in math.log
        with pytest.raises(InvalidParameterError):
            tweedie.series_terms(np.log([1.0, 2.0]), p, phi)

    def test_no_series_without_positive_rows(self, monkeypatch):
        def summed_terms(*args):
            raise AssertionError("the series was summed with no positive y")

        monkeypatch.setattr(tweedie, "_summed_terms", summed_terms)
        for y in (np.zeros(0), np.zeros(5)):
            mu = np.full(y.size, 4.0)
            # v = mu ** (2 - p) / (phi * (2 - p)) = 2 at p = 1.5, phi = 2
            assert_allclose(tweedie_log_pdf(y, mu, 1.5, 2.0), np.full(y.size, -2.0))
            assert_allclose(tweedie_log_pdf_partials(y, mu, 1.5, 2.0)[0], np.full(y.size, -2.0))


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

    def test_scalar_draw_follows_poisson_then_gamma(self):
        # the scalar draw is the array draw; a zero count takes nothing from the stream, so
        # equal seeds give the Poisson-then-Gamma recipe's draws, one for one
        params = np.random.default_rng(6)
        for seed in range(3000):
            c = CompoundParams(lam=math.exp(params.uniform(-4.0, 2.0)),
                               alpha=math.exp(params.uniform(-3.0, 2.0)),
                               beta=math.exp(params.uniform(-3.0, 2.0)))
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                n = int(ref.poisson(c.lam))
                expected = float(ref.gamma(n * c.alpha, c.beta)) if n else 0.0
                assert tweedie_sample(c, rng) == expected

    def test_array_alpha_matches_scalar_alpha(self):
        lam, beta = np.linspace(0.1, 3.0, 400), np.linspace(0.2, 1.5, 400)
        scalar = tweedie_sample_array(lam, 1.7, beta, np.random.default_rng(4))
        array = tweedie_sample_array(lam, np.full(400, 1.7), beta, np.random.default_rng(4))
        assert (scalar == array).all()

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
