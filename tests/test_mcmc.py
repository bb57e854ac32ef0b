"""Random-walk Metropolis validator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tweedie_avb.data import SimTruth, simulate_dataset
from tweedie_avb.mcmc import (
    ChainConfig,
    ChainConfigError,
    ChainResult,
    log_unnormalized_posterior,
    run_chain,
    run_chain_generic,
)
from tweedie_avb.model import (
    Dataset,
    LatentAssignment,
    globals_log_prior,
    model_log_likelihood_value,
)
from tweedie_avb.tweedie import LOG_2PI, TruncationConfig


class TestChainConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(iterations=100, burn_in=100)

    def test_positive_steps(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(step_sizes={"w": -0.1})

    def test_dict_round_trip(self):
        cfg = ChainConfig(iterations=500, burn_in=100, thinning=2, seed=7)
        assert ChainConfig.from_dict(cfg.to_dict()) == cfg


class TestLogPosterior:
    def test_matches_shared_likelihood_path(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.2]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.4, n_obs=20, group_count=2)
        data, _ = simulate_dataset(truth, np.random.default_rng(0))
        z = LatentAssignment(fixed_weights=np.array([0.05, 0.1]), raw_p=0.2,
                             raw_log_dispersion=-0.1, raw_log_sigma_b=-0.5,
                             group_noise=np.array([0.3, -0.2]))
        t = TruncationConfig()
        got = log_unnormalized_posterior(data, z, t)
        raw = np.array([0.05, 0.1, 0.2, -0.1, -0.5])
        prior = float(np.sum(-0.5 * LOG_2PI - 0.5 * raw ** 2))
        assert_allclose(got, model_log_likelihood_value(data, z, t) + prior, rtol=1e-12)

    def test_hand_case_single_zero_observation(self):
        data = Dataset(responses=np.array([0.0]), fixed_design=np.zeros((1, 0)),
                       group_index=np.zeros(1, dtype=int), group_count=0)
        z = LatentAssignment(fixed_weights=np.zeros(1), raw_p=0.0,
                             raw_log_dispersion=math.log(2.0), raw_log_sigma_b=0.0,
                             group_noise=np.zeros(0))
        got = log_unnormalized_posterior(data, z, TruncationConfig())
        # likelihood -lam = -1; Gaussian prior at (0, 0, log 2, 0)
        prior = 4 * (-0.5 * LOG_2PI) - 0.5 * math.log(2.0) ** 2
        assert_allclose(got, -1.0 + prior, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_prior_term_is_the_shared_globals_prior(self, seed):
        # the chain targets the likelihood plus the same prior the critic samples
        rng = np.random.default_rng(seed)
        truth = SimTruth(fixed_weights=np.array([0.1, 0.2, -0.3]), p_index=1.4,
                         dispersion=1.2, sigma_b=0.5, n_obs=15, group_count=3)
        data, _ = simulate_dataset(truth, rng)
        raw = 0.5 * rng.standard_normal(6)
        z = LatentAssignment(fixed_weights=raw[:3], raw_p=raw[3], raw_log_dispersion=raw[4],
                             raw_log_sigma_b=raw[5], group_noise=np.zeros(3))
        b = 0.3 * rng.standard_normal(3)
        t = TruncationConfig()
        got = log_unnormalized_posterior(data, z, t, b=b)
        assert got == model_log_likelihood_value(data, z, t, b=b) + globals_log_prior(raw)

    @given(w=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
           raw_p=st.floats(-1e3, 1e3) | st.sampled_from([-45.0, -40.5, 40.5, 45.0]),
           raw_log_dispersion=st.floats(-1e3, 1e3) | st.sampled_from([-710.0, 709.5, 710.0]),
           raw_log_sigma_b=st.floats(-1e3, 1e3) | st.sampled_from([-710.0, -400.0, 710.0]),
           b=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    # p_index rounds to 1; lambda overflows; sigma_b ** 2 underflows at b = 0;
    # b / sigma_b overflows
    @example(w=[0.0, 0.0], raw_p=-37.0, raw_log_dispersion=0.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=-710.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-710.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-710.0,
             b=[0.0, 0.0, 1.0])
    def test_extreme_raw_globals_give_finite_or_minus_inf(self, w, raw_p, raw_log_dispersion,
                                                          raw_log_sigma_b, b):
        # anything else than these errors escapes run_chain's target
        data = prior_only_dataset()
        z = LatentAssignment(fixed_weights=np.array(w), raw_p=raw_p,
                             raw_log_dispersion=raw_log_dispersion,
                             raw_log_sigma_b=raw_log_sigma_b, group_noise=np.zeros(3))
        try:
            lp = log_unnormalized_posterior(data, z, TruncationConfig(), b=np.array(b))
        except (OverflowError, FloatingPointError, ValueError):
            return
        assert math.isfinite(lp) or lp == -math.inf


class TestGenericChain:
    def test_standard_normal_target(self):
        cfg = ChainConfig(iterations=52_000, burn_in=2_000, thinning=1, seed=0,
                          step_sizes={"x": 2.4})
        result = run_chain_generic(
            lambda s: float(-0.5 * s["x"][0] ** 2), {"x": np.zeros(1)}, cfg)
        draws = result.draws["x"][:, 0]
        assert draws.size == 50_000
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_deterministic_given_seed(self):
        cfg = ChainConfig(iterations=500, burn_in=100, thinning=5, seed=3)

        def run():
            return run_chain_generic(
                lambda s: float(-0.5 * np.sum(s["w"] ** 2)), {"w": np.zeros(2)}, cfg)

        a, b = run(), run()
        assert (a.draws["w"] == b.draws["w"]).all()
        assert a.acceptance == b.acceptance

    def test_low_acceptance_warns(self):
        cfg = ChainConfig(iterations=300, burn_in=100, thinning=1, seed=0,
                          tune=False, step_sizes={"x": 5000.0})
        with pytest.warns(RuntimeWarning, match="step size"):
            run_chain_generic(lambda s: float(-0.5 * s["x"][0] ** 2),
                              {"x": np.zeros(1)}, cfg)

    def test_retained_count(self):
        cfg = ChainConfig(iterations=1000, burn_in=200, thinning=10, seed=1)
        result = run_chain_generic(lambda s: float(-0.5 * s["x"][0] ** 2),
                                   {"x": np.zeros(1)}, cfg)
        assert result.retained == 80


def prior_only_dataset(g=3):
    return Dataset(responses=np.array([0.0, 1.0, 0.5, 0.0]),
                   fixed_design=np.zeros((4, 1)),
                   group_index=np.array([0, 1, 2, 0]), group_count=g)


class TestModelChain:
    def test_prior_only_moments(self):
        # with the likelihood disabled the chain must reproduce the
        # standard normal prior over the raw globals
        data = prior_only_dataset()
        cfg = ChainConfig(iterations=24_000, burn_in=4_000, thinning=2, seed=0,
                          step_sizes={"w": 1.0, "raw_p": 1.5,
                                      "raw_log_dispersion": 1.5,
                                      "raw_log_sigma_b": 1.0, "b": 1.5})
        result = run_chain(data, cfg, include_likelihood=False)
        n = result.retained
        for name in ("w", "raw_p", "raw_log_dispersion", "raw_log_sigma_b"):
            draws = result.draws[name]
            # autocorrelated chain: use a generous effective-sample factor
            se = math.sqrt(1.0 / n) * 6.0
            assert np.abs(draws.mean(axis=0)).max() < 3 * se
            assert np.abs(draws.var(axis=0) - 1.0).max() < 0.25

    def test_acceptance_rates_in_range(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.3]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.4, n_obs=120, group_count=3)
        data, _ = simulate_dataset(truth, np.random.default_rng(2))
        cfg = ChainConfig(iterations=3000, burn_in=1500, thinning=3, seed=0)
        result = run_chain(data, cfg)
        for name, rate in result.acceptance.items():
            assert 0.0 <= rate <= 1.0
            assert 0.1 <= rate <= 0.6, f"block {name} acceptance {rate}"

    def test_json_schema_matches_fit_result(self):
        data = prior_only_dataset()
        cfg = ChainConfig(iterations=300, burn_in=100, thinning=10, seed=0)
        result = run_chain(data, cfg, include_likelihood=False)
        doc = result.to_json_dict()
        assert set(doc["draws"]) == {"fixed_weights", "p_index", "dispersion",
                                     "sigma_b", "b"}
        p = np.asarray(doc["draws"]["p_index"])
        assert ((p > 1.0) & (p < 2.0)).all()

    def test_seed_change_keeps_long_run_means(self):
        data = prior_only_dataset()
        cfg_a = ChainConfig(iterations=12_000, burn_in=2_000, thinning=2, seed=0,
                            step_sizes={"w": 1.0, "raw_p": 1.5,
                                        "raw_log_dispersion": 1.5,
                                        "raw_log_sigma_b": 1.0, "b": 1.5})
        cfg_b = ChainConfig(**{**cfg_a.to_dict(), "seed": 99})
        a = run_chain(data, cfg_a, include_likelihood=False)
        b = run_chain(data, cfg_b, include_likelihood=False)
        assert (a.draws["w"] != b.draws["w"]).any()
        se = math.sqrt(1.0 / a.retained) * 6.0
        assert abs(a.draws["raw_p"].mean() - b.draws["raw_p"].mean()) < 2 * 3 * se
