"""Random-walk Metropolis validator."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tweedie_avb import mcmc, model
from tweedie_avb.data import SimTruth, simulate_dataset
from tweedie_avb.mcmc import (
    BLOCK_ORDER,
    ChainConfig,
    ChainConfigError,
    log_unnormalized_posterior,
    run_chain,
)
from tweedie_avb.model import Dataset, globals_log_prior, model_log_likelihood_value
from tweedie_avb.tweedie import LOG_2PI


#: Raw globals and intercepts out to where each numerical failure of the target sets in.
extreme_draws = given(
    w=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
    raw_p=st.floats(-1e3, 1e3) | st.sampled_from([-45.0, -40.5, 40.5, 45.0]),
    raw_log_dispersion=st.floats(-1e3, 1e3) | st.sampled_from([-710.0, 709.5, 710.0]),
    raw_log_sigma_b=st.floats(-1e3, 1e3)
    | st.sampled_from([-800.0, -746.0, -710.0, -400.0, 710.0]),
    b=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))


class TestChainConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(iterations=100, burn_in=100)

    def test_positive_steps(self):
        with pytest.raises(ChainConfigError):
            ChainConfig(step_sizes={"w": -0.1})

    @pytest.mark.parametrize("setting", [
        pytest.param({"burn_in": -1, "iterations": 0}, id="setting0"),
        pytest.param({"thinning": 0}, id="setting1"),
        pytest.param({"step_sizes": {"sigma_b": 0.1}}, id="setting4"),
    ])
    def test_out_of_range_settings_rejected(self, setting):
        with pytest.raises(ChainConfigError, match=next(iter(setting))):
            ChainConfig(**setting)

    def test_dict_round_trip(self):
        cfg = ChainConfig(iterations=500, burn_in=100, thinning=2, seed=7)
        assert ChainConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_step_sizes_keep_other_defaults(self):
        # a block the config leaves out starts at its default step, and the echo shows it
        default = ChainConfig(iterations=200, burn_in=100, thinning=5, seed=2)
        partial = ChainConfig(iterations=200, burn_in=100, thinning=5, seed=2,
                              step_sizes={"w": default.step_sizes["w"]})
        assert partial.to_dict() == default.to_dict()
        assert list(partial.step_sizes) == list(BLOCK_ORDER)
        a, b = run_chain(empty_dataset(), default), run_chain(empty_dataset(), partial)
        assert (a.draws["raw"] == b.draws["raw"]).all()
        assert (a.draws["b"] == b.draws["b"]).all()


class TestLogPosterior:
    def test_matches_shared_likelihood_path(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.2]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.4, n_obs=20, group_count=2)
        data, _ = simulate_dataset(truth, np.random.default_rng(0))
        raw = np.array([0.05, 0.1, 0.2, -0.1, -0.5])
        b = math.exp(-0.5) * np.array([0.3, -0.2])
        got = log_unnormalized_posterior(data, raw, b)
        prior = float(np.sum(-0.5 * LOG_2PI - 0.5 * raw ** 2))
        assert_allclose(got, model_log_likelihood_value(data, raw, b) + prior, rtol=1e-12)

    def test_hand_case_single_zero_observation(self):
        data = Dataset(responses=np.array([0.0]), fixed_design=np.zeros((1, 0)),
                       group_index=np.zeros(1, dtype=int), group_count=0)
        raw = np.array([0.0, 0.0, math.log(2.0), 0.0])
        got = log_unnormalized_posterior(data, raw, np.zeros(0))
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
        b = 0.3 * rng.standard_normal(3)
        got = log_unnormalized_posterior(data, raw, b)
        assert got == model_log_likelihood_value(data, raw, b) + globals_log_prior(raw)

    @extreme_draws
    @settings(max_examples=200, deadline=None)
    # p_index rounds to 1; lambda overflows; sigma_b ** 2 underflows at b = 0;
    # b / sigma_b overflows; sigma_b underflows to 0
    @example(w=[0.0, 0.0], raw_p=-37.0, raw_log_dispersion=0.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=-710.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-710.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-710.0,
             b=[0.0, 0.0, 1.0])
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-746.0, b=[0.0] * 3)
    def test_extreme_raw_globals_give_finite_or_minus_inf(self, w, raw_p, raw_log_dispersion,
                                                          raw_log_sigma_b, b):
        # the target run_chain samples maps numerical errors to -inf and raises nothing
        data = Dataset(responses=np.array([0.0, 1.0, 0.5, 0.0]), fixed_design=np.zeros((4, 1)),
                       group_index=np.array([0, 1, 2, 0]), group_count=3)
        raw = np.array([*w, raw_p, raw_log_dispersion, raw_log_sigma_b])
        lp = log_unnormalized_posterior(data, raw, np.array(b))
        assert math.isfinite(lp) or lp == -math.inf

    def test_wrong_length_intercepts_raise_shape_error(self):
        # a shape bug is not a numerical failure: it must not read as -inf and be rejected
        data = small_grouped_dataset()
        raw = np.zeros(data.n_covariates + 4)
        with pytest.raises(model.ShapeError):
            log_unnormalized_posterior(data, raw, np.zeros(data.group_count + 1))


def empty_dataset(g=3, d=1):
    """No rows: the data term is exactly 0 and the chain samples the prior."""
    return Dataset(responses=np.zeros(0), fixed_design=np.zeros((0, d)),
                   group_index=np.zeros(0, dtype=int), group_count=g)


class TestGenericChain:
    # the sampler's own behaviour, on the standard normal prior of an empty dataset

    def test_standard_normal_target(self):
        # four raw globals, each N(0, 1) a priori: 50,000 pooled draws
        cfg = ChainConfig(iterations=14_500, burn_in=2_000, thinning=1, seed=0,
                          step_sizes=dict.fromkeys(BLOCK_ORDER, 2.4))
        result = run_chain(empty_dataset(g=0, d=0), cfg)
        draws = result.draws["raw"]
        assert draws.size == 50_000
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_deterministic_given_seed(self):
        cfg = ChainConfig(iterations=500, burn_in=100, thinning=5, seed=3)
        a, b = run_chain(empty_dataset(), cfg), run_chain(empty_dataset(), cfg)
        assert (a.draws["raw"] == b.draws["raw"]).all()
        assert (a.draws["b"] == b.draws["b"]).all()
        assert a.acceptance == b.acceptance

    def test_low_acceptance_warns(self):
        # no burn-in, so no tuning: the step stays at 5000
        cfg = ChainConfig(iterations=300, burn_in=0, thinning=1, seed=0,
                          step_sizes={"w": 5000.0})
        with pytest.warns(RuntimeWarning, match="block 'w'.*step size"):
            run_chain(empty_dataset(g=0, d=0), cfg)

    def test_retained_count(self):
        cfg = ChainConfig(iterations=1000, burn_in=200, thinning=10, seed=1)
        result = run_chain(empty_dataset(), cfg)
        assert result.retained == 80
        assert result.draws["raw"].shape == (80, 5)
        assert result.draws["b"].shape == (80, 3)


class TestModelChain:
    def test_prior_only_moments(self):
        # on an empty dataset the chain must reproduce the standard normal
        # prior over the raw globals
        cfg = ChainConfig(iterations=24_000, burn_in=4_000, thinning=2, seed=0,
                          step_sizes={"w": 1.0, "raw_p": 1.5,
                                      "raw_log_dispersion": 1.5,
                                      "raw_log_sigma_b": 1.0, "b": 1.5})
        result = run_chain(empty_dataset(), cfg)
        n = result.retained
        for column in np.split(result.draws["raw"], [2, 3, 4], axis=1):
            # autocorrelated chain: use a generous effective-sample factor
            se = math.sqrt(1.0 / n) * 6.0
            assert np.abs(column.mean(axis=0)).max() < 3 * se
            assert np.abs(column.var(axis=0) - 1.0).max() < 0.25

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
        # the shapes FitResult stores: (n,) per scalar global, and (n, 0)
        # intercepts without groups
        cfg = ChainConfig(iterations=300, burn_in=100, thinning=10, seed=0)
        for g in (3, 0):
            data = empty_dataset(g)
            result = run_chain(data, cfg)
            doc = result.to_json_dict()
            n = result.retained
            shapes = {k: np.asarray(v).shape for k, v in doc["draws"].items()}
            assert shapes == {"fixed_weights": (n, data.n_covariates + 1), "p_index": (n,),
                              "dispersion": (n,), "sigma_b": (n,), "b": (n, g)}
            p = np.asarray(doc["draws"]["p_index"])
            assert ((p > 1.0) & (p < 2.0)).all()

    @pytest.mark.parametrize("grouped", [True, False])
    def test_save_writes_the_pure_python_encoders_bytes(self, tmp_path, grouped):
        # save uses json's C encoder; its bytes must stay those of json.dump
        data = small_grouped_dataset() if grouped else small_group_free_dataset()
        result = run_chain(data, ChainConfig(iterations=300, burn_in=100, thinning=10,
                                                  seed=0))
        result.save(tmp_path / "mcmc.json")
        with open(tmp_path / "reference.json", "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh)
        assert (tmp_path / "mcmc.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_seed_change_keeps_long_run_means(self):
        data = empty_dataset()
        cfg_a = ChainConfig(iterations=12_000, burn_in=2_000, thinning=2, seed=0,
                            step_sizes={"w": 1.0, "raw_p": 1.5,
                                        "raw_log_dispersion": 1.5,
                                        "raw_log_sigma_b": 1.0, "b": 1.5})
        cfg_b = ChainConfig(**{**cfg_a.to_dict(), "seed": 99})
        a = run_chain(data, cfg_a)
        b = run_chain(data, cfg_b)
        assert (a.draws["raw"][:, :2] != b.draws["raw"][:, :2]).any()
        se = math.sqrt(1.0 / a.retained) * 6.0
        assert abs(a.draws["raw"][:, 2].mean() - b.draws["raw"][:, 2].mean()) < 2 * 3 * se


def small_grouped_dataset():
    truth = SimTruth(fixed_weights=np.array([0.1, 0.3]), p_index=1.5,
                     dispersion=1.0, sigma_b=0.4, n_obs=60, group_count=3)
    return simulate_dataset(truth, np.random.default_rng(5))[0]


def small_group_free_dataset():
    truth = SimTruth(fixed_weights=np.array([0.1, 0.3]), p_index=1.5,
                     dispersion=1.0, sigma_b=0.4, n_obs=60, group_count=0)
    return simulate_dataset(truth, np.random.default_rng(6))[0]


def all_zero_dataset():
    """Responses all 0: no row has a series term."""
    data = small_grouped_dataset()
    return Dataset(responses=np.zeros(data.n_obs), fixed_design=data.fixed_design,
                   group_index=data.group_index, group_count=data.group_count)


def assert_same_target(got, want):
    """Equal within 1e-12 of the value, or both -inf."""
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert math.isfinite(want) and abs(got - want) <= 1e-12 * abs(want), (got, want)


class TestSplitTarget:
    def test_matches_one_part_target(self, monkeypatch):
        # the cached parts give the draws and acceptance of evaluating
        # log_unnormalized_posterior in full on every proposal
        cfg = ChainConfig(iterations=300, burn_in=100, thinning=3, seed=4)
        for data in (small_grouped_dataset(), small_group_free_dataset(), all_zero_dataset()):
            with monkeypatch.context() as patched:
                cached = run_chain(data, cfg)
                patched.setattr(mcmc._SplitTarget, "propose",
                                lambda self, block, raw, b: log_unnormalized_posterior(
                                    self.data, raw, b))
                full = run_chain(data, cfg)
            assert cached.acceptance == full.acceptance
            for part in ("raw", "b"):
                assert np.array_equal(cached.draws[part], full.draws[part])

    def test_sigma_b_proposals_skip_the_likelihood(self, monkeypatch):
        # only the first evaluation and the raw_p and raw_log_dispersion
        # proposals evaluate the series; the other blocks reuse it
        calls = []
        series = mcmc.series_terms

        def counted(*args, **kwargs):
            calls.append(1)
            return series(*args, **kwargs)

        monkeypatch.setattr(mcmc, "series_terms", counted)
        data = small_grouped_dataset()
        cfg = ChainConfig(iterations=40, burn_in=10, thinning=1, seed=0)
        run_chain(data, cfg)
        assert len(calls) == 1 + 2 * cfg.iterations

    @pytest.mark.parametrize("groups", [3, 0], ids=["grouped", "group_free"])
    @pytest.mark.parametrize("rows", [4, 0], ids=["rows", "no_rows"])
    @extreme_draws
    @settings(max_examples=100, deadline=None)
    # p_index rounds to 1; lambda overflows; sigma_b ** 2 underflows at b = 0;
    # sigma_b underflows to 0; eta past +30 and -30
    @example(w=[0.0, 0.0], raw_p=-37.0, raw_log_dispersion=0.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=-710.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-800.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-746.0, b=[0.0] * 3)
    @example(w=[30.5, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=0.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=0.0,
             b=[0.0, -31.0, 0.0])
    def test_parts_compose_to_the_one_target(self, groups, rows, w, raw_p, raw_log_dispersion,
                                             raw_log_sigma_b, b):
        # the part sum at a fresh state, and at a move of each block from an
        # accepted state, is log_unnormalized_posterior there
        data = Dataset(responses=np.array([0.0, 1.0, 0.5, 0.0])[:rows],
                       fixed_design=np.zeros((rows, 1)),
                       group_index=np.array([0, 1, 2, 0])[:rows], group_count=groups)
        n_raw = data.n_covariates + 4
        drawn = np.array([*w, raw_p, raw_log_dispersion, raw_log_sigma_b, *b[:groups]])
        fresh = mcmc._SplitTarget(data)
        assert_same_target(fresh.propose(None, drawn[:n_raw], drawn[n_raw:]),
                           log_unnormalized_posterior(data, drawn[:n_raw], drawn[n_raw:]))
        accepted = mcmc._SplitTarget(data)
        start = np.zeros_like(drawn)
        assert math.isfinite(accepted.propose(None, start[:n_raw], start[n_raw:]))
        accepted.accept()
        spans = {**model.raw_blocks(data.n_covariates), "b": slice(n_raw, None)}
        for name, span in spans.items():
            if name == "b" and not groups:
                continue
            moved = start.copy()
            moved[span] = drawn[span]
            assert_same_target(accepted.propose(name, moved[:n_raw], moved[n_raw:]),
                               log_unnormalized_posterior(data, moved[:n_raw], moved[n_raw:]))
