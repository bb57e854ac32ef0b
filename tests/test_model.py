"""Mixed-model assembly: predictors, constraint maps, likelihood paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tweedie_avb import tweedie
from tweedie_avb.autodiff import ParamStore, finite_diff_check
from tweedie_avb.model import (
    LIKELIHOOD_FAILURES,
    Dataset,
    FlaggedObservationError,
    ShapeError,
    globals_log_prior,
    linear_predictor,
    log_likelihood_partials,
    model_log_likelihood_value,
)
from tweedie_avb.tweedie import (
    LOG_2PI,
    CompoundParams,
    compound_arrays,
    series_slope,
    summation_range,
    to_edm,
)


def toy_dataset(m=5, d=2, g=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        responses=np.concatenate([[0.0], rng.uniform(0.1, 3.0, size=m - 1)]),
        fixed_design=rng.standard_normal((m, d)),
        group_index=rng.integers(0, g, size=m),
        group_count=g,
    )


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Dataset(responses=np.zeros(3), fixed_design=np.zeros((2, 1)),
                    group_index=np.zeros(3, dtype=int), group_count=1)
        with pytest.raises(ShapeError):
            Dataset(responses=np.zeros(3), fixed_design=np.zeros((3, 1)),
                    group_index=np.array([0, 0, 5]), group_count=2)

    def test_negative_response_rejected(self):
        with pytest.raises(ValueError):
            Dataset(responses=np.array([-1.0]), fixed_design=np.zeros((1, 1)),
                    group_index=np.zeros(1, dtype=int), group_count=1)

    def test_subset_preserves_structure(self):
        data = toy_dataset(m=6)
        sub = data.subset(np.array([0, 2, 4]))
        assert sub.n_obs == 3
        assert sub.group_count == data.group_count


class TestLinearPredictor:
    def test_zero_everything(self):
        data = toy_dataset()
        eta = linear_predictor(data, np.zeros(data.n_covariates + 1),
                               np.zeros(data.group_count))
        assert_allclose(eta, 0.0)

    def test_hand_case(self):
        data = Dataset(responses=np.array([1.0]), fixed_design=np.array([[2.0]]),
                       group_index=np.array([0]), group_count=1)
        eta = linear_predictor(data, np.array([0.5, 1.0]), np.array([-0.2]))
        assert_allclose(eta, [2.3])

    def test_row_permutation_equivariance(self):
        data = toy_dataset(m=7)
        w = np.array([0.1, 0.4, -0.3])
        b = np.array([0.2, -0.1])
        perm = np.random.default_rng(1).permutation(7)
        eta = linear_predictor(data, w, b)
        eta_perm = linear_predictor(data.subset(perm), w, b)
        assert_allclose(eta_perm, eta[perm])

    def test_dimension_mismatch(self):
        data = toy_dataset()
        with pytest.raises(ShapeError):
            linear_predictor(data, np.zeros(99), np.zeros(data.group_count))


class TestPerObsParams:
    """Per-row compound parameters under the log link, mu_i = exp(eta_i)."""

    def test_unit_case(self):
        lam, alpha, beta = compound_arrays(np.exp(np.array([0.0])), 1.5, 2.0)
        assert_allclose([lam[0], alpha, beta[0]], [1.0, 1.0, 1.0], rtol=1e-14)

    def test_mu_three_case(self):
        phi = 2.0 ** -0.25 * 1.5 ** 0.75 / 0.75
        lam, alpha, beta = compound_arrays(np.exp(np.array([math.log(3.0)])), 1.25, phi)
        assert_allclose([lam[0], alpha, beta[0]], [2.0, 3.0, 0.5], rtol=1e-12)

    def test_monotone_in_eta(self):
        lam, _, _ = compound_arrays(np.exp(np.array([-1.0, 0.0, 1.0])), 1.5, 1.0)
        assert list(lam) == sorted(lam)

    def test_overflow_flagged_with_index(self):
        # w = (0, 1) on covariates (0, 31) gives eta = (0, 31)
        data = Dataset(responses=np.zeros(2), fixed_design=np.array([[0.0], [31.0]]),
                       group_index=np.zeros(2, dtype=int), group_count=0)
        raw = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(FlaggedObservationError) as exc:
            log_likelihood_partials(data, raw, np.zeros(0))
        assert exc.value.index == 1

    def test_round_trip_through_edm(self):
        eta = np.array([-0.5, 0.7])
        lam, alpha, beta = compound_arrays(np.exp(eta), 1.3, 0.9)
        for l, b, e in zip(lam, beta, eta):
            back = to_edm(CompoundParams(lam=l, alpha=alpha, beta=b))
            assert_allclose([back.mu, back.p_index, back.dispersion],
                            [math.exp(e), 1.3, 0.9], rtol=1e-10)


def make_draw(d, g, seed=3):
    """Raw globals (sigma_b = 0.5) and intercepts b = sigma_b * noise."""
    rng = np.random.default_rng(seed)
    raw = np.array([*rng.normal(0, 0.3, size=d + 1), 0.1, -0.2, math.log(0.5)])
    return raw, math.exp(raw[-1]) * rng.standard_normal(g)


class TestGlobalsPrior:
    def test_standard_normal_log_density(self):
        raw = np.array([0.0, 1.5, -2.0])
        assert_allclose(globals_log_prior(raw), -1.5 * LOG_2PI - 0.5 * (1.5 ** 2 + 2.0 ** 2),
                        rtol=1e-15)

    def test_batch_gives_one_value_per_row(self):
        raw = np.random.default_rng(0).standard_normal((5, 4))
        got = globals_log_prior(raw)
        assert got.shape == (5,)
        assert (got == [globals_log_prior(row) for row in raw]).all()


class TestLikelihoodNumpy:
    def test_single_zero_observation(self):
        data = Dataset(responses=np.array([0.0]), fixed_design=np.zeros((1, 0)),
                       group_index=np.zeros(1, dtype=int), group_count=0)
        raw = np.array([0.0, 0.0, math.log(2.0), 0.0])
        # mu=1, p=1.5, phi=2 -> lam=1; no groups so no prior term
        assert_allclose(model_log_likelihood_value(data, raw, np.zeros(0)),
                        -1.0, rtol=1e-14)

    def test_doubling_dataset_doubles_data_term(self):
        data = toy_dataset(g=1)
        doubled = Dataset(
            responses=np.tile(data.responses, 2),
            fixed_design=np.tile(data.fixed_design, (2, 1)),
            group_index=np.tile(data.group_index, 2),
            group_count=1,
        )
        raw, b = make_draw(data.n_covariates, 1)
        sigma_b = math.exp(raw[-1])
        prior = float(-0.5 * LOG_2PI - math.log(sigma_b) - b[0] ** 2 / (2 * sigma_b ** 2))
        single = model_log_likelihood_value(data, raw, b) - prior
        double = model_log_likelihood_value(doubled, raw, b) - prior
        assert_allclose(double, 2.0 * single, rtol=1e-12)

    def test_group_relabel_invariance(self):
        data = toy_dataset(m=8, g=3, seed=4)
        raw, b = make_draw(data.n_covariates, 3)
        perm = np.array([2, 0, 1])
        relabeled = Dataset(
            responses=data.responses,
            fixed_design=data.fixed_design,
            group_index=perm[data.group_index],
            group_count=3,
        )
        assert_allclose(model_log_likelihood_value(data, raw, b),
                        model_log_likelihood_value(relabeled, raw, b[np.argsort(perm)]),
                        rtol=1e-12)

    def test_small_sigma_matches_fixed_effects_only(self):
        data = toy_dataset(m=6, g=1, seed=5)
        raw, _ = make_draw(data.n_covariates, 1)
        raw[-1] = -40.0
        b = math.exp(-40.0) * np.array([1.3])
        got = model_log_likelihood_value(data, raw, b)
        fixed_only = Dataset(responses=data.responses, fixed_design=data.fixed_design,
                             group_index=np.zeros(6, dtype=int), group_count=0)
        want = model_log_likelihood_value(fixed_only, raw, b)
        # b = sigma * eps is numerically negligible in eta, but the prior's
        # quadratic term stays eps^2 / 2 under the reparameterization
        prior = -0.5 * LOG_2PI - (-40.0) - 1.3 ** 2 / 2.0
        assert abs(got - (want + prior)) < 1e-9

    def test_overflow_propagates(self):
        data = toy_dataset()
        raw = np.array([40.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(FlaggedObservationError):
            model_log_likelihood_value(data, raw, np.zeros(data.group_count))


def partials_as_gradient(data, data_scale=1.0):
    """(value, gradient) over a store of the raw globals and the intercepts, jointly."""
    def f(p):
        value, d_raw, d_b = log_likelihood_partials(data, p.get("raw"), p.get("b"), data_scale)
        return value, np.concatenate([d_raw, d_b])
    return f


def latent_store(raw, b):
    store = ParamStore()
    store.register("raw", raw)
    store.register("b", np.asarray(b, dtype=float))
    return store


class TestLikelihoodTape:
    """The likelihood's analytic partials, the numbers a tape node of it would carry."""

    def test_tape_matches_numpy(self):
        data = toy_dataset(m=9, d=2, g=3, seed=7)
        raw, b = make_draw(2, 3, seed=8)
        value, _, _ = log_likelihood_partials(data, raw, b)
        assert_allclose(value, model_log_likelihood_value(data, raw, b), rtol=1e-12)

    def test_data_scale_scales_only_data_term(self):
        data = toy_dataset(m=6, d=1, g=2, seed=9)
        raw, b = make_draw(1, 2, seed=10)
        sigma_b = math.exp(raw[-1])
        full = model_log_likelihood_value(data, raw, b)
        prior = float(np.sum(-0.5 * LOG_2PI - math.log(sigma_b)
                             - b * b / (2 * sigma_b ** 2)))
        data_term = full - prior
        assert_allclose(log_likelihood_partials(data, raw, b)[0], full, rtol=1e-10)
        assert_allclose(log_likelihood_partials(data, raw, b, 3.0)[0],
                        3.0 * data_term + prior, rtol=1e-10)

    def test_gradient_vs_central_differences(self):
        # raw globals and intercepts jointly; data_scale != 1 is the
        # minibatch reweighting used in training
        data = toy_dataset(m=5, d=2, g=2, seed=11)
        store = latent_store(*make_draw(2, 2, seed=12))
        for data_scale in (1.0, 3.0):
            assert finite_diff_check(partials_as_gradient(data, data_scale), store,
                                     h=1e-5) < 1e-4

    def test_explicit_b_gradient(self):
        # intercepts away from sigma_b * noise, as the group posterior draws them
        data = toy_dataset(m=5, d=1, g=2, seed=13)
        raw, _ = make_draw(1, 2, seed=14)
        store = ParamStore()
        store.register("b", np.array([0.2, -0.4]))

        def f(p):
            value, _, d_b = log_likelihood_partials(data, raw, p.get("b"))
            return value, d_b

        assert finite_diff_check(f, store, h=1e-5) < 1e-4

    def test_tail_extended_window(self):
        # at mu=1, p=1.5, phi=1 the terms of y=10 that matter span more
        # than the core's counts, so the partials must sum the widened range
        y = np.array([0.0, 10.0, 0.5, 10.0, 3.0])
        data = Dataset(responses=y, fixed_design=np.zeros((y.size, 1)),
                       group_index=np.zeros(y.size, dtype=int), group_count=0)
        lo, hi, _ = summation_range(series_slope(np.log(y[[1, 3]]), 1.5, 1.0), 1.0)
        assert (hi - lo > tweedie._CORE_WIDTH).all()

        raw = np.zeros(5)
        value, _, _ = log_likelihood_partials(data, raw, np.zeros(0))
        assert_allclose(value, model_log_likelihood_value(data, raw, np.zeros(0)),
                        rtol=1e-12)
        store = latent_store(raw, np.zeros(0))
        assert finite_diff_check(partials_as_gradient(data), store, h=1e-5) < 1e-4

    @pytest.mark.parametrize("at_zero", [True, False])
    def test_tiny_sigma_b_gives_finite_partials(self, at_zero):
        # sigma_b = exp(-400): sigma_b ** 2 underflows to 0, b / sigma_b does not
        data = toy_dataset(m=3, d=1, g=2, seed=17)
        raw = np.array([0.1, 0.2, 0.0, 0.0, -400.0])
        noise = np.array([0.7, -1.2])
        b = np.zeros(2) if at_zero else math.exp(-400.0) * noise
        value, d_raw, d_b = log_likelihood_partials(data, raw, b)
        assert_allclose(value, model_log_likelihood_value(data, raw, b), rtol=1e-12)
        assert np.isfinite(d_raw).all() and np.isfinite(d_b).all()
        # d/d log sigma_b of the intercept prior is sum (b / sigma_b) ** 2 - G
        noise_sq = 0.0 if at_zero else float(noise @ noise)
        assert_allclose(d_raw[-1], noise_sq - 2.0, rtol=1e-12)


class TestLikelihoodFailures:
    """The one set of likelihood failures, shared by the trainer's abort and the chain's -inf."""

    @given(w=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
           raw_p=st.floats(-1e3, 1e3) | st.sampled_from([-45.0, -40.5, 40.5, 45.0]),
           raw_log_dispersion=st.floats(-1e3, 1e3) | st.sampled_from([-710.0, 709.5, 710.0]),
           raw_log_sigma_b=st.floats(-1e3, 1e3)
           | st.sampled_from([-800.0, -746.0, -710.0, -400.0, 710.0]),
           b=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    # sigma_b underflows to 0: log(sigma_b) has no value
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-746.0, b=[0.0] * 3)
    @example(w=[0.0, 0.0], raw_p=0.0, raw_log_dispersion=0.0, raw_log_sigma_b=-800.0,
             b=[0.0, 0.0, 1.0])
    def test_extreme_raw_globals_give_a_value_or_a_likelihood_failure(
            self, w, raw_p, raw_log_dispersion, raw_log_sigma_b, b):
        # what the trainer turns into a typed abort: a value (-inf makes the
        # loss non-finite) or a member of LIKELIHOOD_FAILURES, never another error
        data = Dataset(responses=np.array([0.0, 1.0, 0.5, 0.0]), fixed_design=np.zeros((4, 1)),
                       group_index=np.array([0, 1, 2, 0]), group_count=3)
        raw = np.array([*w, raw_p, raw_log_dispersion, raw_log_sigma_b])
        b = np.array(b)
        for value_of in (lambda: model_log_likelihood_value(data, raw, b),
                         lambda: log_likelihood_partials(data, raw, b)[0]):
            try:
                value = value_of()
            except LIKELIHOOD_FAILURES:
                continue
            assert math.isfinite(value) or value == -math.inf

    def test_group_free_data_never_read_sigma_b(self):
        # exp(710) overflows, but without groups raw_log_sigma_b enters nothing
        data = toy_dataset(m=4, d=1, g=1, seed=3)
        data = Dataset(responses=data.responses, fixed_design=data.fixed_design,
                       group_index=np.zeros(4, dtype=int), group_count=0)
        raw = np.array([0.1, 0.2, 0.0, 0.0, 710.0])
        value, d_raw, _ = log_likelihood_partials(data, raw, np.zeros(0))
        assert math.isfinite(value) and d_raw[-1] == 0.0
        assert model_log_likelihood_value(data, raw, np.zeros(0)) == value

    def test_wrong_raw_length_is_a_shape_error(self):
        data = toy_dataset(m=4, d=1, g=2)
        for raw in (np.zeros(4), np.zeros(6)):
            with pytest.raises(ShapeError, match="raw globals"):
                model_log_likelihood_value(data, raw, np.zeros(2))
            with pytest.raises(ShapeError, match="raw globals"):
                log_likelihood_partials(data, raw, np.zeros(2))
