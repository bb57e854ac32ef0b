"""Mixed-model assembly: predictors, constraint maps, likelihood paths."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tweedie_avb.autodiff import ParamStore, finite_diff_check
from tweedie_avb.model import (
    Dataset,
    FlaggedObservationError,
    LatentAssignment,
    ShapeError,
    globals_log_prior,
    linear_predictor,
    log_likelihood_partials,
    model_log_likelihood_value,
    reparam_random_effects,
)
from tweedie_avb.tweedie import (
    LOG_2PI,
    CompoundParams,
    TruncationConfig,
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


class TestReparamRandomEffects:
    def test_scalar_scaling(self):
        assert_allclose(reparam_random_effects(0.5, np.array([1.0, -2.0])), [0.5, -1.0])

    def test_zero_limit(self):
        assert_allclose(reparam_random_effects(1e-300, np.array([3.0, -3.0])), [0.0, 0.0],
                        atol=1e-290)


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
            log_likelihood_partials(data, raw, np.zeros(0), TruncationConfig())
        assert exc.value.index == 1

    def test_round_trip_through_edm(self):
        eta = np.array([-0.5, 0.7])
        lam, alpha, beta = compound_arrays(np.exp(eta), 1.3, 0.9)
        for l, b, e in zip(lam, beta, eta):
            back = to_edm(CompoundParams(lam=l, alpha=alpha, beta=b))
            assert_allclose([back.mu, back.p_index, back.dispersion],
                            [math.exp(e), 1.3, 0.9], rtol=1e-10)


def make_assignment(d, g, seed=3):
    rng = np.random.default_rng(seed)
    return LatentAssignment(
        fixed_weights=rng.normal(0, 0.3, size=d + 1),
        raw_p=0.1,
        raw_log_dispersion=-0.2,
        raw_log_sigma_b=math.log(0.5),
        group_noise=rng.standard_normal(g),
    )


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
        z = LatentAssignment(fixed_weights=np.zeros(1), raw_p=0.0,
                             raw_log_dispersion=math.log(2.0),
                             raw_log_sigma_b=0.0, group_noise=np.zeros(0))
        # mu=1, p=1.5, phi=2 -> lam=1; no groups so no prior term
        assert_allclose(model_log_likelihood_value(data, z, TruncationConfig()), -1.0,
                        rtol=1e-14)

    def test_doubling_dataset_doubles_data_term(self):
        data = toy_dataset(g=1)
        doubled = Dataset(
            responses=np.tile(data.responses, 2),
            fixed_design=np.tile(data.fixed_design, (2, 1)),
            group_index=np.tile(data.group_index, 2),
            group_count=1,
        )
        z = make_assignment(data.n_covariates, 1)
        t = TruncationConfig()
        b = reparam_random_effects(z.sigma_b, z.group_noise)
        prior = float(-0.5 * LOG_2PI - math.log(z.sigma_b) - b[0] ** 2 / (2 * z.sigma_b ** 2))
        single = model_log_likelihood_value(data, z, t) - prior
        double = model_log_likelihood_value(doubled, z, t) - prior
        assert_allclose(double, 2.0 * single, rtol=1e-12)

    def test_group_relabel_invariance(self):
        data = toy_dataset(m=8, g=3, seed=4)
        z = make_assignment(data.n_covariates, 3)
        t = TruncationConfig()
        perm = np.array([2, 0, 1])
        relabeled = Dataset(
            responses=data.responses,
            fixed_design=data.fixed_design,
            group_index=perm[data.group_index],
            group_count=3,
        )
        z_perm = LatentAssignment(
            fixed_weights=z.fixed_weights,
            raw_p=z.raw_p,
            raw_log_dispersion=z.raw_log_dispersion,
            raw_log_sigma_b=z.raw_log_sigma_b,
            group_noise=z.group_noise[np.argsort(perm)],
        )
        assert_allclose(model_log_likelihood_value(data, z, t),
                        model_log_likelihood_value(relabeled, z_perm, t), rtol=1e-12)

    def test_small_sigma_matches_fixed_effects_only(self):
        data = toy_dataset(m=6, g=1, seed=5)
        z = make_assignment(data.n_covariates, 1)
        z_small = LatentAssignment(
            fixed_weights=z.fixed_weights, raw_p=z.raw_p,
            raw_log_dispersion=z.raw_log_dispersion,
            raw_log_sigma_b=-40.0, group_noise=np.array([1.3]),
        )
        t = TruncationConfig()
        got = model_log_likelihood_value(data, z_small, t)
        fixed_only = Dataset(responses=data.responses, fixed_design=data.fixed_design,
                             group_index=np.zeros(6, dtype=int), group_count=0)
        want = model_log_likelihood_value(fixed_only, z_small, t)
        # b = sigma * eps is numerically negligible in eta, but the prior's
        # quadratic term stays eps^2 / 2 under the reparameterization
        prior = -0.5 * LOG_2PI - (-40.0) - 1.3 ** 2 / 2.0
        assert abs(got - (want + prior)) < 1e-9

    def test_overflow_propagates(self):
        data = toy_dataset()
        z = make_assignment(data.n_covariates, data.group_count)
        z_big = LatentAssignment(
            fixed_weights=np.array([40.0, 0.0, 0.0]), raw_p=0.0,
            raw_log_dispersion=0.0, raw_log_sigma_b=0.0,
            group_noise=np.zeros(data.group_count),
        )
        with pytest.raises(FlaggedObservationError):
            model_log_likelihood_value(data, z_big, TruncationConfig())


def raw_globals(z):
    return np.array([*z.fixed_weights, z.raw_p, z.raw_log_dispersion, z.raw_log_sigma_b])


def partials_at(data, z, t, b=None, data_scale=1.0):
    """log_likelihood_partials at ``z``, with b = sigma_b * noise unless given."""
    if b is None:
        b = reparam_random_effects(z.sigma_b, z.group_noise)
    return log_likelihood_partials(data, raw_globals(z), b, t, data_scale)


def partials_as_gradient(data, t, data_scale=1.0):
    """(value, gradient) over a store of the raw globals and the intercepts, jointly."""
    def f(p):
        value, d_raw, d_b = log_likelihood_partials(data, p.get("raw"), p.get("b"), t,
                                                    data_scale)
        return value, np.concatenate([d_raw, d_b])
    return f


def latent_store(z, b):
    store = ParamStore()
    store.register("raw", raw_globals(z))
    store.register("b", np.asarray(b, dtype=float))
    return store


class TestLikelihoodTape:
    """The likelihood's analytic partials, the numbers a tape node of it would carry."""

    def test_tape_matches_numpy(self):
        data = toy_dataset(m=9, d=2, g=3, seed=7)
        z = make_assignment(2, 3, seed=8)
        t = TruncationConfig()
        value, _, _ = partials_at(data, z, t)
        assert_allclose(value, model_log_likelihood_value(data, z, t), rtol=1e-12)

    def test_data_scale_scales_only_data_term(self):
        data = toy_dataset(m=6, d=1, g=2, seed=9)
        z = make_assignment(1, 2, seed=10)
        t = TruncationConfig()
        full = model_log_likelihood_value(data, z, t)
        b = reparam_random_effects(z.sigma_b, z.group_noise)
        prior = float(np.sum(-0.5 * LOG_2PI - math.log(z.sigma_b)
                             - b * b / (2 * z.sigma_b ** 2)))
        data_term = full - prior
        assert_allclose(partials_at(data, z, t)[0], full, rtol=1e-10)
        assert_allclose(partials_at(data, z, t, data_scale=3.0)[0], 3.0 * data_term + prior,
                        rtol=1e-10)

    def test_gradient_vs_central_differences(self):
        # raw globals and intercepts jointly; data_scale != 1 is the
        # minibatch reweighting used in training
        data = toy_dataset(m=5, d=2, g=2, seed=11)
        z = make_assignment(2, 2, seed=12)
        t = TruncationConfig()
        store = latent_store(z, reparam_random_effects(z.sigma_b, z.group_noise))
        for data_scale in (1.0, 3.0):
            assert finite_diff_check(partials_as_gradient(data, t, data_scale), store,
                                     h=1e-5) < 1e-4

    def test_explicit_b_gradient(self):
        # intercepts away from sigma_b * noise, as the group posterior draws them
        data = toy_dataset(m=5, d=1, g=2, seed=13)
        z = make_assignment(1, 2, seed=14)
        t = TruncationConfig()
        raw = raw_globals(z)
        store = ParamStore()
        store.register("b", np.array([0.2, -0.4]))

        def f(p):
            value, _, d_b = log_likelihood_partials(data, raw, p.get("b"), t)
            return value, d_b

        assert finite_diff_check(f, store, h=1e-5) < 1e-4

    def test_tail_extended_window(self):
        # at mu=1, p=1.5, phi=1 the terms of y=10 that matter span more
        # than n_max counts, so the partials must sum the widened range
        y = np.array([0.0, 10.0, 0.5, 10.0, 3.0])
        data = Dataset(responses=y, fixed_design=np.zeros((y.size, 1)),
                       group_index=np.zeros(y.size, dtype=int), group_count=0)
        t = TruncationConfig()
        lam, alpha, beta = compound_arrays(np.ones(2), 1.5, 1.0)
        lo, hi, _ = summation_range(series_slope(y[[1, 3]], lam, alpha, beta), alpha, t)
        assert (hi - lo > t.n_max).all()

        z = LatentAssignment(fixed_weights=np.zeros(2), raw_p=0.0, raw_log_dispersion=0.0,
                             raw_log_sigma_b=0.0, group_noise=np.zeros(0))
        value, _, _ = partials_at(data, z, t)
        assert_allclose(value, model_log_likelihood_value(data, z, t), rtol=1e-12)
        store = latent_store(z, np.zeros(0))
        assert finite_diff_check(partials_as_gradient(data, t), store, h=1e-5) < 1e-4

    @pytest.mark.parametrize("at_zero", [True, False])
    def test_tiny_sigma_b_gives_finite_partials(self, at_zero):
        # sigma_b = exp(-400): sigma_b ** 2 underflows to 0, b / sigma_b does not
        data = toy_dataset(m=3, d=1, g=2, seed=17)
        z = LatentAssignment(fixed_weights=np.array([0.1, 0.2]), raw_p=0.0,
                             raw_log_dispersion=0.0, raw_log_sigma_b=-400.0,
                             group_noise=np.array([0.7, -1.2]))
        t = TruncationConfig()
        b = np.zeros(2) if at_zero else None
        value, d_raw, d_b = partials_at(data, z, t, b=b)
        assert_allclose(value, model_log_likelihood_value(data, z, t, b=b), rtol=1e-12)
        assert np.isfinite(d_raw).all() and np.isfinite(d_b).all()
        # d/d log sigma_b of the intercept prior is sum (b / sigma_b) ** 2 - G
        noise_sq = 0.0 if at_zero else float(z.group_noise @ z.group_noise)
        assert_allclose(d_raw[-1], noise_sq - 2.0, rtol=1e-12)
