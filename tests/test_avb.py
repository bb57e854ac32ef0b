"""Adversarial variational training: networks, losses, loop, prediction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from tweedie_avb import autodiff as ad
from tweedie_avb.autodiff import ParamStore, Tape, backward, collect_gradient, finite_diff_check
from tweedie_avb.avb import (
    Discriminator,
    FitResult,
    GroupPosterior,
    InferenceNet,
    MLP,
    TrainConfig,
    TrainingAbortError,
    _collect_draws,
    build_trainer,
    discriminator_loss,
    generator_loss,
    posterior_predict,
    sample_posterior,
    split_raw_globals,
    train,
)
from tweedie_avb.data import SimTruth, simulate_dataset
from tweedie_avb.model import (
    FlaggedObservationError,
    globals_log_prior,
    log_likelihood_partials,
    sample_globals_prior,
)


def small_dataset(m=40, d=1, g=2, seed=0):
    truth = SimTruth(
        fixed_weights=np.array([0.1] + [0.3] * d),
        p_index=1.5, dispersion=1.0, sigma_b=0.4, n_obs=m, group_count=g,
    )
    data, _ = simulate_dataset(truth, np.random.default_rng(seed))
    return data


def critic_loss_tape_reference(disc, post, prior):
    """The density-ratio loss built node by node on the scalar tape."""
    tape = Tape()
    leaves = disc.store.leaves(tape)
    terms = []
    for z in post:
        t = disc.net.forward_tape(tape, list(z), leaves)[0]
        terms.append((ad.softplus(ad.neg(t)), 1.0 / len(post)))
    for z in prior:
        t = disc.net.forward_tape(tape, list(z), leaves)[0]
        terms.append((ad.softplus(t), 1.0 / len(prior)))
    loss = ad.dot(terms)
    backward(loss)
    return loss.value, collect_gradient(leaves)


def likelihood_node(tape, batch, raw_nodes, b_nodes, truncation, data_scale):
    """The model log likelihood as one tape node carrying its numpy partials."""
    value, d_raw, d_b = log_likelihood_partials(
        batch, np.array([n.value for n in raw_nodes]), np.array([n.value for n in b_nodes]),
        truncation, data_scale)
    parents = zip([*raw_nodes, *b_nodes], [*d_raw.tolist(), *d_b.tolist()])
    return ad.TapeNode(tape, value, tuple(parents), "tweedie_log_likelihood")


def generator_loss_tape_reference(batch, q, disc, cfg, rng, group_posterior=None,
                                  data_scale=1.0, n_draws=1):
    """The critic-estimated negative ELBO built node by node on the scalar tape."""
    tape = Tape()
    leaves = q.store.leaves(tape)
    draw_terms = []
    for _ in range(n_draws):
        raw_nodes = q.forward_tape(tape, leaves, rng.standard_normal(q.noise_dim))
        group_noise = rng.standard_normal(batch.group_count)
        t_node = disc.net.forward_tape(tape, raw_nodes)[0]  # critic weights as constants
        b_nodes = []
        if batch.group_count:
            b_nodes = group_posterior.sample_tape(tape, leaves, group_noise)
        term = t_node - likelihood_node(tape, batch, raw_nodes, b_nodes, cfg.truncation,
                                        data_scale)
        if b_nodes:
            term = term - group_posterior.entropy_tape(tape, leaves)
        draw_terms.append((term, 1.0 / n_draws))
    loss = ad.dot(draw_terms)
    backward(loss)
    return loss.value, collect_gradient(leaves)


class TestMLP:
    def test_forward_paths_agree(self):
        store = ParamStore()
        net = MLP("m", [3, 5, 2], store, np.random.default_rng(0))
        x = np.array([0.3, -1.2, 0.7])
        want = net.forward_np(x)
        tape = Tape()
        got = [n.value for n in net.forward_tape(tape, [tape.leaf(v) for v in x])]
        assert_allclose(got, want, rtol=1e-12)

    def test_forward_tape_with_leaves(self):
        store = ParamStore()
        net = MLP("m", [2, 3, 1], store, np.random.default_rng(1))
        tape = Tape()
        leaves = store.leaves(tape)
        out = net.forward_tape(tape, [0.5, -0.5], leaves)[0]
        assert_allclose(out.value, net.forward_np(np.array([0.5, -0.5]))[0], rtol=1e-12)
        backward(out)
        assert np.abs(collect_gradient(leaves)).sum() > 0

    def test_batched_forward(self):
        store = ParamStore()
        net = MLP("m", [2, 4, 1], store, np.random.default_rng(2))
        batch = np.random.default_rng(3).standard_normal((6, 2))
        out = net.forward_np(batch)
        assert out.shape == (6, 1)
        for i in range(6):
            assert_allclose(out[i], net.forward_np(batch[i]), rtol=1e-12)

    def test_vjp_matches_forward_tape(self):
        store = ParamStore()
        net = MLP("m", [3, 5, 4, 2], store, np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal(3)
        cotangent = np.array([0.7, -1.3])
        out, pullback = net.vjp(x[None, :])
        param_grad, input_grad = pullback(cotangent[None, :])
        tape = Tape()
        leaves = store.leaves(tape)
        inputs = [tape.leaf(v) for v in x]
        outs = net.forward_tape(tape, inputs, leaves)
        backward(ad.dot(zip(outs, cotangent)))
        assert_allclose(out[0], [n.value for n in outs], rtol=1e-12)
        assert_allclose(param_grad, collect_gradient(leaves), rtol=1e-12, atol=1e-15)
        assert_allclose(input_grad[0], collect_gradient(inputs), rtol=1e-12, atol=1e-15)

    def test_input_only_pullback(self):
        store = ParamStore()
        net = MLP("m", [3, 5, 2], store, np.random.default_rng(6))
        _, pullback = net.vjp(np.random.default_rng(7).standard_normal((4, 3)))
        cotangent = np.random.default_rng(8).standard_normal((4, 2))
        param_grad, input_grad = pullback(cotangent, params=False)
        assert param_grad is None
        assert (input_grad == pullback(cotangent)[1]).all()


class TestSampling:
    def test_zero_network_maps_to_constraint_midpoints(self):
        store = ParamStore()
        q = InferenceNet(2, store, np.random.default_rng(0))
        store.values[:] = 0.0
        z = sample_posterior(q, np.random.default_rng(1), group_count=3)
        assert z.p_index == 1.5
        assert z.dispersion == 1.0
        assert z.sigma_b == 1.0
        assert len(z.fixed_weights) == 3
        assert z.group_noise.shape == (3,)

    def test_posterior_deterministic_given_seed(self):
        store = ParamStore()
        q = InferenceNet(1, store, np.random.default_rng(4))
        a = sample_posterior(q, np.random.default_rng(9), 2)
        b = sample_posterior(q, np.random.default_rng(9), 2)
        assert (np.asarray(a.fixed_weights) == np.asarray(b.fixed_weights)).all()
        assert (a.group_noise == b.group_noise).all()

    def test_output_dimension(self):
        store = ParamStore()
        q = InferenceNet(5, store, np.random.default_rng(0))
        assert q.out_dim == 5 + 4  # D weights + intercept + three raw globals

    def test_prior_location(self):
        draws = sample_globals_prior(np.random.default_rng(0), 100_000, 3)
        se = 1.0 / math.sqrt(100_000)
        assert np.abs(draws.mean(axis=0)).max() < 3 * se

    def test_prior_scale_matches_globals_log_prior(self):
        # the critic's prior batches follow the density the chain's target adds
        draws = sample_globals_prior(np.random.default_rng(1), 100_000, 3)
        assert np.abs(draws.var(axis=0) - 1.0).max() < 3 * math.sqrt(2.0 / 100_000)
        mean_log_density = globals_log_prior(draws).mean()
        assert abs(mean_log_density - 3 * (-0.5 * math.log(2 * math.pi) - 0.5)) < 0.03


class TestDiscriminatorLoss:
    def make_disc(self, dim=2, seed=0):
        store = ParamStore()
        return Discriminator(dim, store, np.random.default_rng(seed))

    def test_zero_critic_gives_two_log_two(self):
        disc = self.make_disc()
        disc.store.values[:] = 0.0
        batch = np.random.default_rng(1).standard_normal((5, 2))
        value, _ = discriminator_loss(disc, batch, batch + 1.0)
        assert_allclose(value, 2.0 * math.log(2.0), rtol=1e-12)

    def test_perfect_separation_near_zero_loss(self):
        store = ParamStore()
        disc = Discriminator(1, store, np.random.default_rng(0), hidden=())
        store.set("critic.W0", np.array([40.0]))
        store.set("critic.b0", np.array([0.0]))
        value, _ = discriminator_loss(disc, np.array([[0.5]]), np.array([[-0.5]]))
        assert value < 1e-8

    def test_swap_symmetry_with_negated_critic(self):
        store = ParamStore()
        disc = Discriminator(1, store, np.random.default_rng(2), hidden=())
        store.set("critic.W0", np.array([1.3]))
        store.set("critic.b0", np.array([0.2]))
        post = np.random.default_rng(3).standard_normal((6, 1))
        prior = np.random.default_rng(4).standard_normal((6, 1))
        direct, _ = discriminator_loss(disc, post, prior)
        store.set("critic.W0", np.array([-1.3]))
        store.set("critic.b0", np.array([-0.2]))
        swapped, _ = discriminator_loss(disc, prior, post)
        assert_allclose(direct, swapped, rtol=1e-12)

    def test_empty_batch_rejected(self):
        disc = self.make_disc()
        with pytest.raises(ValueError):
            discriminator_loss(disc, np.zeros((0, 2)), np.zeros((1, 2)))

    def test_gradient_vs_central_differences(self):
        store = ParamStore()
        disc = Discriminator(2, store, np.random.default_rng(5), hidden=(4,))
        post = np.random.default_rng(6).standard_normal((8, 2))
        prior = np.random.default_rng(7).standard_normal((8, 2))

        def f(p):
            saved = store.values.copy()
            store.values[:] = p.values
            value, grad = discriminator_loss(disc, post, prior)
            store.values[:] = saved
            return value, grad

        assert finite_diff_check(f, store.copy(), h=1e-5) < 1e-4

    def test_fused_matches_tape_reference_past_softplus_cutoffs(self):
        store = ParamStore()
        disc = Discriminator(3, store, np.random.default_rng(8), hidden=(32, 32))
        store.set("critic.W2", 100.0 * store.get("critic.W2"))
        post = np.random.default_rng(9).standard_normal((5, 3))
        prior = np.random.default_rng(10).standard_normal((3, 3))
        args = np.concatenate([-disc.logit_np(post), disc.logit_np(prior)])
        assert args.max() > 30.0 and args.min() < -30.0  # both softplus branches
        value, grad = discriminator_loss(disc, post, prior)
        want_value, want_grad = critic_loss_tape_reference(disc, post, prior)
        assert_allclose(value, want_value, rtol=1e-12)
        assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    def test_gradient_two_hidden_layers(self):
        store = ParamStore()
        disc = Discriminator(3, store, np.random.default_rng(12), hidden=(6, 5))
        post = np.random.default_rng(13).standard_normal((7, 3))
        prior = np.random.default_rng(14).standard_normal((4, 3))

        def f(p):
            saved = store.values.copy()
            store.values[:] = p.values
            value, grad = discriminator_loss(disc, post, prior)
            store.values[:] = saved
            return value, grad

        assert finite_diff_check(f, store.copy(), h=1e-5) < 1e-4

    @given(depth=st.integers(0, 2), n_post=st.integers(1, 20), n_prior=st.integers(1, 20),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_tape_reference_property(self, depth, n_post, n_prior, scale, seed):
        rng = np.random.default_rng(seed)
        store = ParamStore()
        disc = Discriminator(3, store, rng, hidden=(4,) * depth)
        post = scale * rng.standard_normal((n_post, 3))
        prior = scale * rng.standard_normal((n_prior, 3))
        value, grad = discriminator_loss(disc, post, prior)
        assert math.isfinite(value)
        want_value, want_grad = critic_loss_tape_reference(disc, post, prior)
        assert_allclose(value, want_value, rtol=1e-12)
        # first-layer partials carry the input scale
        assert_allclose(grad, want_grad, rtol=1e-12,
                        atol=1e-12 * max(1.0, scale) * max(1.0, np.abs(want_grad).max()))


class TestGeneratorLoss:
    def test_zero_critic_reduces_to_negative_log_likelihood(self):
        # M=1, y=0, no groups; inference net forced to a constant output
        # mapping to mu=1, p=1.5, phi=2 so that lam=1 and loss = 1.0
        from tweedie_avb.model import Dataset
        data = Dataset(responses=np.array([0.0]), fixed_design=np.zeros((1, 0)),
                       group_index=np.zeros(1, dtype=int), group_count=0)
        cfg = TrainConfig(outer_steps=1, seed=0)
        store = ParamStore()
        rng = np.random.default_rng(0)
        q = InferenceNet(0, store, rng, noise_dim=cfg.noise_dim,
                         hidden=cfg.inference_hidden)
        store.values[:] = 0.0
        store.set("q.b1", np.array([0.0, 0.0, math.log(2.0), 0.0]))
        critic_store = ParamStore()
        disc = Discriminator(4, critic_store, rng)
        critic_store.values[:] = 0.0
        value, _ = generator_loss(data, q, disc, cfg.truncation, np.random.default_rng(1))
        assert_allclose(value, 1.0, rtol=1e-12)

    def test_gradient_vs_central_differences(self):
        data = small_dataset(m=5, d=2, g=2, seed=1)
        cfg = TrainConfig(outer_steps=1, seed=0, inference_hidden=(4,),
                          critic_hidden=(4,))
        rng = np.random.default_rng(2)
        trainer = build_trainer(data.n_covariates, data.group_count, cfg, rng)

        def f(p):
            saved = trainer.gen_store.values.copy()
            trainer.gen_store.values[:] = p.values
            value, grad = generator_loss(data, trainer.q, trainer.disc,
                                         cfg.truncation, np.random.default_rng(3),
                                         group_posterior=trainer.group_posterior)
            trainer.gen_store.values[:] = saved
            return value, grad

        assert finite_diff_check(f, trainer.gen_store.copy(), h=1e-5) < 1e-4

    def test_critic_parameters_not_trained_by_generator(self):
        data = small_dataset(m=4, d=1, g=2, seed=2)
        cfg = TrainConfig(outer_steps=1, seed=0)
        trainer = build_trainer(1, 2, cfg, np.random.default_rng(0))
        before = trainer.critic_store.values.copy()
        _, grad = generator_loss(data, trainer.q, trainer.disc,
                                 cfg.truncation, np.random.default_rng(1),
                                 group_posterior=trainer.group_posterior)
        assert grad.shape == (trainer.gen_store.size,)
        assert (trainer.critic_store.values == before).all()

    def test_groups_without_posterior_rejected(self):
        # b = sigma_b * noise cannot adapt to the data (see GroupPosterior)
        data = small_dataset(m=4, d=1, g=2, seed=2)
        cfg = TrainConfig(outer_steps=1, seed=0)
        trainer = build_trainer(1, 2, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="GroupPosterior"):
            generator_loss(data, trainer.q, trainer.disc, cfg.truncation,
                           np.random.default_rng(1))

    @pytest.mark.parametrize("groups, posterior, n_draws, data_scale", [
        (2, True, 1, 1.0),   # with groups
        (0, False, 1, 1.0),  # without groups
        (2, True, 3, 1.0),
        (2, True, 1, 4.0),   # minibatch reweighting
    ])
    def test_numpy_matches_tape_reference(self, groups, posterior, n_draws, data_scale):
        data = small_dataset(m=6, d=2, g=groups, seed=4)
        cfg = TrainConfig(outer_steps=1, seed=0, inference_hidden=(4,), critic_hidden=(5,))
        trainer = build_trainer(data.n_covariates, data.group_count, cfg,
                                np.random.default_rng(5))
        gp = trainer.group_posterior if posterior else None
        if gp is not None:
            trainer.gen_store.set("b_post.loc", [0.2, -0.3])
            trainer.gen_store.set("b_post.log_scale", [-1.0, -0.5])

        def numpy_loss(p):
            saved = trainer.gen_store.values.copy()
            trainer.gen_store.values[:] = p.values
            value, grad = generator_loss(data, trainer.q, trainer.disc, cfg.truncation,
                                         np.random.default_rng(6), group_posterior=gp,
                                         data_scale=data_scale, n_draws=n_draws)
            trainer.gen_store.values[:] = saved
            return value, grad

        value, grad = numpy_loss(trainer.gen_store)
        want_value, want_grad = generator_loss_tape_reference(
            data, trainer.q, trainer.disc, cfg, np.random.default_rng(6), group_posterior=gp,
            data_scale=data_scale, n_draws=n_draws)
        assert_allclose(value, want_value, rtol=1e-12)
        assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
        assert finite_diff_check(numpy_loss, trainer.gen_store.copy(), h=1e-5) < 1e-4


class TestGroupPosterior:
    def test_entropy_value(self):
        store = ParamStore()
        gp = GroupPosterior(2, store)
        store.set("b_post.log_scale", np.array([0.0, math.log(2.0)]))
        tape = Tape()
        leaves = store.leaves(tape)
        entropy = gp.entropy_tape(tape, leaves)
        want = 2 * 0.5 * (math.log(2 * math.pi) + 1.0) + math.log(2.0)
        assert_allclose(entropy.value, want, rtol=1e-12)

    def test_sample_paths_agree(self):
        store = ParamStore()
        gp = GroupPosterior(3, store)
        store.set("b_post.loc", np.array([0.1, -0.2, 0.3]))
        eps = np.array([0.5, -1.0, 2.0])
        tape = Tape()
        leaves = store.leaves(tape)
        nodes = gp.sample_tape(tape, leaves, eps)
        want = gp.loc + gp.scale * eps
        assert_allclose([n.value for n in nodes], want, rtol=1e-12)


class TestTrainLoop:
    CFG = dict(outer_steps=12, minibatch_size=16, critic_batch=8,
               latent_sample_count=20, inference_hidden=(8,), critic_hidden=(8,),
               eval_every=5, seed=0)

    def test_smoke_finite_traces(self):
        data = small_dataset(m=30)
        fit = train(data, TrainConfig(**self.CFG))
        assert np.isfinite(fit.critic_trace).all()
        assert np.isfinite(fit.generator_trace).all()
        assert fit.critic_trace.shape == (12,)

    def test_deterministic_given_seed(self):
        data = small_dataset(m=30)
        a = train(data, TrainConfig(**self.CFG))
        b = train(data, TrainConfig(**self.CFG))
        assert (a.critic_trace == b.critic_trace).all()
        assert (a.generator_trace == b.generator_trace).all()
        assert (a.draws["p_index"] == b.draws["p_index"]).all()

    def test_draw_constraints(self):
        data = small_dataset(m=30)
        fit = train(data, TrainConfig(**self.CFG))
        p = fit.draws["p_index"]
        assert ((p > 1.0) & (p < 2.0)).all()
        assert (fit.draws["sigma_b"] > 0).all()
        assert (fit.draws["dispersion"] > 0).all()

    def test_early_stopping_uses_validation(self):
        data = small_dataset(m=40)
        valid = small_dataset(m=12, seed=5)
        cfg = TrainConfig(**{**self.CFG, "outer_steps": 2000, "patience": 1,
                             "eval_every": 2})
        fit = train(data, cfg, valid=valid)
        assert fit.generator_trace.size < 2000

    @pytest.mark.parametrize("scaled", ["train", "valid"])
    def test_overflow_aborts_with_checkpoint(self, scaled):
        # covariates x1e4 push eta past the log-link limit
        data = small_dataset(m=40)
        valid = small_dataset(m=12, seed=5)
        (data if scaled == "train" else valid).fixed_design *= 1e4
        cfg = TrainConfig(**{**self.CFG, "eval_every": 1})
        with pytest.raises(TrainingAbortError) as exc:
            train(data, cfg, valid=valid)
        assert isinstance(exc.value.__context__, FlaggedObservationError)
        assert exc.value.checkpoint is not None

    @pytest.mark.parametrize("learning_rate, seed, with_valid", [
        (1e2, 0, False), (1e4, 0, False), (1e4, 0, True), (1.0, 1, False), (1.0, 1, True)])
    def test_runaway_step_aborts_with_checkpoint(self, learning_rate, seed, with_valid):
        # large Adam steps throw the raw latents far out: exp overflows,
        # p_index rounds to 2 or the dispersion gets so small that the
        # latent-count series exceeds its term budget, in the generator loss
        # or, with a validation set checked every step, in the validation
        # likelihood
        cfg = TrainConfig(outer_steps=40, seed=seed, inference_hidden=(4,), critic_hidden=(4,),
                          generator_learning_rate=learning_rate, eval_every=1)
        valid = small_dataset(m=12, seed=5) if with_valid else None
        with pytest.raises(TrainingAbortError) as exc:
            train(small_dataset(m=40), cfg, valid=valid)
        assert exc.value.checkpoint is not None

    def test_abort_checkpoint_is_last_finite_step(self):
        # the generator loss fails at step 6 on the update step 5 applied, so
        # the checkpoint holds the parameters step 5 evaluated: those after 5 steps
        data = small_dataset(m=40)
        cfg = TrainConfig(outer_steps=40, seed=1, inference_hidden=(4,), critic_hidden=(4,),
                          generator_learning_rate=1.0)
        with pytest.raises(TrainingAbortError) as exc:
            train(data, cfg)
        assert exc.value.step == 6
        five = train(data, TrainConfig(**{**cfg.to_dict(), "outer_steps": 5}))
        assert exc.value.checkpoint.gen_params == five.gen_params
        assert exc.value.checkpoint.critic_params == five.critic_params

    def test_generator_step_moves_every_parameter(self):
        # every entry of the generator store feeds the loss, so every entry
        # gets a gradient and one Adam step moves it
        data = small_dataset(m=30)
        cfg = TrainConfig(**{**self.CFG, "outer_steps": 1})
        trainer = build_trainer(data.n_covariates, data.group_count, cfg,
                                np.random.default_rng(cfg.seed))
        _, grad = generator_loss(data, trainer.q, trainer.disc, cfg.truncation,
                                 np.random.default_rng(1),
                                 group_posterior=trainer.group_posterior)
        assert grad.shape == (trainer.gen_store.size,)
        assert (grad != 0.0).all()
        fit = train(data, cfg)
        assert set(fit.gen_params) == set(trainer.gen_store.names)
        for name, after in fit.gen_params.items():
            assert (np.asarray(after) != trainer.gen_store.get(name)).all(), name

    def test_training_builds_no_tape_node(self, monkeypatch):
        def refuse(node, *args, **kwargs):
            raise AssertionError("train() built a tape node")

        monkeypatch.setattr(ad.TapeNode, "__init__", refuse)
        cfg = TrainConfig(**{**self.CFG, "eval_every": 2})
        fit = train(small_dataset(m=30), cfg, valid=small_dataset(m=12, seed=5))
        assert fit.generator_trace.size == cfg.outer_steps

    def test_likelihood_ascends_with_frozen_critic(self):
        # with the critic at zero the generator step is maximum-likelihood
        # ascent; check the data log-likelihood trend over the run
        data = small_dataset(m=60, d=1, g=0, seed=3)
        cfg = TrainConfig(outer_steps=150, minibatch_size=60, critic_batch=4,
                          latent_sample_count=10, inference_hidden=(8,),
                          critic_hidden=(8,), critic_learning_rate=0.0, seed=1)
        fit = train(data, cfg)
        start = np.mean(fit.generator_trace[:20])
        end = np.mean(fit.generator_trace[-20:])
        assert end < start  # loss (negative log-likelihood) decreased

    def test_collected_draws_match_per_draw_loop(self):
        cfg = TrainConfig(**self.CFG)
        trainer = build_trainer(2, 3, cfg, np.random.default_rng(0))
        got = _collect_draws(trainer, 25, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        gp = trainer.group_posterior
        for s in range(25):
            raw = trainer.q.latents_np(rng.standard_normal(cfg.noise_dim))
            w, raw_p, raw_ld, raw_ls = split_raw_globals(raw, 2)
            assert_allclose(got["fixed_weights"][s], w, rtol=1e-14, atol=1e-15)
            assert_allclose(got["p_index"][s], 1.0 + expit(raw_p), rtol=1e-14)
            assert_allclose(got["dispersion"][s], math.exp(raw_ld), rtol=1e-14)
            assert_allclose(got["sigma_b"][s], math.exp(raw_ls), rtol=1e-14)
            b = gp.loc + gp.scale * rng.standard_normal(gp.group_count)
            assert_allclose(got["b"][s], b, rtol=1e-14, atol=1e-15)


class TestFitResult:
    def make_fit(self):
        return FitResult(
            draws={
                "fixed_weights": np.zeros((3, 2)),
                "p_index": np.full(3, 1.5),
                "dispersion": np.ones(3),
                "sigma_b": np.full(3, 0.5),
                "b": np.zeros((3, 2)),
            },
            critic_trace=np.array([1.0, 0.9]),
            generator_trace=np.array([5.0, 4.0]),
            config={"outer_steps": 2},
            metadata={"n_covariates": 1, "group_count": 2},
            gen_params={},
            critic_params={},
        )

    def test_json_round_trip(self, tmp_path):
        fit = self.make_fit()
        path = tmp_path / "fit.json"
        fit.save(path)
        back = FitResult.load(path)
        assert (back.draws["p_index"] == fit.draws["p_index"]).all()
        assert back.metadata == fit.metadata
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"metadata", "config", "draws", "traces", "parameters"}

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            FitResult(
                draws={"p_index": np.array([2.5]), "sigma_b": np.array([1.0])},
                critic_trace=np.zeros(1), generator_trace=np.zeros(1),
                config={}, metadata={}, gen_params={}, critic_params={},
            )

    def test_abort_error_carries_checkpoint(self):
        fit = self.make_fit()
        err = TrainingAbortError(17, "non-finite loss", fit)
        assert err.step == 17
        assert err.checkpoint is fit


class TestPosteriorPredict:
    def make_fit(self, w, p=1.5, phi=1.0, sigma_b=0.5, b=None, g=1):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        s = w.shape[0]
        return FitResult(
            draws={
                "fixed_weights": w,
                "p_index": np.full(s, p),
                "dispersion": np.full(s, phi),
                "sigma_b": np.full(s, sigma_b),
                "b": np.zeros((s, g)) if b is None else np.asarray(b, dtype=float),
            },
            critic_trace=np.zeros(1), generator_trace=np.zeros(1),
            config={}, metadata={"n_covariates": w.shape[1] - 1, "group_count": g},
            gen_params={}, critic_params={},
        )

    def test_single_draw_unit_mean(self):
        fit = self.make_fit([[0.0, 0.0]])
        out = posterior_predict(fit, np.array([[0.7]]), np.array([0]),
                                np.random.default_rng(0))
        assert_allclose(out["mean"], [1.0], rtol=1e-12)

    def test_two_draw_average(self):
        fit = self.make_fit([[0.0, 0.0], [math.log(3.0), 0.0]])
        out = posterior_predict(fit, np.array([[0.0]]), np.array([0]),
                                np.random.default_rng(0))
        assert_allclose(out["mean"], [2.0], rtol=1e-12)

    def test_unseen_group_uses_fresh_intercepts(self):
        fit = self.make_fit(np.zeros((200, 2)), sigma_b=0.5)
        out = posterior_predict(fit, np.zeros((1, 1)), np.array([-1]),
                                np.random.default_rng(1))
        # E[exp(sigma_b * eps)] = exp(sigma_b^2 / 2)
        assert abs(out["mean"][0] - math.exp(0.125)) < 0.05

    def test_quantiles_ordered(self):
        fit = self.make_fit(np.zeros((100, 2)))
        out = posterior_predict(fit, np.random.default_rng(2).standard_normal((5, 1)),
                                np.zeros(5, dtype=int), np.random.default_rng(3))
        assert (out["q05"] <= out["q50"]).all()
        assert (out["q50"] <= out["q95"]).all()

    def test_dimension_mismatch(self):
        fit = self.make_fit([[0.0, 0.0]])
        with pytest.raises(ValueError):
            posterior_predict(fit, np.zeros((1, 5)), np.array([0]),
                              np.random.default_rng(0))

    def test_eta_overflow_raises(self):
        # eta = 0.5 * 80 = 40 on the second row, past the log-link limit
        fit = self.make_fit([[0.0, 0.5]])
        with pytest.raises(FlaggedObservationError) as exc:
            posterior_predict(fit, np.array([[1.0], [80.0]]), np.array([0, 0]),
                              np.random.default_rng(0))
        assert exc.value.index == 1

    def test_predictive_mean_tracks_truth(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.4]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.0, n_obs=4000, group_count=0)
        data, _ = simulate_dataset(truth, np.random.default_rng(5))
        fit = self.make_fit([[0.1, 0.4]], sigma_b=1e-9, g=0)
        out = posterior_predict(fit, data.fixed_design,
                                np.zeros(data.n_obs, dtype=int),
                                np.random.default_rng(6))
        assert abs(out["mean"].mean() - data.responses.mean()) / data.responses.mean() < 0.05
