"""Adversarial variational training: networks, losses, loop, prediction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import expit

from tweedie_avb import autodiff as ad, avb
from tweedie_avb.autodiff import (
    ParamStore,
    Tape,
    backward,
    collect_gradient,
    finite_diff_check,
    slice_leaves,
)
from tweedie_avb.avb import (
    FitResult,
    MLP,
    TrainConfig,
    TrainingAbortError,
    _collect_draws,
    _validation_nll,
    build_trainer,
    discriminator_loss,
    generator_loss,
    posterior_predict,
    train,
)
from tweedie_avb.data import SimTruth, simulate_dataset
from tweedie_avb.model import (
    FlaggedObservationError,
    draws_schema,
    globals_log_prior,
    log_likelihood_partials,
    model_log_likelihood_value,
    raw_blocks,
    sample_globals_prior,
    split_raw_globals,
)
from tweedie_avb.tweedie import InvalidParameterError, compound_arrays, tweedie_sample_array


def small_dataset(m=40, d=1, g=2, seed=0):
    truth = SimTruth(
        fixed_weights=np.array([0.1] + [0.3] * d),
        p_index=1.5, dispersion=1.0, sigma_b=0.4, n_obs=m, group_count=g,
    )
    data, _ = simulate_dataset(truth, np.random.default_rng(seed))
    return data


def mlp_forward_tape(net, x, leaves=None):
    """An MLP's forward graph for one input vector, built node by node on the scalar tape.

    ``x`` entries may be nodes or floats.  With ``leaves`` given (aligned
    with the store), weights are trainable nodes; without, current weight
    values enter as constants so gradients flow only to node-valued inputs.
    """
    h = list(x)
    for l in range(net.n_layers):
        fan_in, fan_out = net.sizes[l], net.sizes[l + 1]
        if leaves is not None:
            w_nodes = slice_leaves(leaves, net.store, f"{net.prefix}.W{l}")
            rows = [w_nodes[u * fan_in:(u + 1) * fan_in] for u in range(fan_out)]
            biases = slice_leaves(leaves, net.store, f"{net.prefix}.b{l}")
        else:
            rows = [list(r) for r in net.weight(l)]
            biases = list(net.bias(l))
        h = [ad.affine(rows[u], h, biases[u]) for u in range(fan_out)]
        if l < net.n_layers - 1:
            h = [ad.tanh(u) for u in h]
    return h


def group_sample_tape(store, leaves, eps):
    """The intercepts b_post.loc + exp(b_post.log_scale) * eps as tape nodes."""
    loc = slice_leaves(leaves, store, "b_post.loc")
    log_scale = slice_leaves(leaves, store, "b_post.log_scale")
    return [loc[g] + ad.exp(log_scale[g]) * float(eps[g]) for g in range(len(eps))]


def group_entropy_tape(store, leaves):
    """The intercept posterior's Gaussian entropy as a tape node."""
    log_scale = slice_leaves(leaves, store, "b_post.log_scale")
    return ad.dot([(s, 1.0) for s in log_scale], bias=0.5 * avb.LOG_2PI_E * len(log_scale))


def critic_net(dim, rng, hidden=(32, 32)):
    """A critic as the trainer builds it: raw globals of width ``dim`` to one logit."""
    return MLP("critic", [dim, *hidden, 1], ParamStore(), rng)


def critic_loss_tape_reference(critic, post, prior):
    """The density-ratio loss built node by node on the scalar tape."""
    tape = Tape()
    leaves = critic.store.leaves(tape)
    terms = []
    for z in post:
        t = mlp_forward_tape(critic, list(z), leaves)[0]
        terms.append((ad.softplus(ad.neg(t)), 1.0 / len(post)))
    for z in prior:
        t = mlp_forward_tape(critic, list(z), leaves)[0]
        terms.append((ad.softplus(t), 1.0 / len(prior)))
    loss = ad.dot(terms)
    backward(loss)
    return loss.value, collect_gradient(leaves)


def likelihood_node(tape, batch, raw_nodes, b_nodes, data_scale):
    """The model log likelihood as one tape node carrying its numpy partials."""
    value, d_raw, d_b = log_likelihood_partials(
        batch, np.array([n.value for n in raw_nodes]), np.array([n.value for n in b_nodes]),
        data_scale)
    parents = zip([*raw_nodes, *b_nodes], [*d_raw.tolist(), *d_b.tolist()])
    return ad.TapeNode(tape, value, tuple(parents), "tweedie_log_likelihood")


def generator_loss_tape_reference(batch, trainer, rng, data_scale=1.0):
    """The critic-estimated negative ELBO built node by node on the scalar tape."""
    tape = Tape()
    leaves = trainer.gen_store.leaves(tape)
    raw_nodes = mlp_forward_tape(trainer.q, rng.standard_normal(avb._NOISE_DIM).tolist(),
                                 leaves)
    group_noise = rng.standard_normal(batch.group_count)
    t_node = mlp_forward_tape(trainer.critic, raw_nodes)[0]  # critic weights as constants
    b_nodes = []
    if batch.group_count:
        b_nodes = group_sample_tape(trainer.gen_store, leaves, group_noise)
    loss = t_node - likelihood_node(tape, batch, raw_nodes, b_nodes, data_scale)
    if b_nodes:
        loss = loss - group_entropy_tape(trainer.gen_store, leaves)
    backward(loss)
    return loss.value, collect_gradient(leaves)


class TestMLP:
    def test_forward_paths_agree(self):
        store = ParamStore()
        net = MLP("m", [3, 5, 2], store, np.random.default_rng(0))
        x = np.array([0.3, -1.2, 0.7])
        want = net.forward_np(x)
        tape = Tape()
        got = [n.value for n in mlp_forward_tape(net, [tape.leaf(v) for v in x])]
        assert_allclose(got, want, rtol=1e-12)

    def test_forward_tape_with_leaves(self):
        store = ParamStore()
        net = MLP("m", [2, 3, 1], store, np.random.default_rng(1))
        tape = Tape()
        leaves = store.leaves(tape)
        out = mlp_forward_tape(net, [0.5, -0.5], leaves)[0]
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
        outs = mlp_forward_tape(net, inputs, leaves)
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
        q = build_trainer(2, 0, TrainConfig(), np.random.default_rng(0)).q
        q.store.values[:] = 0.0
        raw = q.forward_np(np.random.default_rng(1).standard_normal((1, avb._NOISE_DIM)))
        z = draws_schema(raw, np.zeros((1, 3)))
        assert z["p_index"][0] == 1.5
        assert z["dispersion"][0] == 1.0
        assert z["sigma_b"][0] == 1.0
        assert z["fixed_weights"].shape == (1, 3)

    def test_posterior_deterministic_given_seed(self):
        q = build_trainer(1, 0, TrainConfig(), np.random.default_rng(4)).q
        a = q.forward_np(np.random.default_rng(9).standard_normal(avb._NOISE_DIM))
        b = q.forward_np(np.random.default_rng(9).standard_normal(avb._NOISE_DIM))
        assert (a == b).all()

    def test_output_dimension(self):
        trainer = build_trainer(5, 0, TrainConfig(), np.random.default_rng(0))
        # D weights + intercept + three raw globals, into the critic too
        assert trainer.q.sizes[-1] == trainer.critic.sizes[0] == 5 + 4

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
    def test_zero_critic_gives_two_log_two(self):
        disc = critic_net(2, np.random.default_rng(0))
        disc.store.values[:] = 0.0
        batch = np.random.default_rng(1).standard_normal((5, 2))
        value, _ = discriminator_loss(disc, batch, batch + 1.0)
        assert_allclose(value, 2.0 * math.log(2.0), rtol=1e-12)

    def test_perfect_separation_near_zero_loss(self):
        disc = critic_net(1, np.random.default_rng(0), hidden=())
        store = disc.store
        store.set("critic.W0", np.array([40.0]))
        store.set("critic.b0", np.array([0.0]))
        value, _ = discriminator_loss(disc, np.array([[0.5]]), np.array([[-0.5]]))
        assert value < 1e-8

    def test_swap_symmetry_with_negated_critic(self):
        disc = critic_net(1, np.random.default_rng(2), hidden=())
        store = disc.store
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
        disc = critic_net(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            discriminator_loss(disc, np.zeros((0, 2)), np.zeros((1, 2)))

    def test_gradient_vs_central_differences(self):
        disc = critic_net(2, np.random.default_rng(5), hidden=(4,))
        store = disc.store
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
        disc = critic_net(3, np.random.default_rng(8))
        disc.store.set("critic.W2", 100.0 * disc.store.get("critic.W2"))
        post = np.random.default_rng(9).standard_normal((5, 3))
        prior = np.random.default_rng(10).standard_normal((3, 3))
        args = np.concatenate([-disc.forward_np(post)[:, 0], disc.forward_np(prior)[:, 0]])
        assert args.max() > 30.0 and args.min() < -30.0  # both softplus branches
        value, grad = discriminator_loss(disc, post, prior)
        want_value, want_grad = critic_loss_tape_reference(disc, post, prior)
        assert_allclose(value, want_value, rtol=1e-12)
        assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())

    def test_gradient_two_hidden_layers(self):
        disc = critic_net(3, np.random.default_rng(12), hidden=(6, 5))
        store = disc.store
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
        disc = critic_net(3, rng, hidden=(4,) * depth)
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
        trainer = build_trainer(0, 0, cfg, np.random.default_rng(0))
        trainer.gen_store.values[:] = 0.0
        trainer.gen_store.set("q.b1", np.array([0.0, 0.0, math.log(2.0), 0.0]))
        trainer.critic_store.values[:] = 0.0
        value, _ = generator_loss(data, trainer, np.random.default_rng(1))
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
            value, grad = generator_loss(data, trainer, np.random.default_rng(3))
            trainer.gen_store.values[:] = saved
            return value, grad

        assert finite_diff_check(f, trainer.gen_store.copy(), h=1e-5) < 1e-4

    def test_critic_parameters_not_trained_by_generator(self):
        data = small_dataset(m=4, d=1, g=2, seed=2)
        cfg = TrainConfig(outer_steps=1, seed=0)
        trainer = build_trainer(1, 2, cfg, np.random.default_rng(0))
        before = trainer.critic_store.values.copy()
        _, grad = generator_loss(data, trainer, np.random.default_rng(1))
        assert grad.shape == (trainer.gen_store.size,)
        assert (trainer.critic_store.values == before).all()

    @pytest.mark.parametrize("groups, posterior, data_scale", [
        (2, True, 1.0),   # with groups
        (0, False, 1.0),  # without groups
        (2, True, 4.0),   # minibatch reweighting
    ])
    def test_numpy_matches_tape_reference(self, groups, posterior, data_scale):
        data = small_dataset(m=6, d=2, g=groups, seed=4)
        cfg = TrainConfig(outer_steps=1, seed=0, inference_hidden=(4,), critic_hidden=(5,))
        trainer = build_trainer(data.n_covariates, data.group_count, cfg,
                                np.random.default_rng(5))
        if posterior:
            trainer.gen_store.set("b_post.loc", [0.2, -0.3])
            trainer.gen_store.set("b_post.log_scale", [-1.0, -0.5])

        def numpy_loss(p):
            saved = trainer.gen_store.values.copy()
            trainer.gen_store.values[:] = p.values
            value, grad = generator_loss(data, trainer, np.random.default_rng(6),
                                         data_scale=data_scale)
            trainer.gen_store.values[:] = saved
            return value, grad

        value, grad = numpy_loss(trainer.gen_store)
        want_value, want_grad = generator_loss_tape_reference(
            data, trainer, np.random.default_rng(6), data_scale=data_scale)
        assert_allclose(value, want_value, rtol=1e-12)
        assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
        assert finite_diff_check(numpy_loss, trainer.gen_store.copy(), h=1e-5) < 1e-4


class TestInterceptPosterior:
    def test_entropy_value(self):
        store = build_trainer(1, 2, TrainConfig(), np.random.default_rng(0)).gen_store
        store.set("b_post.log_scale", np.array([0.0, math.log(2.0)]))
        tape = Tape()
        leaves = store.leaves(tape)
        entropy = group_entropy_tape(store, leaves)
        want = 2 * 0.5 * (math.log(2 * math.pi) + 1.0) + math.log(2.0)
        assert_allclose(entropy.value, want, rtol=1e-12)

    def test_sample_paths_agree(self):
        store = build_trainer(1, 3, TrainConfig(), np.random.default_rng(0)).gen_store
        store.set("b_post.loc", np.array([0.1, -0.2, 0.3]))
        eps = np.array([0.5, -1.0, 2.0])
        tape = Tape()
        leaves = store.leaves(tape)
        nodes = group_sample_tape(store, leaves, eps)
        want = store.get("b_post.loc") + np.exp(store.get("b_post.log_scale")) * eps
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

    def test_sigma_b_underflow_aborts_with_checkpoint(self, monkeypatch):
        # the first generator draw has raw_log_sigma_b near -800, where sigma_b
        # underflows to 0; the checkpoint holds the parameters step 0 started from
        loss = avb.generator_loss

        def shifted(batch, trainer, *args, **kwargs):
            q = trainer.q
            q.store.get(f"q.b{q.n_layers - 1}")[-1] -= 800.0  # raw_log_sigma_b comes last
            return loss(batch, trainer, *args, **kwargs)

        monkeypatch.setattr(avb, "generator_loss", shifted)
        with pytest.raises(TrainingAbortError, match="sigma_b underflows") as exc:
            train(small_dataset(m=40), TrainConfig(**self.CFG))
        assert exc.value.step == 0
        assert isinstance(exc.value.__context__, InvalidParameterError)
        assert exc.value.checkpoint is not None
        assert (exc.value.checkpoint.draws["sigma_b"] > 0).all()

    @pytest.mark.parametrize("block, shift", [
        ("raw_log_sigma_b", -800.0), ("raw_p", 800.0), ("raw_log_dispersion", 800.0)])
    def test_unstorable_checkpoint_aborts_without_one(self, monkeypatch, block, shift):
        # shifted before step 0, the output bias puts every draw of the parameters step 0
        # starts from, which are also the last good ones, where sigma_b underflows to 0,
        # p_index rounds to 2 or the dispersion overflows: a FitResult cannot store them
        build = avb.build_trainer

        def shifted(n_covariates, *args):
            trainer = build(n_covariates, *args)
            q = trainer.q
            q.store.get(f"q.b{q.n_layers - 1}")[raw_blocks(n_covariates)[block]] += shift
            return trainer

        monkeypatch.setattr(avb, "build_trainer", shifted)
        with pytest.raises(TrainingAbortError) as exc:
            train(small_dataset(m=40), TrainConfig(**self.CFG))
        assert exc.value.step == 0
        assert exc.value.checkpoint is None

    def test_unstorable_final_draws_abort_with_checkpoint(self):
        # a generator step of size 100 sends draws out of the stored range, and no later
        # step evaluates it: the checkpoint holds the parameters step 0 started from
        cfg = TrainConfig(outer_steps=1, seed=0, inference_hidden=(4,), critic_hidden=(4,),
                          generator_learning_rate=1e2)
        with pytest.raises(TrainingAbortError, match="posterior draws") as exc:
            train(small_dataset(m=40), cfg)
        assert exc.value.step == 0
        assert exc.value.checkpoint is not None

    @settings(max_examples=40, deadline=None)
    @given(log10_y=st.floats(-300.0, 300.0), log10_x=st.floats(-300.0, 8.0))
    def test_extreme_scales_give_finite_draws_or_typed_abort(self, log10_y, log10_x):
        data = small_dataset(m=30, g=3)
        valid = small_dataset(m=12, g=3, seed=5)
        for d in (data, valid):
            d.responses *= 10.0 ** log10_y
            d.fixed_design *= 10.0 ** log10_x
        cfg = TrainConfig(**{**self.CFG, "outer_steps": 6, "eval_every": 2})
        try:
            fit = train(data, cfg, valid=valid)
        except TrainingAbortError:
            return
        for draws in fit.draws.values():
            assert np.isfinite(draws).all()

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
        _, grad = generator_loss(data, trainer, np.random.default_rng(1))
        assert grad.shape == (trainer.gen_store.size,)
        assert (grad != 0.0).all()
        fit = train(data, cfg)
        assert set(fit.gen_params) == set(trainer.gen_store.names)
        for name, after in fit.gen_params.items():
            assert (np.asarray(after) != trainer.gen_store.get(name)).all(), name

    def test_stored_parameter_names(self):
        # fit.json stores the parameters under these names, in this order
        cfg = TrainConfig(outer_steps=1, latent_sample_count=5)
        fit = train(small_dataset(m=30), cfg)
        q = ["q.W0", "q.b0", "q.W1", "q.b1"]
        assert list(fit.gen_params) == [*q, "b_post.loc", "b_post.log_scale"]
        assert list(fit.critic_params) == ["critic.W0", "critic.b0", "critic.W1", "critic.b1",
                                           "critic.W2", "critic.b2"]
        assert list(train(small_dataset(m=30, g=0), cfg).gen_params) == q

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
        loc = trainer.gen_store.get("b_post.loc")
        scale = np.exp(trainer.gen_store.get("b_post.log_scale"))
        for s in range(25):
            raw = trainer.q.forward_np(rng.standard_normal(avb._NOISE_DIM))
            w, raw_p, raw_ld, raw_ls = split_raw_globals(raw, 2)
            assert_allclose(got["fixed_weights"][s], w, rtol=1e-14, atol=1e-15)
            assert_allclose(got["p_index"][s], 1.0 + expit(raw_p), rtol=1e-14)
            assert_allclose(got["dispersion"][s], math.exp(raw_ld), rtol=1e-14)
            assert_allclose(got["sigma_b"][s], math.exp(raw_ls), rtol=1e-14)
            b = loc + scale * rng.standard_normal(3)
            assert_allclose(got["b"][s], b, rtol=1e-14, atol=1e-15)

    def test_validation_nll_matches_per_draw_loop(self):
        # each draw takes its net noise only: b = loc reads no group noise
        cfg = TrainConfig(**self.CFG)
        trainer = build_trainer(1, 2, cfg, np.random.default_rng(0))
        trainer.gen_store.set("b_post.loc", np.array([0.2, -0.3]))
        valid = small_dataset(m=12, seed=5)
        rng = np.random.default_rng(1)
        got = _validation_nll(trainer, valid, rng)
        ref = np.random.default_rng(1)
        total = 0.0
        for _ in range(avb._VALID_DRAWS):
            raw = trainer.q.forward_np(ref.standard_normal(avb._NOISE_DIM))
            total -= model_log_likelihood_value(valid, raw, np.array([0.2, -0.3]))
        assert_allclose(got, total / avb._VALID_DRAWS, rtol=1e-14)
        assert rng.standard_normal() == ref.standard_normal()


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["n_critic", "minibatch_size", "outer_steps",
                                      "latent_sample_count", "critic_batch", "eval_every",
                                      "patience"])
    def test_counts_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: 0})


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

    @pytest.mark.parametrize("case", ["grouped", "group-free", "checkpoint", "non-finite"])
    def test_save_writes_the_pure_python_encoders_bytes(self, tmp_path, case):
        # save uses json's C encoder; its bytes must stay those of json.dump, which
        # encodes in pure Python: separators, float reprs and NaN/Infinity alike
        cfg = TrainConfig(**TestTrainLoop.CFG)
        if case == "checkpoint":
            data = small_dataset(m=40)
            data.fixed_design *= 1e4  # past the log-link limit at step 0
            with pytest.raises(TrainingAbortError) as exc:
                train(data, cfg)
            fit = exc.value.checkpoint
        elif case == "non-finite":
            fit = self.make_fit()
            fit.critic_trace = np.array([math.nan, math.inf, -math.inf, 5e-324, -0.0])
        else:
            fit = train(small_dataset(m=30, g=2 if case == "grouped" else 0), cfg)
        fit.save(tmp_path / "fit.json")
        with open(tmp_path / "reference.json", "w", encoding="utf-8") as fh:
            json.dump(fit.to_json_dict(), fh)
        assert (tmp_path / "fit.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            FitResult(
                draws={"p_index": np.array([2.5]), "sigma_b": np.array([1.0])},
                critic_trace=np.zeros(1), generator_trace=np.zeros(1),
                config={}, metadata={}, gen_params={}, critic_params={},
            )

    @pytest.mark.parametrize("phi", [0.0, -1.0, math.inf, math.nan])
    def test_dispersion_must_be_finite_positive(self, phi):
        draws = {**self.make_fit().draws, "dispersion": np.array([1.0, phi, 1.0])}
        with pytest.raises(ValueError, match="dispersion"):
            FitResult(draws=draws, critic_trace=np.zeros(1), generator_trace=np.zeros(1),
                      config={}, metadata={}, gen_params={}, critic_params={})

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
        # 4,000 draws put the 0.05 bound at about 5 Monte Carlo standard errors
        fit = self.make_fit(np.zeros((4000, 2)), sigma_b=0.5)
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

    def test_eta_overflow_in_later_draw_reports_row(self):
        # the second draw's eta is 0.5 * 80 = 40 at row 0
        fit = self.make_fit([[0.0, 0.0], [0.0, 0.5]])
        with pytest.raises(FlaggedObservationError) as exc:
            posterior_predict(fit, np.array([[80.0], [1.0]]), np.array([0, 0]),
                              np.random.default_rng(0))
        assert exc.value.index == 0

    def test_predictive_mean_tracks_truth(self):
        truth = SimTruth(fixed_weights=np.array([0.1, 0.4]), p_index=1.5,
                         dispersion=1.0, sigma_b=0.0, n_obs=4000, group_count=0)
        data, _ = simulate_dataset(truth, np.random.default_rng(5))
        # sigma_b = 1 would add intercepts worth a factor exp(1/2) if a fit
        # without groups drew any
        fit = self.make_fit([[0.1, 0.4]], sigma_b=1.0, g=0)
        out = posterior_predict(fit, data.fixed_design,
                                np.zeros(data.n_obs, dtype=int),
                                np.random.default_rng(6))
        assert abs(out["mean"].mean() - data.responses.mean()) / data.responses.mean() < 0.05

    def test_group_free_fit_adds_no_intercepts(self):
        rng = np.random.default_rng(7)
        w = rng.normal(0.0, 0.3, (9, 3))
        x = rng.standard_normal((6, 2))
        fit = self.make_fit(w, sigma_b=1.0, g=0)
        out = posterior_predict(fit, x, np.full(6, -1), np.random.default_rng(8))
        reference = np.mean([np.exp(ws[0] + x @ ws[1:]) for ws in w], axis=0)
        assert_allclose(out["mean"], reference, rtol=1e-12)

    def test_blocks_match_per_draw_reference(self, monkeypatch):
        # 7 draws of 5 rows in blocks of 3 draws: 3 + 3 + 1
        monkeypatch.setattr(avb, "_PREDICT_BLOCK", 3 * 5)
        rng = np.random.default_rng(9)
        n_draws, g = 7, 3
        w = rng.normal(0.0, 0.3, (n_draws, 3))
        b = rng.normal(0.0, 0.5, (n_draws, g))
        sigma_b = rng.uniform(0.2, 0.8, n_draws)
        fit = self.make_fit(w, b=b, g=g)
        fit.draws["sigma_b"] = sigma_b
        x = rng.standard_normal((5, 2))
        ids = np.array([0, -1, 2, 1, 7])
        out = posterior_predict(fit, x, ids, np.random.default_rng(10))
        seen = (ids >= 0) & (ids < g)
        ref = np.random.default_rng(10)
        noise = ref.standard_normal((n_draws, (~seen).sum()))
        mu = []
        for s in range(n_draws):
            eta = w[s, 0] + x @ w[s, 1:]
            eta[seen] += b[s, ids[seen]]
            eta[~seen] += sigma_b[s] * noise[s]
            mu.append(np.exp(eta))
        assert_allclose(out["mean"], np.mean(mu, axis=0), rtol=1e-12)
        assert set(out) == {"mean", "q05", "q50", "q95"}
        # each block's responses are drawn (draws, rows), after all the noise
        mu = np.array(mu)
        samples = np.concatenate([
            tweedie_sample_array(*compound_arrays(mu[at], 1.5, 1.0), ref)
            for at in (slice(0, 3), slice(3, 6), slice(6, 7))])
        for level in (0.05, 0.5, 0.95):
            want = np.quantile(samples, level, axis=0)
            assert_allclose(out[f"q{int(round(level * 100)):02d}"], want, rtol=1e-12)

    def test_rate_past_poisson_limit_is_typed(self):
        # p = 1.5, phi = 1e-300: lambda = mu^0.5 / (0.5 * 1e-300) is past rng.poisson's limit
        fit = self.make_fit([[0.0, 0.0]], phi=1e-300)
        with pytest.raises(InvalidParameterError, match="Poisson rate"):
            posterior_predict(fit, np.zeros((2, 1)), np.zeros(2, dtype=int),
                              np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(log10_phi=st.floats(-300.0, 300.0),
           p=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           w=st.lists(st.floats(-9.0, 9.0), min_size=6, max_size=6),
           seed=st.integers(0, 2**16))
    def test_extreme_stored_draws_give_finite_output_or_typed_error(self, log10_phi, p, w,
                                                                    seed):
        # |eta| <= |w0| + |w1| + |b| <= 27 on covariates in [-1, 1]: inside the log-link limit
        rng = np.random.default_rng(seed)
        fit = self.make_fit(np.reshape(w, (3, 2)), p=p, phi=10.0 ** log10_phi,
                            b=rng.uniform(-9.0, 9.0, (3, 2)), g=2)
        x = rng.uniform(-1.0, 1.0, (4, 1))
        try:
            out = posterior_predict(fit, x, np.array([0, 1, 0, 1]), rng)
        except InvalidParameterError:
            return
        for values in out.values():
            assert np.isfinite(values).all()

    def test_mean_alone_without_quantiles(self):
        rng = np.random.default_rng(11)
        fit = self.make_fit(rng.normal(0.0, 0.3, (50, 2)), b=rng.normal(0.0, 0.5, (50, 2)), g=2)
        x, ids = rng.standard_normal((4, 1)), np.array([0, -1, 1, 5])
        full = posterior_predict(fit, x, ids, np.random.default_rng(12))
        mean_only = posterior_predict(fit, x, ids, np.random.default_rng(12), quantiles=())
        assert set(mean_only) == {"mean"}
        assert (mean_only["mean"] == full["mean"]).all()
