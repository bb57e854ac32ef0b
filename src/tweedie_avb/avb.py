"""Adversarial variational inference for the Tweedie mixed model.

Two small networks drive the fit: an inference network mapping noise
to the global latents, and a discriminator (critic) estimating the log
density ratio between posterior draws of those globals and draws from
their fixed standard normal prior (:func:`model.globals_log_prior`, the
prior the MCMC chain targets too).  Per-group random intercepts are
handled in closed form by a reparameterized Gaussian posterior, so the
adversarial ratio is only needed for the intractable globals.

Training alternates a fixed number of critic updates with one Adam
update of the inference-side parameters.  Both losses run in numpy and
return a value and a flat gradient aligned with their parameter store:
the networks' gradients come from a hand-written batched backward pass
(:meth:`MLP.vjp`), and the likelihood's from its analytic partials
(:func:`model.log_likelihood_partials`).  No scalar tape is built while
training.  The scalar-tape forms of the networks and the sampling maps
(``forward_tape``, ``sample_tape``, ``entropy_tape``) are the reference
the tests check the numpy gradients against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import (
    AdamState,
    ParamStore,
    Tape,
    TapeNode,
    adam_step,
    clip_global_norm,
    slice_leaves,
)
from .model import (
    Dataset,
    FlaggedObservationError,
    LatentAssignment,
    _check_overflow,
    log_likelihood_partials,
    model_log_likelihood_value,
    sample_globals_prior,
    split_raw_globals,
)
from .tweedie import InvalidParameterError, TruncationConfig, compound_arrays, tweedie_sample_array

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0
#: Likelihood failures at a latent draw that training turns into a TrainingAbortError:
#: eta past the log link's limit; (InvalidParameterError) p_index rounding to 1 or 2,
#: compound parameters over- or underflowing, or a latent-count series past its term
#: budget; and (ArithmeticError) ``exp`` of a raw log dispersion or log scale past
#: ~709: OverflowError from ``math.exp``, FloatingPointError from ``np.exp``.
_LIKELIHOOD_FAILURES = (FlaggedObservationError, InvalidParameterError, ArithmeticError)


class TrainingAbortError(RuntimeError):
    """Training hit a numerical failure; carries the last good checkpoint."""

    def __init__(self, step: int, message: str, checkpoint: Optional["FitResult"] = None):
        self.step = step
        self.checkpoint = checkpoint
        super().__init__(f"training aborted at step {step}: {message}")


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

class MLP:
    """Feedforward net with tanh hidden layers and a linear output layer.

    Parameters live in a shared ParamStore under ``prefix.W{l}`` /
    ``prefix.b{l}`` so several components can be trained by one
    optimizer.
    """

    def __init__(self, prefix: str, sizes: Sequence[int], store: ParamStore,
                 rng: np.random.Generator, weight_scale: float = 1.0):
        self.prefix = prefix
        self.sizes = list(sizes)
        self.store = store
        for l in range(len(sizes) - 1):
            fan_in, fan_out = sizes[l], sizes[l + 1]
            w = rng.standard_normal((fan_out, fan_in)) * (weight_scale / math.sqrt(fan_in))
            store.register(f"{prefix}.W{l}", w.ravel())
            store.register(f"{prefix}.b{l}", np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def weight(self, layer: int) -> np.ndarray:
        fan_in, fan_out = self.sizes[layer], self.sizes[layer + 1]
        return self.store.get(f"{self.prefix}.W{layer}").reshape(fan_out, fan_in)

    def bias(self, layer: int) -> np.ndarray:
        return self.store.get(f"{self.prefix}.b{layer}")

    def _activations(self, x: np.ndarray) -> list:
        hs = [np.asarray(x, dtype=float)]
        for l in range(self.n_layers):
            h = hs[-1] @ self.weight(l).T + self.bias(l)
            hs.append(np.tanh(h) if l < self.n_layers - 1 else h)
        return hs

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        return self._activations(x)[-1]

    def vjp(self, x: np.ndarray):
        """Batched forward pass and its pullback (vector-Jacobian product).

        ``x`` is (rows, fan_in).  Returns ``(out, pullback)``;
        ``pullback(g)`` takes the cotangent ``g`` of ``out`` (same shape)
        and returns ``(param_grad, input_grad)``: the first aligned with
        ``store.values`` (zero outside this net's slices), the second
        shaped like ``x``.  ``pullback(g, params=False)`` skips the
        parameter gradient and returns ``(None, input_grad)``.
        """
        hs = self._activations(x)

        def pullback(g: np.ndarray, params: bool = True):
            param_grad = np.zeros(self.store.size) if params else None
            for l in reversed(range(self.n_layers)):
                if l < self.n_layers - 1:
                    g = g * (1.0 - hs[l + 1] ** 2)  # through tanh
                if params:
                    param_grad[self.store.span(f"{self.prefix}.W{l}")] = (g.T @ hs[l]).ravel()
                    param_grad[self.store.span(f"{self.prefix}.b{l}")] = g.sum(axis=0)
                g = g @ self.weight(l)
            return param_grad, g

        return hs[-1], pullback

    def forward_tape(self, tape: Tape, x: Sequence, leaves=None) -> list:
        """Build the forward graph for one input vector.

        ``x`` entries may be nodes or floats.  With ``leaves`` given
        (aligned with the store), weights are trainable nodes; without,
        current weight values enter as constants so gradients flow only
        to node-valued inputs.
        """
        h = list(x)
        for l in range(self.n_layers):
            fan_in, fan_out = self.sizes[l], self.sizes[l + 1]
            if leaves is not None:
                w_nodes = slice_leaves(leaves, self.store, f"{self.prefix}.W{l}")
                b_nodes = slice_leaves(leaves, self.store, f"{self.prefix}.b{l}")
                rows = [w_nodes[u * fan_in:(u + 1) * fan_in] for u in range(fan_out)]
                biases = b_nodes
            else:
                w = self.weight(l)
                rows = [list(w[u]) for u in range(fan_out)]
                biases = list(self.bias(l))
            out = [ad.affine(rows[u], h, biases[u]) for u in range(fan_out)]
            if l < self.n_layers - 1:
                out = [ad.tanh(u) for u in out]
            h = out
        return h


class InferenceNet:
    """Maps a noise vector to the raw global latents (w, raw_p, raw_log_phi, raw_log_sigma_b)."""

    def __init__(self, n_covariates: int, store: ParamStore, rng: np.random.Generator,
                 noise_dim: int = 8, hidden: Sequence[int] = (32,), prefix: str = "q"):
        self.n_covariates = n_covariates
        self.noise_dim = noise_dim
        self.out_dim = n_covariates + 4
        self.net = MLP(prefix, [noise_dim, *hidden, self.out_dim], store, rng, weight_scale=0.1)
        self.store = store

    def latents_np(self, eps: np.ndarray) -> np.ndarray:
        return self.net.forward_np(eps)

    def forward_tape(self, tape: Tape, leaves, eps: np.ndarray) -> list:
        return self.net.forward_tape(tape, [float(v) for v in eps], leaves)


class Discriminator:
    """Critic mapping a raw global-latent vector to a scalar logit."""

    def __init__(self, latent_dim: int, store: ParamStore, rng: np.random.Generator,
                 hidden: Sequence[int] = (32, 32), prefix: str = "critic"):
        self.latent_dim = latent_dim
        self.net = MLP(prefix, [latent_dim, *hidden, 1], store, rng)
        self.store = store

    def logit_np(self, z: np.ndarray) -> np.ndarray:
        out = self.net.forward_np(z)
        return out[..., 0]


class GroupPosterior:
    """Reparameterized Gaussian posterior over the per-group intercepts.

    The spec's fresh-noise reparameterization b = sigma_b * eps cannot
    adapt to the data (its mean is zero by construction), which provably
    collapses the random-effect scale during training.  A per-group
    location/scale pair keeps the random-effect treatment tractable and
    in closed form while letting the intercepts be inferred; its entropy
    enters the generator objective so the scale stays well defined.
    """

    def __init__(self, group_count: int, store: ParamStore, prefix: str = "b_post"):
        self.group_count = group_count
        self.store = store
        self.prefix = prefix
        store.register(f"{prefix}.loc", np.zeros(group_count))
        store.register(f"{prefix}.log_scale", np.full(group_count, math.log(0.3)))

    @property
    def loc(self) -> np.ndarray:
        return self.store.get(f"{self.prefix}.loc")

    @property
    def scale(self) -> np.ndarray:
        return np.exp(self.store.get(f"{self.prefix}.log_scale"))

    def sample_tape(self, tape: Tape, leaves, eps: np.ndarray) -> list:
        loc = slice_leaves(leaves, self.store, f"{self.prefix}.loc")
        log_scale = slice_leaves(leaves, self.store, f"{self.prefix}.log_scale")
        return [loc[g] + ad.exp(log_scale[g]) * float(eps[g]) for g in range(self.group_count)]

    def entropy_tape(self, tape: Tape, leaves) -> TapeNode:
        log_scale = slice_leaves(leaves, self.store, f"{self.prefix}.log_scale")
        return ad.dot([(s, 1.0) for s in log_scale], bias=0.5 * LOG_2PI_E * self.group_count)


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Knobs for the alternating minimax loop.

    The paper-level quantities are ``n_critic`` (critic updates per
    outer step) and the truncation of the latent-count sum; everything
    else (architectures, optimizer settings, batch sizes) is an
    artifact-level choice and overridable.
    """

    n_critic: int = 3
    minibatch_size: int = 256
    outer_steps: int = 5000
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    seed: int = 0
    latent_sample_count: int = 1000

    noise_dim: int = 8
    inference_hidden: tuple = (32,)
    critic_hidden: tuple = (32, 32)
    critic_batch: int = 64

    generator_learning_rate: float = 1e-3
    critic_learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    grad_clip_norm: float = 10.0

    eval_every: int = 50
    patience: int = 10
    valid_draws: int = 4

    def __post_init__(self):
        if self.n_critic < 1:
            raise ValueError(f"n_critic must be >= 1, got {self.n_critic}")
        if self.outer_steps < 1:
            raise ValueError(f"outer_steps must be >= 1, got {self.outer_steps}")
        if isinstance(self.truncation, dict):
            self.truncation = TruncationConfig(**self.truncation)
        if isinstance(self.inference_hidden, list):
            self.inference_hidden = tuple(self.inference_hidden)
        if isinstance(self.critic_hidden, list):
            self.critic_hidden = tuple(self.critic_hidden)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["truncation"] = {"n_max": self.truncation.n_max, "adaptive": self.truncation.adaptive}
        d["inference_hidden"] = list(self.inference_hidden)
        d["critic_hidden"] = list(self.critic_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class FitResult:
    """Posterior draws, loss traces, and the final network parameters."""

    draws: dict
    critic_trace: np.ndarray
    generator_trace: np.ndarray
    config: dict
    metadata: dict
    gen_params: dict
    critic_params: dict

    def __post_init__(self):
        p = np.asarray(self.draws["p_index"])
        if ((p <= 1.0) | (p >= 2.0)).any():
            raise ValueError("stored p_index draws must lie in (1, 2)")
        if (np.asarray(self.draws["sigma_b"]) <= 0).any():
            raise ValueError("stored sigma_b draws must be positive")

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "config": self.config,
            "draws": {k: np.asarray(v).tolist() for k, v in self.draws.items()},
            "traces": {
                "critic_loss": np.asarray(self.critic_trace).tolist(),
                "generator_loss": np.asarray(self.generator_trace).tolist(),
            },
            "parameters": {"generator": self.gen_params, "critic": self.critic_params},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitResult":
        return cls(
            draws={k: np.asarray(v) for k, v in d["draws"].items()},
            critic_trace=np.asarray(d["traces"]["critic_loss"]),
            generator_trace=np.asarray(d["traces"]["generator_loss"]),
            config=d["config"],
            metadata=d["metadata"],
            gen_params=d.get("parameters", {}).get("generator", {}),
            critic_params=d.get("parameters", {}).get("critic", {}),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "FitResult":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------

def sample_posterior(q: InferenceNet, rng: np.random.Generator,
                     group_count: int = 0) -> LatentAssignment:
    """One posterior draw: globals from the inference net, fresh group noise."""
    raw = q.latents_np(rng.standard_normal(q.noise_dim))
    w, raw_p, raw_ld, raw_ls = split_raw_globals(raw, q.n_covariates)
    return LatentAssignment(
        fixed_weights=np.asarray(w, dtype=float),
        raw_p=float(raw_p),
        raw_log_dispersion=float(raw_ld),
        raw_log_sigma_b=float(raw_ls),
        group_noise=rng.standard_normal(group_count),
    )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def discriminator_loss(disc: Discriminator, posterior_batch: np.ndarray,
                       prior_batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Logistic density-ratio loss and its gradient in the critic's parameters.

    mean[-log sigmoid(T(z_Q))] + mean[-log(1 - sigmoid(T(z_P)))], with
    the latent batches entering as constants.  Both batches run through
    the critic in one numpy pass; the gradient, aligned with the critic
    store, is the backpropagated one.
    """
    posterior_batch = np.atleast_2d(np.asarray(posterior_batch, dtype=float))
    prior_batch = np.atleast_2d(np.asarray(prior_batch, dtype=float))
    if posterior_batch.shape[0] == 0 or prior_batch.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    n_q = posterior_batch.shape[0]
    logits, pullback = disc.net.vjp(np.concatenate([posterior_batch, prior_batch]))
    t_q, t_p = logits[:n_q, 0], logits[n_q:, 0]
    value = np.logaddexp(0.0, -t_q).mean() + np.logaddexp(0.0, t_p).mean()
    # d softplus(x) / dx = sigmoid(x)
    d_logits = np.concatenate([-expit(-t_q) / t_q.size, expit(t_p) / t_p.size])
    param_grad, _ = pullback(d_logits[:, None])
    return float(value), param_grad


def generator_loss(batch: Dataset, q: InferenceNet, disc: Discriminator,
                   truncation: TruncationConfig, rng: np.random.Generator,
                   group_posterior: Optional[GroupPosterior] = None,
                   data_scale: float = 1.0,
                   n_draws: int = 1) -> tuple[float, np.ndarray]:
    """Critic-estimated negative ELBO and its gradient in the inference-side parameters.

    mean over latent draws of [T(z_Q) - model log likelihood - entropy of
    the intercept posterior], with the critic's parameters entering as
    constants; the entropy keeps the random-effect scale identified.  A
    batch with groups needs ``group_posterior`` for its intercepts (a
    ValueError otherwise); without groups it is ignored.  Each draw takes
    its net noise, then its group noise, from ``rng``.  The gradient is
    aligned with ``q.store``.
    """
    g = batch.group_count
    if g and group_posterior is None:
        raise ValueError("a batch with groups needs a GroupPosterior for its intercepts")
    noise = rng.standard_normal((n_draws, q.noise_dim + g))
    raw, q_pullback = q.net.vjp(noise[:, :q.noise_dim])
    logits, critic_pullback = disc.net.vjp(raw)
    _, d_raw = critic_pullback(np.ones((n_draws, 1)), params=False)
    grad = np.zeros(q.store.size)
    if g:
        loc_span = q.store.span(f"{group_posterior.prefix}.loc")
        scale_span = q.store.span(f"{group_posterior.prefix}.log_scale")
        log_scale = q.store.values[scale_span]
        with np.errstate(over="raise"):
            scale = np.exp(log_scale)
        entropy = float(log_scale.sum()) + 0.5 * LOG_2PI_E * g
    value = 0.0
    for k in range(n_draws):
        group_noise = noise[k, q.noise_dim:]
        b = q.store.values[loc_span] + scale * group_noise if g else None
        ll, d_ll, d_b = log_likelihood_partials(batch, raw[k], b, truncation, data_scale)
        d_raw[k] -= d_ll
        term = logits[k, 0] - ll
        if g:
            term -= entropy
            grad[loc_span] -= d_b / n_draws
            grad[scale_span] -= (d_b * scale * group_noise + 1.0) / n_draws
        value += term / n_draws
    param_grad, _ = q_pullback(d_raw / n_draws)
    return float(value), grad + param_grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class _Trainer:
    """Bundles the stores and nets built by :func:`train` (also reused for tests)."""

    q: InferenceNet
    disc: Discriminator
    group_posterior: Optional[GroupPosterior]
    gen_store: ParamStore
    critic_store: ParamStore


def build_trainer(n_covariates: int, group_count: int, cfg: TrainConfig,
                  rng: np.random.Generator) -> _Trainer:
    gen_store = ParamStore()
    q = InferenceNet(n_covariates, gen_store, rng, noise_dim=cfg.noise_dim,
                     hidden=cfg.inference_hidden)
    gp = GroupPosterior(group_count, gen_store) if group_count > 0 else None
    critic_store = ParamStore()
    disc = Discriminator(n_covariates + 4, critic_store, rng, hidden=cfg.critic_hidden)
    return _Trainer(q, disc, gp, gen_store, critic_store)


def _validation_nll(trainer: _Trainer, valid: Dataset, cfg: TrainConfig,
                    rng: np.random.Generator) -> float:
    total = 0.0
    for _ in range(cfg.valid_draws):
        z = sample_posterior(trainer.q, rng, valid.group_count)
        b = trainer.group_posterior.loc if trainer.group_posterior is not None else None
        total += -model_log_likelihood_value(valid, z, cfg.truncation, b=b)
    return total / cfg.valid_draws


def _collect_draws(trainer: _Trainer, count: int, rng: np.random.Generator) -> dict:
    noise_dim = trainer.q.noise_dim
    gp = trainer.group_posterior
    g = gp.group_count if gp is not None else 0
    # one row per draw: net noise, then group noise (the per-draw stream order)
    noise = rng.standard_normal((count, noise_dim + g))
    w, raw_p, raw_ld, raw_ls = split_raw_globals(trainer.q.latents_np(noise[:, :noise_dim]),
                                                 trainer.q.n_covariates)
    b = gp.loc + gp.scale * noise[:, noise_dim:] if g else np.empty((count, 0))
    return {"fixed_weights": w, "p_index": 1.0 + expit(raw_p), "dispersion": np.exp(raw_ld),
            "sigma_b": np.exp(raw_ls), "b": b}


def train(data: Dataset, cfg: TrainConfig, valid: Optional[Dataset] = None) -> FitResult:
    """Run the alternating minimax loop and collect posterior draws.

    Each outer step performs exactly ``n_critic`` critic Adam updates on
    the density-ratio loss, then one Adam update of the inference-side
    parameters on the critic-estimated negative ELBO.  Deterministic
    given the seed.  A non-finite loss, or a likelihood that overflows
    the log link, leaves its domain or overflows ``exp`` of a raw latent,
    aborts with a checkpoint of the parameters at the start of the last
    step whose losses were finite.
    """
    if data.n_obs == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    trainer = build_trainer(data.n_covariates, data.group_count, cfg, rng)
    adam_gen = AdamState.for_store(trainer.gen_store, cfg.generator_learning_rate,
                                   cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon)
    adam_critic = AdamState.for_store(trainer.critic_store, cfg.critic_learning_rate,
                                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon)

    critic_trace = []
    gen_trace = []
    m = data.n_obs
    batch_size = min(cfg.minibatch_size, m)
    best_nll = math.inf
    best_params = None
    stale_evals = 0
    # parameters at the start of the last step whose losses were finite (the
    # updates a step applies are not evaluated until the next one)
    last_good = (trainer.gen_store.copy(), trainer.critic_store.copy())

    def _abort(step: int, message: str):
        gen_snap, critic_snap = last_good
        checkpoint = _finalize(trainer, cfg, data, critic_trace, gen_trace,
                               gen_snap, critic_snap, rng)
        raise TrainingAbortError(step, message, checkpoint)

    for step in range(cfg.outer_steps):
        step_start = (trainer.gen_store.copy(), trainer.critic_store.copy())
        critic_loss = math.nan
        for _ in range(cfg.n_critic):
            post = trainer.q.latents_np(rng.standard_normal((cfg.critic_batch, cfg.noise_dim)))
            prior = sample_globals_prior(rng, cfg.critic_batch, trainer.disc.latent_dim)
            critic_loss, grad = discriminator_loss(trainer.disc, post, prior)
            if not math.isfinite(critic_loss):
                _abort(step, f"non-finite critic loss {critic_loss!r}")
            adam_step(trainer.critic_store, clip_global_norm(grad, cfg.grad_clip_norm),
                      adam_critic)
        rows = rng.choice(m, size=batch_size, replace=False)
        minibatch = data.subset(np.sort(rows))
        try:
            gen_loss, grad = generator_loss(minibatch, trainer.q, trainer.disc,
                                            cfg.truncation, rng,
                                            group_posterior=trainer.group_posterior,
                                            data_scale=m / batch_size)
        except _LIKELIHOOD_FAILURES as exc:
            _abort(step, f"generator loss: {exc}")
        if not math.isfinite(gen_loss):
            _abort(step, f"non-finite generator loss {gen_loss!r}")
        last_good = step_start
        adam_step(trainer.gen_store, clip_global_norm(grad, cfg.grad_clip_norm), adam_gen)
        critic_trace.append(critic_loss)
        gen_trace.append(gen_loss)

        if valid is not None and (step + 1) % cfg.eval_every == 0:
            try:
                nll = _validation_nll(trainer, valid, cfg, rng)
            except _LIKELIHOOD_FAILURES as exc:
                _abort(step, f"validation likelihood: {exc}")
            if nll < best_nll - 1e-9:
                best_nll = nll
                best_params = trainer.gen_store.copy()
                stale_evals = 0
            else:
                stale_evals += 1
                if stale_evals >= cfg.patience:
                    break

    if best_params is not None:
        trainer.gen_store.values[:] = best_params.values
    return _finalize(trainer, cfg, data, critic_trace, gen_trace,
                     trainer.gen_store, trainer.critic_store, rng)


def _finalize(trainer: _Trainer, cfg: TrainConfig, data: Dataset,
              critic_trace, gen_trace, gen_store: ParamStore,
              critic_store: ParamStore, rng: np.random.Generator) -> FitResult:
    trainer.gen_store.values[:] = gen_store.values
    trainer.critic_store.values[:] = critic_store.values
    draws = _collect_draws(trainer, cfg.latent_sample_count, rng)
    return FitResult(
        draws=draws,
        critic_trace=np.asarray(critic_trace, dtype=float),
        generator_trace=np.asarray(gen_trace, dtype=float),
        config=cfg.to_dict(),
        metadata={
            "n_covariates": data.n_covariates,
            "group_count": data.group_count,
            "n_obs": data.n_obs,
            "column_names": list(data.column_names),
        },
        gen_params={k: gen_store.get(k).tolist() for k in gen_store.names},
        critic_params={k: critic_store.get(k).tolist() for k in critic_store.names},
    )


# ---------------------------------------------------------------------------
# Posterior prediction
# ---------------------------------------------------------------------------

def posterior_predict(fit: FitResult, fixed_design: np.ndarray,
                      group_ids: np.ndarray, rng: np.random.Generator,
                      latent_sample_count: Optional[int] = None,
                      quantiles: Sequence[float] = (0.05, 0.5, 0.95)) -> dict:
    """Per-row predictive mean and response quantiles.

    Group ids outside [0, group_count) are treated as unseen groups and
    integrated over fresh sigma_b-scaled intercepts per draw.  A linear
    predictor past the log-link limit raises FlaggedObservationError, as
    in training.
    """
    fixed_design = np.atleast_2d(np.asarray(fixed_design, dtype=float))
    group_ids = np.asarray(group_ids, dtype=int)
    d = fit.metadata["n_covariates"]
    g = fit.metadata["group_count"]
    if fixed_design.shape[1] != d:
        raise ValueError(
            f"covariate dimension mismatch: expected {d}, got {fixed_design.shape[1]}"
        )
    if group_ids.shape[0] != fixed_design.shape[0]:
        raise ValueError("group id count must match the number of rows")
    w = np.asarray(fit.draws["fixed_weights"], dtype=float)
    p = np.asarray(fit.draws["p_index"], dtype=float)
    phi = np.asarray(fit.draws["dispersion"], dtype=float)
    sigma_b = np.asarray(fit.draws["sigma_b"], dtype=float)
    b = np.asarray(fit.draws["b"], dtype=float)
    n_draws = w.shape[0]
    if latent_sample_count is not None:
        n_draws = min(n_draws, latent_sample_count)
    n_rows = fixed_design.shape[0]
    seen = (group_ids >= 0) & (group_ids < g)
    mu = np.empty((n_draws, n_rows))
    samples = np.empty((n_draws, n_rows))
    for s in range(n_draws):
        eta = w[s, 0] + fixed_design @ w[s, 1:]
        if g and seen.any():
            eta[seen] = eta[seen] + b[s, group_ids[seen]]
        if (~seen).any():
            eta[~seen] = eta[~seen] + sigma_b[s] * rng.standard_normal((~seen).sum())
        _check_overflow(eta)
        mu[s] = np.exp(eta)
        lam, alpha, beta = compound_arrays(mu[s], p[s], phi[s])
        samples[s] = tweedie_sample_array(lam, alpha, beta, rng)
    out = {"mean": mu.mean(axis=0)}
    qs = np.quantile(samples, quantiles, axis=0)
    for level, row in zip(quantiles, qs):
        out[f"q{int(round(level * 100)):02d}"] = row
    return out
