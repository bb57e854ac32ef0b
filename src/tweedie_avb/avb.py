"""Adversarial variational inference for the Tweedie mixed model.

The trainer holds two plain MLPs: ``q`` maps noise to the global latents,
and ``critic`` estimates the log density ratio between posterior draws of
those globals and draws from their fixed standard normal prior
(:func:`model.globals_log_prior`, the prior the MCMC chain targets too).
Per-group random intercepts are handled in closed form by a Gaussian
posterior, the ``b_post.loc`` and ``b_post.log_scale`` entries of q's
store, so the adversarial ratio is only needed for the intractable globals.

Training alternates a fixed number of critic updates with one Adam
update of the inference-side parameters.  Both losses run in numpy and
return a value and a flat gradient aligned with their parameter store:
the networks' gradients come from a hand-written batched backward pass
(:meth:`MLP.vjp`), and the likelihood's from its analytic partials
(:func:`model.log_likelihood_partials`).  No scalar tape is built here;
the tests build the networks and sampling maps node by node on the
scalar tape of :mod:`autodiff` as the reference for these gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .autodiff import AdamState, ParamStore, adam_step, clip_global_norm
from .data import write_json
from .model import (
    LIKELIHOOD_FAILURES,
    Dataset,
    _check_overflow,
    draws_schema,
    log_likelihood_partials,
    model_log_likelihood_value,
    raw_size,
    sample_globals_prior,
)
from .tweedie import compound_arrays, tweedie_sample_array

LOG_2PI_E = math.log(2.0 * math.pi) + 1.0
#: posterior_predict's block size in (draw, row) elements: about 1 MB per float temporary.
_PREDICT_BLOCK = 1 << 17
#: Largest euclidean norm of a gradient that an Adam step applies; longer ones are scaled down.
_GRAD_CLIP_NORM = 10.0
#: Latent draws averaged by each validation negative log likelihood.
_VALID_DRAWS = 4
#: Width of the standard normal noise the inference net maps to the raw globals.
_NOISE_DIM = 8


class TrainingAbortError(RuntimeError):
    """Training hit a numerical failure; carries the last good checkpoint if it can be stored."""

    def __init__(self, step: int, message: str, checkpoint: Optional["FitResult"] = None):
        self.step = step
        self.checkpoint = checkpoint
        super().__init__(f"training aborted at step {step}: {message}")


class StoredDrawError(ValueError):
    """Draws outside the range a :class:`FitResult` stores."""


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


@dataclass
class _Trainer:
    """The networks and parameter stores :func:`train` fits (also built by the tests).

    ``q`` maps ``_NOISE_DIM`` standard normal noise to the raw globals and
    ``critic`` maps raw globals to a logit.  With groups, ``gen_store`` also
    holds ``b_post.loc`` and ``b_post.log_scale``, a Gaussian posterior over
    the intercepts: the spec's fresh-noise b = sigma_b * eps cannot adapt to
    the data (its mean is zero by construction), which provably collapses the
    random-effect scale in training.  A per-group location/scale pair keeps
    the intercepts in closed form while letting them be inferred; its entropy
    enters the generator objective so the scale stays well defined.
    """

    q: MLP
    critic: MLP
    group_count: int
    gen_store: ParamStore
    critic_store: ParamStore


def build_trainer(n_covariates: int, group_count: int, cfg: TrainConfig,
                  rng: np.random.Generator) -> _Trainer:
    gen_store = ParamStore()
    out_dim = raw_size(n_covariates)
    q = MLP("q", [_NOISE_DIM, *cfg.inference_hidden, out_dim], gen_store, rng, weight_scale=0.1)
    if group_count > 0:
        gen_store.register("b_post.loc", np.zeros(group_count))
        gen_store.register("b_post.log_scale", np.full(group_count, math.log(0.3)))
    critic_store = ParamStore()
    critic = MLP("critic", [out_dim, *cfg.critic_hidden, 1], critic_store, rng)
    return _Trainer(q, critic, group_count, gen_store, critic_store)


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Settings of the alternating minimax loop.

    The paper-level quantity is ``n_critic`` (critic updates per outer
    step); the rest are artifact-level choices.  Adam's moment rates, the
    gradient clip norm, the validation draws, the noise width and the
    latent-count truncation are constants of the code, not settings.
    """

    n_critic: int = 3
    minibatch_size: int = 256
    outer_steps: int = 5000
    seed: int = 0
    latent_sample_count: int = 1000

    inference_hidden: tuple[int, ...] = (32,)
    critic_hidden: tuple[int, ...] = (32, 32)
    critic_batch: int = 64

    generator_learning_rate: float = 1e-3
    critic_learning_rate: float = 1e-3

    eval_every: int = 50
    patience: int = 10

    def __post_init__(self):
        for name in ("n_critic", "minibatch_size", "outer_steps", "latent_sample_count",
                     "critic_batch", "eval_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("generator_learning_rate", "critic_learning_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if isinstance(self.inference_hidden, list):
            self.inference_hidden = tuple(self.inference_hidden)
        if isinstance(self.critic_hidden, list):
            self.critic_hidden = tuple(self.critic_hidden)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["inference_hidden"] = list(self.inference_hidden)
        d["critic_hidden"] = list(self.critic_hidden)
        return d


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
        if not ((p > 1.0) & (p < 2.0)).all():
            raise StoredDrawError("stored p_index draws must lie in (1, 2)")
        for key in ("dispersion", "sigma_b"):
            draws = np.asarray(self.draws[key], dtype=float)
            if not (np.isfinite(draws) & (draws > 0.0)).all():
                raise StoredDrawError(f"stored {key} draws must be finite and positive")
        for key in ("fixed_weights", "b"):
            if not np.isfinite(np.asarray(self.draws[key], dtype=float)).all():
                raise StoredDrawError(f"stored {key} draws must be finite")

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
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "FitResult":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def discriminator_loss(critic: MLP, posterior_batch: np.ndarray,
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
    logits, pullback = critic.vjp(np.concatenate([posterior_batch, prior_batch]))
    # each row's loss term is softplus(u): u = -T(z_Q) on the posterior rows, T(z_P) below
    u = np.concatenate([-logits[:n_q, 0], logits[n_q:, 0]])
    terms = np.logaddexp(0.0, u)
    value = terms[:n_q].mean() + terms[n_q:].mean()
    # d softplus(u) / du = sigmoid(u) = exp(u - softplus(u)); du / dT is -1 on the posterior rows
    d_logits = np.exp(u - terms)
    d_logits[:n_q] /= -n_q
    d_logits[n_q:] /= u.size - n_q
    param_grad, _ = pullback(d_logits[:, None])
    return float(value), param_grad


def generator_loss(batch: Dataset, trainer: _Trainer, rng: np.random.Generator,
                   data_scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Critic-estimated negative ELBO and its gradient in the inference-side parameters.

    T(z_Q) - model log likelihood - entropy of the intercept posterior at
    one latent draw, with the critic's parameters entering as constants;
    the entropy keeps the random-effect scale identified.  The draw takes
    its net noise, then its group noise, from ``rng``.  The gradient is
    aligned with ``trainer.gen_store``.
    """
    g, store = batch.group_count, trainer.gen_store
    noise = rng.standard_normal(_NOISE_DIM + g)
    raw, q_pullback = trainer.q.vjp(noise[None, :_NOISE_DIM])
    logits, critic_pullback = trainer.critic.vjp(raw)
    _, d_raw = critic_pullback(np.ones((1, 1)), params=False)
    b = None
    if g:
        loc_span, scale_span = store.span("b_post.loc"), store.span("b_post.log_scale")
        log_scale = store.values[scale_span]
        with np.errstate(over="raise"):
            scale = np.exp(log_scale)
        b = store.values[loc_span] + scale * noise[_NOISE_DIM:]
    ll, d_ll, d_b = log_likelihood_partials(batch, raw[0], b, data_scale)
    d_raw[0] -= d_ll
    value = logits[0, 0] - ll
    # the net's pullback leaves the intercept posterior's slices zero
    grad, _ = q_pullback(d_raw)
    if g:
        value -= float(log_scale.sum()) + 0.5 * LOG_2PI_E * g  # the entropy
        grad[loc_span], grad[scale_span] = -d_b, -(d_b * scale * noise[_NOISE_DIM:] + 1.0)
    return float(value), grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _validation_nll(trainer: _Trainer, valid: Dataset, rng: np.random.Generator) -> float:
    b = trainer.gen_store.get("b_post.loc") if trainer.group_count else np.zeros(0)
    total = 0.0
    for _ in range(_VALID_DRAWS):
        raw = trainer.q.forward_np(rng.standard_normal(_NOISE_DIM))
        total += -model_log_likelihood_value(valid, raw, b)
    return total / _VALID_DRAWS


def _collect_draws(trainer: _Trainer, count: int, rng: np.random.Generator) -> dict:
    g, store = trainer.group_count, trainer.gen_store
    # one row per draw: net noise, then group noise (the per-draw stream order)
    noise = rng.standard_normal((count, _NOISE_DIM + g))
    # a draw past the float range is inf, which FitResult refuses to store
    with np.errstate(over="ignore"):
        b = (store.get("b_post.loc") + np.exp(store.get("b_post.log_scale")) * noise[:, _NOISE_DIM:]
             if g else np.empty((count, 0)))
        return draws_schema(trainer.q.forward_np(noise[:, :_NOISE_DIM]), b)


def train(data: Dataset, cfg: TrainConfig, valid: Optional[Dataset] = None) -> FitResult:
    """Run the alternating minimax loop and collect posterior draws.

    Each outer step performs exactly ``n_critic`` critic Adam updates on
    the density-ratio loss, then one Adam update of the inference-side
    parameters on the critic-estimated negative ELBO.  Deterministic
    given the seed.  A non-finite loss, a likelihood that overflows the
    log link, leaves its domain or overflows ``exp`` of a raw latent, or
    final draws that cannot be stored abort with a checkpoint of the
    parameters at the start of the last step whose losses were finite, or
    with none where those parameters' draws cannot be stored either.
    """
    if data.n_obs == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    trainer = build_trainer(data.n_covariates, data.group_count, cfg, rng)
    adam_gen = AdamState.for_store(trainer.gen_store, cfg.generator_learning_rate)
    adam_critic = AdamState.for_store(trainer.critic_store, cfg.critic_learning_rate)

    critic_trace = []
    gen_trace = []
    m = data.n_obs
    batch_size = min(cfg.minibatch_size, m)
    best_nll = math.inf
    best_params = None
    stale_evals = 0
    # parameters at the start of the last step whose losses were finite (the
    # updates a step applies are not evaluated until the next one)
    last_good = (trainer.gen_store.values.copy(), trainer.critic_store.values.copy())

    def _abort(step: int, message: str):
        trainer.gen_store.values[:], trainer.critic_store.values[:] = last_good
        try:
            checkpoint = _finalize(trainer, cfg, data, critic_trace, gen_trace, rng)
        except StoredDrawError:
            checkpoint = None
        raise TrainingAbortError(step, message, checkpoint)

    for step in range(cfg.outer_steps):
        step_start = (trainer.gen_store.values.copy(), trainer.critic_store.values.copy())
        critic_loss = math.nan
        for _ in range(cfg.n_critic):
            post = trainer.q.forward_np(rng.standard_normal((cfg.critic_batch, _NOISE_DIM)))
            prior = sample_globals_prior(rng, cfg.critic_batch, trainer.critic.sizes[0])
            critic_loss, grad = discriminator_loss(trainer.critic, post, prior)
            if not math.isfinite(critic_loss):
                _abort(step, f"non-finite critic loss {critic_loss!r}")
            adam_step(trainer.critic_store, clip_global_norm(grad, _GRAD_CLIP_NORM),
                      adam_critic)
        rows = rng.choice(m, size=batch_size, replace=False)
        minibatch = data.subset(np.sort(rows))
        try:
            gen_loss, grad = generator_loss(minibatch, trainer, rng, data_scale=m / batch_size)
        except LIKELIHOOD_FAILURES as exc:
            _abort(step, f"generator loss: {exc}")
        if not math.isfinite(gen_loss):
            _abort(step, f"non-finite generator loss {gen_loss!r}")
        last_good = step_start
        adam_step(trainer.gen_store, clip_global_norm(grad, _GRAD_CLIP_NORM), adam_gen)
        critic_trace.append(critic_loss)
        gen_trace.append(gen_loss)

        if valid is not None and (step + 1) % cfg.eval_every == 0:
            try:
                nll = _validation_nll(trainer, valid, rng)
            except LIKELIHOOD_FAILURES as exc:
                _abort(step, f"validation likelihood: {exc}")
            if nll < best_nll - 1e-9:
                best_nll = nll
                best_params = trainer.gen_store.values.copy()
                stale_evals = 0
            else:
                stale_evals += 1
                if stale_evals >= cfg.patience:
                    break

    if best_params is not None:
        trainer.gen_store.values[:] = best_params
    try:
        return _finalize(trainer, cfg, data, critic_trace, gen_trace, rng)
    except StoredDrawError as exc:  # the last update, never evaluated, left the stored range
        _abort(step, f"posterior draws: {exc}")


def _finalize(trainer: _Trainer, cfg: TrainConfig, data: Dataset,
              critic_trace, gen_trace, rng: np.random.Generator) -> FitResult:
    gen_store, critic_store = trainer.gen_store, trainer.critic_store
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
                      quantiles: Sequence[float] = (0.05, 0.5, 0.95)) -> dict:
    """Per-row predictive mean and, for each level in ``quantiles``, a response quantile.

    Draws are taken in blocks of about ``_PREDICT_BLOCK`` (draw, row)
    elements: each block's linear predictor comes from one matrix product,
    and its means are summed into the running total for ``"mean"``.  Group
    ids outside [0, group_count) are treated as unseen groups and
    integrated over fresh sigma_b-scaled intercepts per draw; that noise is
    drawn for all draws at once before any response draw, so the mean does
    not depend on ``quantiles``.  A fit without groups adds no intercepts.
    Compound Poisson-gamma responses are drawn only when ``quantiles`` is
    non-empty; ``quantiles=()`` returns the mean alone.  A linear predictor
    past the log-link limit raises FlaggedObservationError for its row, as
    in training; an extreme stored dispersion raises InvalidParameterError
    where the sampler cannot represent a draw's rate or response.
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
    n_draws, n_rows = w.shape[0], fixed_design.shape[0]
    seen = (group_ids >= 0) & (group_ids < g)
    seen_rows, unseen_rows = np.flatnonzero(seen), np.flatnonzero(~seen)
    seen_groups = group_ids[seen_rows]
    noise = sigma_b[:, None] * rng.standard_normal((n_draws, unseen_rows.size)) if g else None
    total = np.zeros(n_rows)
    # response draws (rows, draws): np.quantile then reads contiguous rows
    samples = np.empty((n_rows, n_draws)) if len(quantiles) else None
    block = max(1, _PREDICT_BLOCK // max(n_rows, 1))
    for start in range(0, n_draws, block):
        at = slice(start, min(start + block, n_draws))
        eta = w[at, 1:] @ fixed_design.T
        eta += w[at, :1]
        if g:
            eta[:, seen_rows] += b[at][:, seen_groups]
            eta[:, unseen_rows] += noise[at]
        _check_overflow(eta)
        mu = np.exp(eta, out=eta)
        total += mu.sum(axis=0)
        if samples is not None:
            # an extreme stored dispersion over- or underflows lambda or beta: the sampler checks
            with np.errstate(over="ignore", divide="ignore", under="ignore"):
                lam, alpha, beta = compound_arrays(mu, p[at, None], phi[at, None])
            samples[:, at] = tweedie_sample_array(lam, alpha, beta, rng).T
    out = {"mean": total / n_draws}
    if samples is not None:
        for level, row in zip(quantiles, np.quantile(samples, quantiles, axis=1)):
            out[f"q{int(round(level * 100)):02d}"] = row
    return out
