"""End-to-end acceptance checks with stated tolerances and runtime budgets.

Each check prints one pass/fail line (visible with ``pytest -s`` or in
captured output).  The truncation-accuracy check is implemented exactly
as stated; its grid includes the recovery problem's truth (mu=1, p=1.5,
phi=1), where the terms that matter span more than the 10-count core
window, so it checks that the adaptive sum takes in those tails.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from tweedie_avb.autodiff import (
    AdamState,
    ParamStore,
    Tape,
    adam_step,
    backward,
    clip_global_norm,
    finite_diff_check,
)
from tweedie_avb import autodiff as ad
from tweedie_avb.avb import (
    Discriminator,
    TrainConfig,
    build_trainer,
    discriminator_loss,
    generator_loss,
    posterior_predict,
    train,
)
from tweedie_avb.data import SchemaConfig, SimTruth, load_csv, simulate_dataset
from tweedie_avb.evaluation import gini, gini_standard_error
from tweedie_avb.mcmc import ChainConfig, run_chain
from tweedie_avb.model import log_likelihood_partials
from tweedie_avb.tweedie import (
    CompoundParams,
    EdmParams,
    TruncationConfig,
    marginal_log_likelihood,
    series_log_density_oracle,
    to_compound,
    to_edm,
    tweedie_sample_array,
)

RECOVERY_TRUTH = SimTruth(
    fixed_weights=np.array([0.1, 0.3, -0.2]),
    p_index=1.5, dispersion=1.0, sigma_b=0.5, n_obs=5000, group_count=10,
)
RECOVERY_SEED = 3  # realized b: sample variance 0.217, mean 0.034


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def recovery_fit():
    """Shared AVB fit on the M=5000 recovery problem (criteria 7 and 10)."""
    data, realized = simulate_dataset(RECOVERY_TRUTH,
                                      np.random.default_rng(RECOVERY_SEED))
    cfg = TrainConfig(outer_steps=2500, minibatch_size=256, critic_batch=16,
                      inference_hidden=(16,), critic_hidden=(16,),
                      latent_sample_count=500, generator_learning_rate=5e-3,
                      critic_learning_rate=2e-3, seed=0)
    start = time.perf_counter()
    fit = train(data, cfg)
    elapsed = time.perf_counter() - start
    return data, realized, fit, elapsed


def test_criterion_1_parameter_map_round_trips():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        c = CompoundParams(lam=float(rng.uniform(0.01, 100.0)),
                           alpha=float(rng.uniform(0.05, 20.0)),
                           beta=float(rng.uniform(0.01, 100.0)))
        back = to_compound(to_edm(c))
        worst = max(worst,
                    abs(back.lam - c.lam) / c.lam,
                    abs(back.alpha - c.alpha) / c.alpha,
                    abs(back.beta - c.beta) / c.beta)
    elapsed = time.perf_counter() - start
    report(1, "parameter maps", worst < 1e-10 and elapsed < 1.0,
           f"max rel error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_density_normalization():
    start = time.perf_counter()
    worst = 0.0
    for mu, p, phi in itertools.product([1.0, 3.0], [1.2, 1.5, 1.8],
                                        [0.5, 1.0, 2.0]):
        e = EdmParams(mu=mu, p_index=p, dispersion=phi)
        lam = to_compound(e).lam
        if lam > 5.0:
            continue
        upper = mu + 20.0 * math.sqrt(phi * mu ** p)
        integral, _ = quad(
            lambda y: math.exp(series_log_density_oracle(y, e, rel_tol=1e-10)),
            0.0, upper, limit=200)
        worst = max(worst, abs(math.exp(-lam) + integral - 1.0))
    elapsed = time.perf_counter() - start
    report(2, "density normalization", worst < 1e-4 and elapsed < 30.0,
           f"max |deviation| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_truncation_accuracy():
    t = TruncationConfig(n_max=10, adaptive=True)
    worst = 0.0
    worst_at = None
    for mu, p, phi in itertools.product([1.0, 3.0], [1.2, 1.5, 1.8],
                                        [0.5, 1.0, 2.0]):
        e = EdmParams(mu=mu, p_index=p, dispersion=phi)
        c = to_compound(e)
        if c.lam > 2.0:
            continue
        for frac in np.linspace(0.1, 10.0, 25):
            y = float(frac * mu)
            err = abs(marginal_log_likelihood(y, c, t)
                      - series_log_density_oracle(y, e, rel_tol=1e-12))
            if err > worst:
                worst, worst_at = err, (mu, p, phi, y)
    report(3, "truncation accuracy", worst < 1e-6,
           f"max abs error {worst:.2e} at (mu, p, phi, y)={worst_at}")


def test_criterion_4_sampler_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    c = CompoundParams(lam=2.0, alpha=3.0, beta=0.5)
    e = to_edm(c)
    n = 1_000_000
    draws = tweedie_sample_array(np.full(n, c.lam), c.alpha, np.full(n, c.beta), rng)
    mean_err = abs(draws.mean() - e.mu) / e.mu
    true_var = e.dispersion * e.mu ** e.p_index
    var_err = abs(draws.var() - true_var) / true_var
    p0 = math.exp(-c.lam)
    zero_err = abs((draws == 0.0).mean() - p0)
    zero_band = 3.0 * math.sqrt(p0 * (1.0 - p0) / n)
    elapsed = time.perf_counter() - start
    ok = mean_err < 0.01 and var_err < 0.03 and zero_err < zero_band and elapsed < 60.0
    report(4, "sampler moments", ok,
           f"mean {mean_err:.4f}, var {var_err:.4f}, zero {zero_err:.5f} "
           f"(band {zero_band:.5f}), {elapsed:.1f}s")


def test_criterion_5_gradient_suite():
    errors = {}

    # every primitive at random interior points
    rng = np.random.default_rng(2)
    cases = [
        ("exp", ad.exp, (-2, 2)), ("log", ad.log, (0.2, 5)),
        ("tanh", ad.tanh, (-2, 2)), ("sigmoid", ad.sigmoid, (-4, 4)),
        ("softplus", ad.softplus, (-4, 4)), ("neg", ad.neg, (-2, 2)),
        ("log_gamma", ad.log_gamma, (0.2, 8)),
        ("pow", lambda n: ad.pow_const(n, 1.7), (0.2, 4)),
        ("mul", lambda n: ad.mul(n, n), (-2, 2)),
        ("div", lambda n: ad.div(1.0, n), (0.5, 4)),
        ("add", lambda n: ad.add(n, 0.3), (-2, 2)),
        ("sub", lambda n: ad.sub(n, 0.3), (-2, 2)),
        ("lse", lambda n: ad.log_sum_exp([n, ad.mul(n, 0.5)]), (-2, 2)),
        ("affine", lambda n: ad.affine([n, 2.0], [3.0, n], bias=0.1), (-2, 2)),
    ]
    h = 1e-5
    for name, fn, (lo, hi) in cases:
        worst = 0.0
        for _ in range(20):
            x = float(rng.uniform(lo, hi))
            tape = Tape()
            leaf = tape.leaf(x)
            backward(fn(leaf))
            analytic = leaf.grad

            def value_at(pt):
                t2 = Tape()
                return fn(t2.leaf(pt)).value

            fd = (value_at(x + h) - value_at(x - h)) / (2 * h)
            worst = max(worst, abs(analytic - fd) / max(1.0, abs(fd)))
        errors[name] = worst

    # model log likelihood on an M=5 toy
    truth = SimTruth(fixed_weights=np.array([0.1, 0.3, -0.2]), p_index=1.5,
                     dispersion=1.0, sigma_b=0.4, n_obs=5, group_count=2)
    data, _ = simulate_dataset(truth, np.random.default_rng(4))
    store = ParamStore()
    store.register("raw", np.array([0.1, 0.2, -0.1, 0.05, -0.2, -0.4]))
    store.register("b", math.exp(-0.4) * np.random.default_rng(5).standard_normal(2))

    def mll(p):
        # raw globals and intercepts jointly
        value, d_raw, d_b = log_likelihood_partials(data, p.get("raw"), p.get("b"),
                                                    TruncationConfig())
        return value, np.concatenate([d_raw, d_b])

    errors["log_likelihood_partials"] = finite_diff_check(mll, store, h=1e-5)

    # generator and discriminator losses on toy nets
    cfg = TrainConfig(outer_steps=1, inference_hidden=(4,), critic_hidden=(4,), seed=0)
    trainer = build_trainer(data.n_covariates, data.group_count, cfg,
                            np.random.default_rng(6))

    def gen(p):
        saved = trainer.gen_store.values.copy()
        trainer.gen_store.values[:] = p.values
        value, grad = generator_loss(data, trainer.q, trainer.disc,
                                     cfg.truncation, np.random.default_rng(7),
                                     group_posterior=trainer.group_posterior)
        trainer.gen_store.values[:] = saved
        return value, grad

    errors["generator_loss"] = finite_diff_check(gen, trainer.gen_store.copy(), h=1e-5)

    post = np.random.default_rng(8).standard_normal((8, data.n_covariates + 4))
    prior = np.random.default_rng(9).standard_normal((8, data.n_covariates + 4))

    def disc_loss(p):
        saved = trainer.critic_store.values.copy()
        trainer.critic_store.values[:] = p.values
        value, grad = discriminator_loss(trainer.disc, post, prior)
        trainer.critic_store.values[:] = saved
        return value, grad

    errors["discriminator_loss"] = finite_diff_check(disc_loss,
                                                     trainer.critic_store.copy(), h=1e-5)
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    report(5, "gradient suite", worst < 1e-4,
           f"max rel error {worst:.2e} ({worst_name})")


def test_criterion_6_critic_optimality():
    # 1-D density-ratio recovery: N(1,1) posterior vs N(0,1) prior, whose
    # exact log ratio is z - 0.5.  A critic without hidden layers is the
    # matching function class; training stays within the step budget.
    rng = np.random.default_rng(0)
    store = ParamStore()
    disc = Discriminator(1, store, rng, hidden=())
    state = AdamState.for_store(store, 0.05)
    steps = 2500
    assert steps <= 10_000
    for s in range(steps):
        if s and s % 500 == 0:
            state.learning_rate *= 0.4
        post = rng.normal(1.0, 1.0, size=(128, 1))
        prior = rng.normal(0.0, 1.0, size=(128, 1))
        _, grad = discriminator_loss(disc, post, prior)
        adam_step(store, clip_global_norm(grad, 10.0), state)
    z = np.linspace(-2.0, 3.0, 11)
    err = np.abs(disc.logit_np(z[:, None]) - (z - 0.5))
    report(6, "critic optimality", float(err.max()) < 0.1,
           f"max |T(z) - (z - 0.5)| = {err.max():.4f} over 11 grid points, "
           f"{steps} steps")


def test_criterion_7_synthetic_recovery(recovery_fit):
    _, _, fit, elapsed = recovery_fit
    p_hat = float(fit.draws["p_index"].mean())
    sigma_sq = float((fit.draws["sigma_b"] ** 2).mean())
    w_hat = fit.draws["fixed_weights"].mean(axis=0)
    w_err = np.abs(w_hat - RECOVERY_TRUTH.fixed_weights)
    ok = (abs(p_hat - 1.5) <= 0.1 and 0.125 <= sigma_sq <= 0.5
          and (w_err <= 0.1).all() and elapsed < 600.0)
    report(7, "synthetic recovery", ok,
           f"p {p_hat:.3f}, sigma_b^2 {sigma_sq:.3f}, "
           f"max |w err| {w_err.max():.3f}, {elapsed:.0f}s")


def test_criterion_8_avb_mcmc_agreement():
    truth = SimTruth(fixed_weights=np.array([0.1, 0.3, -0.2]), p_index=1.5,
                     dispersion=1.0, sigma_b=0.5, n_obs=500, group_count=10)
    data, _ = simulate_dataset(truth, np.random.default_rng(3))
    start = time.perf_counter()
    cfg = TrainConfig(outer_steps=1500, minibatch_size=256, critic_batch=16,
                      inference_hidden=(16,), critic_hidden=(16,),
                      latent_sample_count=400, generator_learning_rate=5e-3,
                      critic_learning_rate=2e-3, seed=0)
    fit = train(data, cfg)
    chain = run_chain(data, ChainConfig(iterations=12_000, burn_in=4_000,
                                        thinning=8, seed=0))
    elapsed = time.perf_counter() - start
    doc = chain.to_json_dict()
    p_diff = abs(float(fit.draws["p_index"].mean())
                 - float(np.mean(doc["draws"]["p_index"])))
    w_diff = np.abs(fit.draws["fixed_weights"].mean(axis=0)
                    - np.asarray(doc["draws"]["fixed_weights"]).mean(axis=0))
    ok = p_diff <= 0.15 and (w_diff <= 0.15).all() and elapsed < 600.0
    report(8, "avb-mcmc agreement", ok,
           f"|p diff| {p_diff:.3f}, max |w diff| {w_diff.max():.3f}, {elapsed:.0f}s")


def test_criterion_9_gini_suite():
    y = np.array([0.0, 1.0, 2.0])
    ones = np.ones(3)
    mis = np.array([2.0, 1.0, 0.5])
    well = np.array([0.5, 1.0, 2.0])
    hand_mis = gini(y, ones, mis)
    hand_well = gini(y, ones, well)
    hand_ok = (abs(hand_mis - (-4.0 / 9.0)) < 1e-12
               and abs(hand_well - 4.0 / 9.0) < 1e-12)

    rng = np.random.default_rng(10)
    p = rng.uniform(0.2, 5.0, size=200)
    y_big = rng.uniform(0.0, 3.0, size=200)
    self_ok = gini(y_big, p, p) == 0.0

    y_hat = rng.uniform(0.1, 4.0, size=200)
    base = gini(y_big, p, y_hat)
    scale_ok = all(gini(y_big, p, y_hat * c) == base for c in (0.5, 2.0, 977.0))

    _, se = gini_standard_error(y_big, p, y_hat, n_splits=20, seed=0)
    se_ok = math.isfinite(se) and se >= 0.0
    report(9, "gini suite", hand_ok and self_ok and scale_ok and se_ok,
           f"hand values ({hand_mis:.4f}, {hand_well:.4f}), "
           f"self 0, scale-invariant, 20-split se {se:.4f}")


def test_criterion_10_monotone_signal_sanity(recovery_fit):
    train_data, realized, fit, _ = recovery_fit
    test_truth = SimTruth(
        fixed_weights=RECOVERY_TRUTH.fixed_weights,
        p_index=1.5, dispersion=1.0, sigma_b=0.5, n_obs=2000,
        group_count=10, b=realized.b,
    )
    test_data, _ = simulate_dataset(test_truth, np.random.default_rng(77))
    preds = posterior_predict(fit, test_data.fixed_design, test_data.group_index,
                              np.random.default_rng(0))
    baseline = np.full(test_data.n_obs, train_data.responses.mean())
    point, se = gini_standard_error(test_data.responses, baseline, preds["mean"],
                                    n_splits=20, seed=0)
    report(10, "monotone-signal sanity", point > 0.05 + se,
           f"gini {point:.3f}, split se {se:.3f}")


AUTOCLAIM_PATH = os.environ.get("TWEEDIE_AVB_AUTOCLAIM", "data/AutoClaim.csv")


def test_criterion_11_autoclaim_posterior():
    if not os.path.exists(AUTOCLAIM_PATH):
        print("criterion 11 (autoclaim posterior): SKIP "
              f"(dataset not found at {AUTOCLAIM_PATH})")
        pytest.skip(f"AutoClaim CSV not found at {AUTOCLAIM_PATH}; "
                    "set TWEEDIE_AVB_AUTOCLAIM to its path")
    schema = SchemaConfig(
        response_column="CLM_AMT5",
        fixed_columns=("KIDSDRIV", "TRAVTIME", "BLUEBOOK", "NPOLICY",
                       "MVR_PTS", "AGE", "HOMEKIDS", "YOJ", "INCOME",
                       "HOME_VAL", "SAMEHOME"),
        group_column="CAR_TYPE",
    )
    data = load_csv(AUTOCLAIM_PATH, schema)
    scaled = data
    scaled.responses /= 1000.0
    from tweedie_avb.data import standardize
    scaled, _, _, _ = standardize(scaled)
    cfg = TrainConfig(outer_steps=2500, minibatch_size=256, critic_batch=16,
                      inference_hidden=(16,), critic_hidden=(16,),
                      latent_sample_count=500, generator_learning_rate=5e-3,
                      critic_learning_rate=2e-3, seed=0)
    fit = train(scaled, cfg)
    p_hat = float(fit.draws["p_index"].mean())
    report(11, "autoclaim posterior", 1.25 <= p_hat <= 1.40,
           f"posterior mean of the index parameter {p_hat:.4f}")
