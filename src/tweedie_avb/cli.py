"""Command-line front end: simulate, fit, evaluate, predict.

Every subcommand reads a JSON config (``--config``), optionally
overridden by a few flags, echoes the fully resolved config into the
output directory, and writes fixed-name artifacts there.  Re-running
from the echoed config reproduces the outputs bit-identically.

Exit codes: 0 success, 1 user/config error, 2 numerical abort.
Log verbosity comes from the TWEEDIE_AVB_LOG environment variable
(DEBUG/INFO/WARNING/ERROR, default WARNING).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as data_io, evaluation
from .autodiff import NonFiniteGradientError
from .avb import FitResult, TrainConfig, TrainingAbortError, posterior_predict, train
from .data import SchemaConfig, SimTruth, SplitSpec, load_csv, simulate_dataset, split_dataset, standardize, write_csv
from .mcmc import ChainConfig, run_chain
from .model import FlaggedObservationError
from .tweedie import InvalidParameterError, NonConvergenceError

log = logging.getLogger("tweedie_avb")


class UserError(ValueError):
    """Configuration or input problem attributable to the caller."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`UserError`, so it exits 1, not argparse's 2."""

    def error(self, message):
        raise UserError(f"{self.prog}: {message}")


def _setup_logging() -> None:
    level = os.environ.get("TWEEDIE_AVB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UserError(f"malformed config {path}: {exc}") from None


def _out_dir(config: dict, args) -> Path:
    out = args.out or config.get("out")
    if out is None:
        raise UserError("an output directory is required (--out or config key 'out')")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _type_error(value, annotation: str):
    """What a config field annotated ``annotation`` needs, if ``value`` is not that; else None."""
    if annotation == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        return "an integer"
    if annotation == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return "a number"
    if annotation == "tuple[int, ...]" and not (
            isinstance(value, list) and not any(_type_error(v, "int") for v in value)):
        return "a list of integers"
    return None


def _parse(section: str, cls, d):
    """``cls.from_dict(d)``; a missing, unknown or bad key is a UserError naming ``section``.

    A value that does not fit its field's annotation (``int``, ``float`` or
    ``tuple[int, ...]``; a bool is not a number) is a bad key.
    """
    if not isinstance(d, dict):
        raise UserError(f"invalid {section} config: expected an object, got {d!r}")
    for f in fields(cls):
        expected = f.name in d and _type_error(d[f.name], f.type)
        if expected:
            raise UserError(f"invalid {section} config: {f.name} must be {expected}, "
                            f"got {d[f.name]!r}")
    try:
        return cls.from_dict(d)
    except (TypeError, ValueError) as exc:
        raise UserError(f"invalid {section} config: {exc}") from None


def _apply_seed(config: dict, args) -> None:
    """Set the top-level seed to ``--seed``, else the config's, else 0; an integer >= 0."""
    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 0)
    if _type_error(config["seed"], "int") or config["seed"] < 0:
        raise UserError(f"seed must be an integer >= 0, got {config['seed']!r}")


def _echo_config(config: dict, out: Path) -> None:
    with open(out / "config_echo.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    _apply_seed(config, args)
    config["out"] = str(_out_dir(config, args))
    if config.get("truth") is None:
        raise UserError("simulate needs a 'truth' object in the config")
    truth = _parse("truth", SimTruth, config["truth"])
    out = Path(config["out"])
    rng = np.random.default_rng(config["seed"])
    dataset, realized = simulate_dataset(truth, rng)
    write_csv(dataset, out / "dataset.csv")
    config["truth"] = truth.to_dict()  # echo the input truth; realized b goes to truth.json
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(realized.to_dict(), fh, indent=2)
    _echo_config(config, out)
    log.info("wrote %d rows to %s", dataset.n_obs, out / "dataset.csv")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _load_dataset(config: dict, default_schema=None):
    """``data_csv`` loaded under the config's schema, else ``default_schema``; and that schema."""
    path = config.get("data_csv")
    if path is None:
        raise UserError("config key 'data_csv' is required")
    if not Path(path).exists():
        raise UserError(f"data file not found: {path}")
    schema_dict = config.get("schema") or default_schema
    if schema_dict is None:
        raise UserError("config key 'schema' is required")
    schema = _parse("schema", SchemaConfig, schema_dict)
    return load_csv(path, schema), schema


def _write_trace_csv(fit: FitResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "critic_loss", "generator_loss"])
        for i, (c, g) in enumerate(zip(fit.critic_trace, fit.generator_trace)):
            writer.writerow([i, repr(float(c)), repr(float(g))])


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config.setdefault("train", {})["seed"] = args.seed
    if args.steps is not None:
        config.setdefault("train", {})["outer_steps"] = args.steps
    if args.mcmc:
        config.setdefault("mcmc", {})
    config["out"] = str(_out_dir(config, args))
    out = Path(config["out"])

    dataset, schema = _load_dataset(config)
    split = _parse("split", SplitSpec, config.get("split", {}))
    config["split"] = split.to_dict()
    train_set, valid_set, test_set = split_dataset(dataset, split)
    do_standardize = config.setdefault("standardize", True)
    if do_standardize:
        train_set, (valid_set, test_set), means, scales = standardize(
            train_set, [valid_set, test_set])
    else:
        means = np.zeros(dataset.n_covariates)
        scales = np.ones(dataset.n_covariates)

    cfg = _parse("train", TrainConfig, config.get("train", {}))
    config["train"] = cfg.to_dict()
    config["schema"] = schema.to_dict()
    chain_cfg = None
    if config.get("mcmc") is not None:
        chain_cfg = _parse("mcmc", ChainConfig, config["mcmc"])
        config["mcmc"] = chain_cfg.to_dict()

    try:
        fit = train(train_set, cfg, valid=valid_set)
    except TrainingAbortError as exc:
        if exc.checkpoint is None:
            log.error("training aborted at step %d; no checkpoint could be stored", exc.step)
        else:
            checkpoint_path = out / "fit_checkpoint.json"
            exc.checkpoint.save(checkpoint_path)
            log.error("training aborted at step %d; checkpoint at %s", exc.step, checkpoint_path)
        raise
    fit.metadata["schema"] = schema.to_dict()
    fit.metadata["standardize"] = {
        "enabled": bool(do_standardize),
        "means": np.asarray(means).tolist(),
        "scales": np.asarray(scales).tolist(),
    }
    fit.metadata["group_levels"] = dataset.group_levels
    fit.metadata["split"] = split.to_dict()
    fit.metadata["data_csv"] = config["data_csv"]
    fit.save(out / "fit.json")
    _write_trace_csv(fit, out / "trace.csv")

    if chain_cfg is not None:
        run_chain(train_set, chain_cfg).save(out / "mcmc.json")
    _echo_config(config, out)
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _load_fit(config: dict) -> FitResult:
    path = config.get("fit_json")
    if path is None:
        raise UserError("config key 'fit_json' is required")
    if not Path(path).exists():
        raise UserError(f"fit artifact not found: {path}")
    try:
        return FitResult.load(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise UserError(f"invalid fit artifact {path}: {exc!r}") from None


def _apply_stored_transform(fit: FitResult, ds):
    info = fit.metadata.get("standardize")
    if not info or not info.get("enabled"):
        return ds
    return data_io.apply_standardization(ds, np.asarray(info["means"]),
                                         np.asarray(info["scales"]))


def _encode_groups(fit: FitResult, ds) -> np.ndarray:
    levels = fit.metadata.get("group_levels")
    if not levels or ds.group_levels is None:
        return np.full(ds.n_obs, -1, dtype=int)
    encode = {lvl: i for i, lvl in enumerate(levels)}
    return np.array([encode.get(ds.group_levels[g], -1) for g in ds.group_index], dtype=int)


def _check_columns(fit: FitResult, ds) -> None:
    trained = list(fit.metadata.get("column_names", []))
    got = list(ds.column_names)
    if trained != got:
        missing = [c for c in trained if c not in got]
        extra = [c for c in got if c not in trained]
        raise UserError(
            f"covariate columns differ from training: missing {missing}, unexpected {extra}"
        )


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    _apply_seed(config, args)
    config["out"] = str(_out_dir(config, args))
    out = Path(config["out"])
    fit = _load_fit(config)
    dataset, schema = _load_dataset(config)
    split = _parse("split", SplitSpec, config.get("split", fit.metadata.get("split", {})))
    config["split"] = split.to_dict()
    config["schema"] = schema.to_dict()
    train_set, _, test_set = split_dataset(dataset, split)
    test_std = _apply_stored_transform(fit, test_set)
    _check_columns(fit, test_std)

    rng = np.random.default_rng(config["seed"])
    preds = posterior_predict(fit, test_std.fixed_design, _encode_groups(fit, test_std), rng,
                              quantiles=())
    baseline = np.full(test_set.n_obs, max(train_set.responses.mean(), 1e-12))
    predictions = {"intercept": baseline, "avb": preds["mean"]}
    for name, path in (config.get("extra_predictions") or {}).items():
        if not Path(path).exists():
            raise UserError(f"prediction file not found for model {name!r}: {path}")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
        if values.shape[0] != test_set.n_obs:
            raise UserError(
                f"prediction file {path} has {values.shape[0]} rows, expected {test_set.n_obs}"
            )
        predictions[name] = values

    matrix = evaluation.pairwise_gini_matrix(test_set.responses, predictions)
    evaluation.write_gini_matrix_csv(matrix, out / "gini_matrix.csv")
    evaluation.write_gini_matrix_json(matrix, out / "gini_matrix.json")
    for i, base_name in enumerate(matrix["names"]):
        for j, model_name in enumerate(matrix["names"]):
            if i == j:
                continue
            curve = evaluation.ordered_lorenz(
                test_set.responses, predictions[base_name], predictions[model_name])
            curve.write_csv(out / f"lorenz_{base_name}_{model_name}.csv")

    summaries = {}
    for key in ("p_index", "dispersion", "sigma_b"):
        draws = np.asarray(fit.draws[key])
        if draws.size >= 2:
            summaries[key] = evaluation.posterior_summary(draws)
    sigma_sq = np.asarray(fit.draws["sigma_b"]) ** 2
    if sigma_sq.size >= 2:
        summaries["sigma_b_squared"] = evaluation.posterior_summary(sigma_sq)
    with open(out / "posterior_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summaries, fh, indent=2)

    p_summary = summaries.get("p_index")
    if p_summary is not None:
        with open(out / "posterior_p_hist.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            edges = p_summary["histogram_edges"]
            for left, right, count in zip(edges[:-1], edges[1:],
                                          p_summary["histogram_counts"]):
                writer.writerow([repr(left), repr(right), count])
    _echo_config(config, out)
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    config = _load_config(args.config)
    _apply_seed(config, args)
    config["out"] = str(_out_dir(config, args))
    out = Path(config["out"])
    fit = _load_fit(config)
    ds, schema = _load_dataset(config, fit.metadata.get("schema"))
    config["schema"] = schema.to_dict()
    ds_std = _apply_stored_transform(fit, ds)
    _check_columns(fit, ds_std)
    rng = np.random.default_rng(config["seed"])
    preds = posterior_predict(fit, ds_std.fixed_design, _encode_groups(fit, ds_std), rng)
    with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "mean", "q05", "q50", "q95"])
        columns = [preds[k].tolist() for k in ("mean", "q05", "q50", "q95")]
        writer.writerows(zip(range(ds.n_obs), *columns))
    _echo_config(config, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tweedie-avb",
        description="Bayesian Tweedie mixed models via adversarial variational inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("fit", cmd_fit),
                     ("evaluate", cmd_evaluate), ("predict", cmd_predict)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument("--out", help="output directory")
        if name == "fit":
            p.add_argument("--mcmc", action="store_true",
                           help="also run the MCMC validation chain")
            p.add_argument("--steps", type=int, help="outer training steps")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UserError, data_io.SchemaError, data_io.SplitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingAbortError, NonFiniteGradientError, NonConvergenceError,
            FlaggedObservationError, InvalidParameterError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
