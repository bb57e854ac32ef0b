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
import itertools
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


# The type of every top-level config key a command reads; a null key is dropped, so it
# means the same as an absent one.  A key no command reads is ignored, so one config can
# serve several commands.
_TOP_LEVEL_TYPES = {
    "out": "str", "data_csv": "str", "fit_json": "str", "seed": "int",
    "standardize": "bool", "extra_predictions": "dict[str, str]",
    "truth": "object", "schema": "object", "split": "object", "train": "object",
    "mcmc": "object",
}


def _type_error(value, annotation: str):
    """What a config value annotated ``annotation`` needs, if ``value`` is not that; else None."""
    if annotation == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        return "an integer"
    if annotation == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return "a number"
    if annotation == "tuple[int, ...]" and not (
            isinstance(value, list) and not any(_type_error(v, "int") for v in value)):
        return "a list of integers"
    if annotation == "str" and not isinstance(value, str):
        return "a string"
    if annotation == "bool" and not isinstance(value, bool):
        return "true or false"
    if annotation == "object" and not isinstance(value, dict):
        return "an object"
    if annotation == "dict[str, str]" and not (
            isinstance(value, dict) and all(isinstance(v, str) for v in value.values())):
        return "an object of strings"
    return None


def _load_config(path) -> dict:
    """The config at ``path`` ({} for None) without its null keys, each of the type it needs."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, or not JSON
        raise UserError(f"malformed config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UserError(f"malformed config {path}: expected a JSON object")
    config = {key: value for key, value in config.items() if value is not None}
    for key, annotation in _TOP_LEVEL_TYPES.items():
        expected = key in config and _type_error(config[key], annotation)
        if expected:
            raise UserError(f"config key {key!r} must be {expected}, got {config[key]!r}")
    return config


def _out_dir(config: dict, args) -> Path:
    """Make ``--out``, else the config's ``out``, and record it in the config as ``out``."""
    out = args.out or config.get("out")
    if out is None:
        raise UserError("an output directory is required (--out or config key 'out')")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file by that name, or under one
        raise UserError(f"cannot make output directory {out}: {exc}") from None
    config["out"] = str(path)
    return path


def _parse(section: str, cls, d):
    """``cls(**d)``; a missing, unknown or bad key is a UserError naming ``section``.

    A value that does not fit its field's annotation, where ``_type_error``
    knows the annotation (a bool is not a number), is a bad key.
    """
    if not isinstance(d, dict):
        raise UserError(f"invalid {section} config: expected an object, got {d!r}")
    for f in fields(cls):
        expected = f.name in d and _type_error(d[f.name], f.type)
        if expected:
            raise UserError(f"invalid {section} config: {f.name} must be {expected}, "
                            f"got {d[f.name]!r}")
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise UserError(f"invalid {section} config: {exc}") from None


def _apply_seed(config: dict, args) -> None:
    """Set the top-level seed to ``--seed``, else the config's, else 0; an integer >= 0."""
    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 0)
    if _type_error(config["seed"], "int") or config["seed"] < 0:
        raise UserError(f"seed must be an integer >= 0, got {config['seed']!r}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, args, out: Path) -> None:
    if "truth" not in config:
        raise UserError("simulate needs a 'truth' object in the config")
    truth = _parse("truth", SimTruth, config["truth"])
    rng = np.random.default_rng(config["seed"])
    dataset, realized = simulate_dataset(truth, rng)
    write_csv(dataset, out / "dataset.csv")
    config["truth"] = truth.to_dict()  # echo the input truth; realized b goes to truth.json
    data_io.write_json(out / "truth.json", realized.to_dict(), indent=2)
    log.info("wrote %d rows to %s", dataset.n_obs, out / "dataset.csv")


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


def cmd_fit(config: dict, args, out: Path) -> None:
    for key, value in (("seed", args.seed), ("outer_steps", args.steps)):
        if value is not None:
            config["train"] = {**config.get("train", {}), key: value}
    if args.mcmc:
        config.setdefault("mcmc", {})

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
    if "mcmc" in config:
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
    data_io.write_table(out / "trace.csv", ["step", "critic_loss", "generator_loss"],
                        zip(range(fit.critic_trace.size), fit.critic_trace.tolist(),
                            fit.generator_trace.tolist()))

    if chain_cfg is not None:
        run_chain(train_set, chain_cfg).save(out / "mcmc.json")


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
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise UserError(f"invalid fit artifact {path}: {exc!r}") from None


def _predict(fit: FitResult, ds, rng, **kwargs) -> dict:
    """``posterior_predict`` on ``ds``'s rows, under the fit's stored transform and group codes."""
    trained = list(fit.metadata.get("column_names", []))
    got = list(ds.column_names)
    if trained != got:
        missing = [c for c in trained if c not in got]
        extra = [c for c in got if c not in trained]
        raise UserError(
            f"covariate columns differ from training: missing {missing}, unexpected {extra}"
        )
    info = fit.metadata.get("standardize")
    if info and info.get("enabled"):
        ds = data_io.apply_standardization(ds, np.asarray(info["means"]),
                                           np.asarray(info["scales"]))
    levels = fit.metadata.get("group_levels")
    if levels and ds.group_levels is not None:
        encode = {lvl: i for i, lvl in enumerate(levels)}
        groups = np.array([encode.get(ds.group_levels[g], -1) for g in ds.group_index], dtype=int)
    else:
        groups = np.full(ds.n_obs, -1, dtype=int)
    return posterior_predict(fit, ds.fixed_design, groups, rng, **kwargs)


def cmd_evaluate(config: dict, args, out: Path) -> None:
    fit = _load_fit(config)
    dataset, schema = _load_dataset(config)
    split = _parse("split", SplitSpec, config.get("split", fit.metadata.get("split", {})))
    config["split"] = split.to_dict()
    config["schema"] = schema.to_dict()
    train_set, _, test_set = split_dataset(dataset, split)
    preds = _predict(fit, test_set, np.random.default_rng(config["seed"]), quantiles=())
    baseline = np.full(test_set.n_obs, max(train_set.responses.mean(), 1e-12))
    predictions = {"intercept": baseline, "avb": preds["mean"]}
    for name, path in config.get("extra_predictions", {}).items():
        if name in predictions:
            raise UserError(f"extra_predictions names the built-in model {name!r}; "
                            f"the built-in models are {', '.join(predictions)}")
        if not Path(path).exists():
            raise UserError(f"prediction file not found for model {name!r}: {path}")
        try:
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:  # a directory, or a cell that is not a number
            raise UserError(
                f"unreadable prediction file {path} for model {name!r}: {exc}") from None
        if values.shape[1] != 1:
            raise UserError(f"prediction file {path} for model {name!r} has "
                            f"{values.shape[1]} columns, expected 1")
        values = values.ravel()
        if values.shape[0] != test_set.n_obs:
            raise UserError(
                f"prediction file {path} has {values.shape[0]} rows, expected {test_set.n_obs}"
            )
        if not (np.isfinite(values) & (values > 0)).all():  # every model is also a baseline
            raise UserError(f"prediction file {path} for model {name!r} holds a value that is "
                            "not a finite positive number")
        predictions[name] = values

    matrix = evaluation.pairwise_gini_matrix(test_set.responses, predictions)
    data_io.write_table(out / "gini_matrix.csv", ["baseline\\model", *matrix["names"]],
                        ([name, *row] for name, row in zip(matrix["names"], matrix["matrix"])))
    data_io.write_json(out / "gini_matrix.json", matrix, indent=2)
    for base_name, model_name in itertools.permutations(matrix["names"], 2):
        curve = evaluation.ordered_lorenz(
            test_set.responses, predictions[base_name], predictions[model_name])
        data_io.write_table(out / f"lorenz_{base_name}_{model_name}.csv", ["F_p", "F_y"],
                            curve.points)

    draws = {key: np.asarray(fit.draws[key]) for key in ("p_index", "dispersion", "sigma_b")}
    draws["sigma_b_squared"] = draws["sigma_b"] ** 2
    summaries = {key: evaluation.posterior_summary(d) for key, d in draws.items() if d.size >= 2}
    data_io.write_json(out / "posterior_summary.json", summaries, indent=2)

    p_summary = summaries.get("p_index")
    if p_summary is not None:
        edges = p_summary["histogram_edges"]
        data_io.write_table(out / "posterior_p_hist.csv", ["bin_left", "bin_right", "count"],
                            zip(edges[:-1], edges[1:], p_summary["histogram_counts"]))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(config: dict, args, out: Path) -> None:
    fit = _load_fit(config)
    ds, schema = _load_dataset(config, fit.metadata.get("schema"))
    config["schema"] = schema.to_dict()
    preds = _predict(fit, ds, np.random.default_rng(config["seed"]))
    columns = [preds[k].tolist() for k in ("mean", "q05", "q50", "q95")]
    data_io.write_table(out / "predictions.csv", ["row", "mean", "q05", "q50", "q95"],
                        zip(range(ds.n_obs), *columns))


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
        config = _load_config(args.config)
        if args.command != "fit":  # fit's --seed is the training seed
            _apply_seed(config, args)
        out = _out_dir(config, args)
        args.func(config, args, out)
        data_io.write_json(out / "config_echo.json", config, indent=2, sort_keys=True)
        return 0
    except (UserError, data_io.SchemaError, data_io.SplitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingAbortError, NonFiniteGradientError, NonConvergenceError,
            FlaggedObservationError, InvalidParameterError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
