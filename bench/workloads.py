"""One benchmark workload, run in a fresh interpreter by ``bench/run.py``.

Usage (normally started by run.py, which sets PYTHONPATH and pins BLAS
threads): ``python3 bench/workloads.py --workload NAME --seed N
--seconds S --trace 0|1 --workdir DIR --src SRC``.

The workload prepares its inputs five times (timed; the median is the
preparation part of ``setup_s``), then repeats cycles of operations for
``--seconds`` seconds, timing each call into ``tweedie_avb`` from outside
and checking its output.  With ``--trace 1`` every second cycle runs with
the tracer installed; the untraced cycles give the tracing overhead, and
the traced ones are checked for the row counts their inputs fix.  The
last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tweedie_avb
from tweedie_avb import avb, cli, mcmc
from tweedie_avb.avb import TrainConfig
from tweedie_avb.data import SimTruth, simulate_dataset
from tweedie_avb.mcmc import ChainConfig

from tracer import Tracer

PREPARE_REPEATS = 5
FIXED_WEIGHTS = [0.1, 0.3, -0.2]


class OutputError(AssertionError):
    """An operation returned, but its output fails a check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


@dataclass
class Op:
    """One timed call into the program."""

    name: str
    wall_s: float
    steps: int = 0       # outer training steps or MCMC block updates done
    commands: int = 0    # CLI commands run
    problem: str = ""
    traced: bool = False
    gc_pause_s: float = 0.0
    gc_collections: int = 0


class Workload:
    """Base: subclasses define prepare() and cycle()."""

    # Rows per traced call that the workload's inputs fix, checked in a traced run.
    EXPECTED_ROWS: dict = {}

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.tracer = None

    def timed(self, name: str, call, check) -> Op:
        """Time ``call()``; ``check(result)`` runs untimed and returns units."""
        tracer = self.tracer
        gc0 = (tracer.gc_pause_s, tracer.gc_collections) if tracer else (0.0, 0)
        start = perf_counter()
        try:
            result = call()
        except Exception:
            wall = perf_counter() - start
            return Op(name, wall, problem=traceback.format_exc(limit=3))
        wall = perf_counter() - start
        op = Op(name, wall, traced=tracer is not None)
        if tracer is not None:
            op.gc_pause_s = tracer.gc_pause_s - gc0[0]
            op.gc_collections = tracer.gc_collections - gc0[1]
        try:
            op.steps, op.commands = check(result)
        except Exception as exc:
            op.problem = f"{type(exc).__name__}: {exc}"
        return op


# ---------------------------------------------------------------------------
# fit_recovery: library train() on acceptance criterion 7's problem
# ---------------------------------------------------------------------------

def _check_draws(draws: dict) -> None:
    p = np.asarray(draws["p_index"])
    _require(bool(((p > 1.0) & (p < 2.0)).all()), "p_index draws outside (1, 2)")
    for key in ("sigma_b", "dispersion"):
        _require(bool((np.asarray(draws[key]) > 0.0).all()), f"{key} draws not positive")
    for key, value in draws.items():
        _require(bool(np.isfinite(np.asarray(value, dtype=float)).all()),
                 f"non-finite {key} draws")


class FitRecovery(Workload):
    OUTER_STEPS = 20

    def prepare(self, directory: Path) -> None:
        truth = SimTruth(fixed_weights=np.array(FIXED_WEIGHTS), p_index=1.5,
                         dispersion=1.0, sigma_b=0.5, n_obs=5000, group_count=10)
        self.data, _ = simulate_dataset(truth, np.random.default_rng(self.seed))
        self.cfg = TrainConfig(outer_steps=self.OUTER_STEPS, minibatch_size=256,
                               critic_batch=16, inference_hidden=(16,),
                               critic_hidden=(16,), latent_sample_count=500,
                               generator_learning_rate=5e-3,
                               critic_learning_rate=2e-3, seed=0)
        self.reference_trace = None

    def _check(self, fit):
        steps = self.cfg.outer_steps
        for trace in (fit.critic_trace, fit.generator_trace):
            _require(len(trace) == steps, f"trace length {len(trace)} != {steps} steps")
            _require(bool(np.isfinite(trace).all()), "non-finite loss trace")
        _check_draws(fit.draws)
        trace = (fit.critic_trace.tolist(), fit.generator_trace.tolist())
        if self.reference_trace is None:
            self.reference_trace = trace
        _require(trace == self.reference_trace, "loss trace differs between runs of one seed")
        return steps, 0

    def cycle(self) -> list[Op]:
        return [self.timed("train", lambda: avb.train(self.data, self.cfg), self._check)]

    def summarize(self, ops):
        train = [op for op in ops if op.name == "train"]
        return {
            "step_ms": ("ms", [1e3 * op.wall_s / op.steps for op in train]),
            "op_s": ("s", [op.wall_s for op in train]),
        }, {"fit_step_ms": "step_ms"}


# ---------------------------------------------------------------------------
# mcmc_validate: run_chain on acceptance criterion 8's M=500 problem
# ---------------------------------------------------------------------------

class McmcValidate(Workload):
    ITERATIONS = 400
    BURN_IN = 200
    THINNING = 8
    EXPECTED_ROWS = {"tweedie.tweedie_log_pdf.rows": 500}

    def prepare(self, directory: Path) -> None:
        truth = SimTruth(fixed_weights=np.array(FIXED_WEIGHTS), p_index=1.5,
                         dispersion=1.0, sigma_b=0.5, n_obs=500, group_count=10)
        self.data, _ = simulate_dataset(truth, np.random.default_rng(self.seed))
        self.cfg = ChainConfig(iterations=self.ITERATIONS, burn_in=self.BURN_IN,
                               thinning=self.THINNING, seed=0)
        self.reference_draws = None
        self.acceptance = {}

    def _check(self, chain):
        expected = (self.ITERATIONS - self.BURN_IN) // self.THINNING
        _require(chain.retained == expected,
                 f"retained {chain.retained} draws, expected {expected}")
        for name, draws in chain.draws.items():
            _require(bool(np.isfinite(draws).all()), f"non-finite {name} draws")
        for name, rate in chain.acceptance.items():
            _require(0.01 <= rate <= 0.99, f"block {name} acceptance {rate:.3f}")
        draws = {k: v.tolist() for k, v in chain.draws.items()}
        if self.reference_draws is None:
            self.reference_draws = draws
        _require(draws == self.reference_draws, "chain differs between runs of one seed")
        self.acceptance = dict(chain.acceptance)
        return self.ITERATIONS * len(chain.acceptance), 0

    def cycle(self) -> list[Op]:
        return [self.timed("run_chain", lambda: mcmc.run_chain(self.data, self.cfg),
                           self._check)]

    def summarize(self, ops):
        chains = [op for op in ops if op.name == "run_chain"]
        return {
            "step_ms": ("ms", [1e3 * op.wall_s / op.steps for op in chains]),
            "op_s": ("s", [op.wall_s for op in chains]),
        }, {"mcmc_block_ms": "step_ms"}


# ---------------------------------------------------------------------------
# cli_session: the README's simulate / fit / evaluate / predict, in process
# ---------------------------------------------------------------------------

SCHEMA = {"response_column": "y", "fixed_columns": ["x0", "x1"], "group_column": "group"}
SPLIT = {"train": 0.6, "valid": 0.2, "test": 0.2, "seed": 1}
FIT_ARTIFACTS = ("fit.json", "trace.csv", "config_echo.json")
EVALUATE_ARTIFACTS = ("gini_matrix.csv", "gini_matrix.json", "posterior_summary.json",
                      "posterior_p_hist.csv", "lorenz_intercept_avb.csv",
                      "lorenz_avb_intercept.csv", "config_echo.json")


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _check_exit(code, out: Path, artifacts) -> None:
    _require(code == 0, f"exit code {code}")
    missing = [name for name in artifacts if not (out / name).is_file()]
    _require(not missing, f"missing artifacts {missing}")


class CliSession(Workload):
    FIT_STEPS = 2
    ROWS = 2000
    # the validation NLL sees the 400-row valid split
    EXPECTED_ROWS = {"data.load_csv.rows": ROWS, "tweedie.tweedie_log_pdf.rows": 400}

    def prepare(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        sim = _write_json(directory / "simulate.json", {
            "seed": self.seed,
            "truth": {"fixed_weights": FIXED_WEIGHTS, "p_index": 1.5, "dispersion": 1.0,
                      "sigma_b": 0.5, "n_obs": self.ROWS, "group_count": 10}})
        code = cli.main(["simulate", "--config", str(sim), "--out", str(directory / "sim")])
        _check_exit(code, directory / "sim", ("dataset.csv", "truth.json"))
        csv_path = str(directory / "sim" / "dataset.csv")
        fit_json = str(directory / "fit" / "fit.json")
        # The README's fit config without its "mcmc" key (mcmc_validate covers
        # the chain); validation runs once per fit instead of every 50 steps.
        self.fit_cfg = _write_json(directory / "fit.json", {
            "data_csv": csv_path, "schema": SCHEMA, "split": SPLIT,
            "train": {"outer_steps": 2000, "seed": 0, "eval_every": self.FIT_STEPS}})
        self.evaluate_cfg = _write_json(directory / "evaluate.json", {
            "fit_json": fit_json, "data_csv": csv_path, "schema": SCHEMA,
            "split": SPLIT, "seed": 0})
        self.predict_cfg = _write_json(directory / "predict.json", {
            "fit_json": fit_json, "data_csv": csv_path, "seed": 0})
        self.dir = directory

    def _command(self, command: str, config: Path, out: str, check, *extra: str) -> Op:
        """One timed CLI command writing into a freshly emptied ``out``."""
        shutil.rmtree(self.dir / out, ignore_errors=True)
        argv = [command, "--config", str(config), "--out", str(self.dir / out), *extra]
        return self.timed(command, lambda: cli.main(argv), check)

    def _check_fit(self, code):
        out = self.dir / "fit"
        _check_exit(code, out, FIT_ARTIFACTS)
        with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        _require(len(rows) == self.FIT_STEPS, f"trace.csv has {len(rows)} steps")
        _require(all(math.isfinite(float(v)) for row in rows for v in row[1:]),
                 "non-finite loss in trace.csv")
        with open(out / "fit.json", encoding="utf-8") as fh:
            _check_draws(json.load(fh)["draws"])
        return self.FIT_STEPS, 1

    def _check_evaluate(self, code):
        _check_exit(code, self.dir / "evaluate", EVALUATE_ARTIFACTS)
        with open(self.dir / "evaluate" / "gini_matrix.json", encoding="utf-8") as fh:
            matrix = json.load(fh)["matrix"]
        _require(all(math.isfinite(v) for row in matrix for v in row if v is not None),
                 "non-finite Gini")
        return 0, 1

    def _check_predict(self, out: str):
        def check(code):
            _check_exit(code, self.dir / out, ("predictions.csv", "config_echo.json"))
            table = np.loadtxt(self.dir / out / "predictions.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            _require(table.shape == (self.ROWS, 5), f"predictions shape {table.shape}")
            _require(bool(np.isfinite(table).all()), "non-finite predictions")
            _require(bool((table[:, 2] <= table[:, 3]).all() and
                          (table[:, 3] <= table[:, 4]).all()),
                     "quantiles out of order (q05 <= q50 <= q95)")
            return 0, 1
        return check

    def _check_rerun(self, code):
        self._check_predict("predict_b")(code)
        first, second = (hashlib.sha256((self.dir / out / "predictions.csv").read_bytes())
                         .hexdigest() for out in ("predict_a", "predict_b"))
        _require(first == second, "re-run with the same seed changed predictions.csv")
        return 0, 1

    def cycle(self) -> list[Op]:
        return [
            self._command("fit", self.fit_cfg, "fit", self._check_fit,
                          "--steps", str(self.FIT_STEPS)),
            self._command("evaluate", self.evaluate_cfg, "evaluate", self._check_evaluate),
            self._command("predict", self.predict_cfg, "predict_a",
                          self._check_predict("predict_a")),
            self._command("evaluate", self.evaluate_cfg, "evaluate", self._check_evaluate),
            self._command("predict", self.predict_cfg, "predict_b", self._check_rerun),
        ]

    def summarize(self, ops):
        fits = [op for op in ops if op.name == "fit"]
        evaluates = [op.wall_s for op in ops if op.name == "evaluate"]
        predicts = [op.wall_s for op in ops if op.name == "predict"]
        return {
            "step_ms": ("ms", [1e3 * op.wall_s / op.steps for op in fits]),
            "op_s": ("s", [e + p for e, p in zip(evaluates, predicts)]),
            "evaluate_s": ("s", evaluates),
            "predict_rows_per_s": ("rows/s", [self.ROWS / w for w in predicts]),
        }, {"fit_step_ms": "step_ms"}


WORKLOADS = {
    "fit_recovery": FitRecovery,
    "cli_session": CliSession,
    "mcmc_validate": McmcValidate,
}


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

def run(workload: Workload, seconds: float, trace: bool) -> dict:
    prepare_s = []
    for k in range(PREPARE_REPEATS):
        start = perf_counter()
        workload.prepare(workload.workdir / f"inputs{k}")
        prepare_s.append(perf_counter() - start)

    tracer = Tracer() if trace else None
    ops: list[Op] = []
    deadline = perf_counter() + seconds
    cycles = 0
    while cycles < 2 or perf_counter() < deadline:
        traced = trace and cycles % 2 == 1
        if traced:
            tracer.install()
            workload.tracer = tracer
        try:
            ops.extend(workload.cycle())
        finally:
            if traced:
                tracer.uninstall()
                workload.tracer = None
        cycles += 1

    if trace:
        per_layer, invariants = _layer_metrics(workload, tracer, ops)
        ops.append(_check_invariants(workload, invariants))
    good = [op for op in ops if not op.problem]
    result = {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "problems": sorted({f"{op.name}: {op.problem}" for op in ops if op.problem}),
        "prepare_s": prepare_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles": cycles,
    }
    plain, aliases = workload.summarize([op for op in good if not op.traced])
    result["samples"] = plain
    result["aliases"] = aliases
    if trace:
        result["per_layer"] = per_layer
        result["invariants"] = invariants
        result["missing_sites"] = tracer.missing
        result["uncounted"] = sorted(tracer.uncounted)
    return result


def _check_invariants(workload: Workload, invariants: dict) -> Op:
    """One check op: the traced row counts equal the ones the inputs fix."""
    wrong = [f"{key} = {invariants[key][0]:g}, expected {expected}"
             for key, expected in workload.EXPECTED_ROWS.items()
             if invariants[key][0] and invariants[key][0] != expected]
    return Op("trace_invariants", 0.0, problem="; ".join(wrong))


def _layer_metrics(workload: Workload, tracer: Tracer, ops: list) -> tuple[dict, dict]:
    """(per-layer metrics, invariants): the row counts and chain acceptance are
    properties of the inputs and the sampler, not of speed."""
    good = [op for op in ops if not op.problem]
    plain = workload.summarize([op for op in good if not op.traced])[0]
    traced = [op for op in good if op.traced]
    units = {"step": sum(op.steps for op in traced),
             "cmd": sum(op.commands for op in traced)}
    out = tracer.layer_metrics(units)
    steps = units["step"]
    step_ops = [op for op in traced if op.steps]
    wall = sum(op.wall_s for op in traced)
    out["python.gc.pause_ms"] = (
        1e3 * sum(op.gc_pause_s for op in step_ops) / steps if steps else 0.0, "ms/step")
    out["python.gc.collections"] = (
        sum(op.gc_collections for op in step_ops) / steps if steps else 0.0, "count/step")
    out["python.gc.pause_share"] = (
        sum(op.gc_pause_s for op in traced) / wall if wall else 0.0, "ratio")
    invariants = {key: out.pop(key) for key in list(out) if key.endswith(".rows")}
    acceptance = getattr(workload, "acceptance", {})
    for block in mcmc.BLOCK_ORDER:
        invariants[f"mcmc.run_chain.acceptance.{block}"] = (
            float(acceptance.get(block, 0.0)), "ratio")
    traced_steps = workload.summarize(traced)[0]["step_ms"][1]
    untraced_steps = plain["step_ms"][1]
    overhead = share = 0.0
    if traced_steps and untraced_steps:
        untraced = statistics.median(untraced_steps)
        overhead = statistics.median(traced_steps) - untraced
        share = overhead / untraced
    out["trace.overhead_ms"] = (overhead, "ms/step")
    out["trace.overhead_share"] = (share, "ratio")
    out["trace.missing_sites"] = (len(tracer.missing), "count")
    return out, invariants


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True,
                        help="the src directory tweedie_avb must be imported from")
    args = parser.parse_args(argv)
    package = Path(tweedie_avb.__file__).resolve().parent
    if package.parent != args.src.resolve():
        print(f"tweedie_avb imported from {package}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    result = run(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
