"""Command-line front end: subcommand wiring, exit codes, artifacts."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from tweedie_avb import avb, cli
from tweedie_avb.cli import main
from tweedie_avb.data import SimTruth, simulate_dataset, write_csv


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


SCHEMA = {"response_column": "y", "fixed_columns": ["x0", "x1"], "group_column": "group"}
TRUTH = {
    "fixed_weights": [0.1, 0.3, -0.2],
    "p_index": 1.5,
    "dispersion": 1.0,
    "sigma_b": 0.5,
    "n_obs": 120,
    "group_count": 4,
}
TRAIN = {"outer_steps": 8, "minibatch_size": 32, "critic_batch": 8,
         "latent_sample_count": 30, "inference_hidden": [8], "critic_hidden": [8],
         "seed": 3}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulate + fit run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    sim_cfg = write_json(root / "sim.json", {"seed": 7, "truth": TRUTH})
    assert main(["simulate", "--config", sim_cfg, "--out", str(root / "sim")]) == 0
    data_csv = str(root / "sim" / "dataset.csv")
    fit_cfg = write_json(root / "fit.json", {
        "data_csv": data_csv,
        "schema": SCHEMA,
        "split": {"train": 0.5, "valid": 0.25, "test": 0.25, "seed": 1},
        "train": TRAIN,
    })
    assert main(["fit", "--config", fit_cfg, "--out", str(root / "fit")]) == 0
    return root


class TestSimulate:
    def test_writes_dataset_and_truth(self, workspace):
        assert (workspace / "sim" / "dataset.csv").exists()
        truth = json.loads((workspace / "sim" / "truth.json").read_text())
        assert len(truth["b"]) == TRUTH["group_count"]
        with open(workspace / "sim" / "dataset.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TRUTH["n_obs"]

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "s.json", {"seed": 7, "truth": TRUTH})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
        a = (workspace / "sim" / "dataset.csv").read_bytes()
        b = (tmp_path / "again" / "dataset.csv").read_bytes()
        assert a == b

    def test_invalid_truth_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "s.json",
                         {"seed": 0, "truth": {**TRUTH, "n_obs": 0}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestFit:
    def test_artifacts_written(self, workspace):
        out = workspace / "fit"
        for name in ("fit.json", "trace.csv", "config_echo.json"):
            assert (out / name).exists()
        doc = json.loads((out / "fit.json").read_text())
        assert doc["metadata"]["group_levels"] is not None
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TRAIN["outer_steps"]

    def test_rerun_from_echo_reproduces_trace(self, workspace, tmp_path):
        echo = json.loads((workspace / "fit" / "config_echo.json").read_text())
        echo["out"] = str(tmp_path / "refit")
        cfg = write_json(tmp_path / "echo.json", echo)
        assert main(["fit", "--config", cfg]) == 0
        a = (workspace / "fit" / "trace.csv").read_bytes()
        b = (tmp_path / "refit" / "trace.csv").read_bytes()
        assert a == b

    def test_missing_data_file_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "f.json", {
            "data_csv": str(tmp_path / "nope.csv"), "schema": SCHEMA,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_mcmc_flag_writes_chain(self, workspace, tmp_path):
        echo = json.loads((workspace / "fit" / "config_echo.json").read_text())
        echo["out"] = str(tmp_path / "withchain")
        echo["train"] = {**TRAIN, "outer_steps": 3}
        echo["mcmc"] = {"iterations": 60, "burn_in": 20, "thinning": 5, "seed": 0}
        cfg = write_json(tmp_path / "c.json", echo)
        assert main(["fit", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "withchain" / "mcmc.json").read_text())
        assert "p_index" in doc["draws"]

    def test_numerical_abort_exits_2_with_checkpoint(self, tmp_path):
        # unstandardized covariates x1e4 overflow the log link
        truth = SimTruth(**TRUTH)
        data, _ = simulate_dataset(truth, np.random.default_rng(0))
        data.fixed_design *= 1e4
        write_csv(data, tmp_path / "big.csv")
        cfg = write_json(tmp_path / "f.json", {
            "data_csv": str(tmp_path / "big.csv"), "schema": SCHEMA,
            "standardize": False, "train": TRAIN,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (tmp_path / "o" / "fit_checkpoint.json").exists()
        assert not (tmp_path / "o" / "fit.json").exists()

    def test_runaway_step_exits_2_with_checkpoint(self, workspace, tmp_path):
        # one generator step of size 1e4 overflows exp of the raw latents
        echo = json.loads((workspace / "fit" / "config_echo.json").read_text())
        echo["out"] = str(tmp_path / "o")
        echo["train"] = {**TRAIN, "generator_learning_rate": 1e4}
        cfg = write_json(tmp_path / "f.json", echo)
        assert main(["fit", "--config", cfg]) == 2
        assert (tmp_path / "o" / "fit_checkpoint.json").exists()
        assert not (tmp_path / "o" / "fit.json").exists()

    def test_abort_without_storable_checkpoint_exits_2(self, workspace, tmp_path, monkeypatch,
                                                        capsys, caplog):
        # the inference net starts where sigma_b underflows to 0 on every draw: step 0
        # aborts, and the parameters it started from cannot be stored as a checkpoint
        build = avb.build_trainer

        def shifted(*args):
            trainer = build(*args)
            trainer.q.store.get(f"q.b{trainer.q.n_layers - 1}")[-1] -= 800.0
            return trainer

        monkeypatch.setattr(avb, "build_trainer", shifted)
        echo = json.loads((workspace / "fit" / "config_echo.json").read_text())
        echo["out"] = str(tmp_path / "o")
        cfg = write_json(tmp_path / "f.json", echo)
        assert main(["fit", "--config", cfg]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert "no checkpoint could be stored" in caplog.text
        assert not (tmp_path / "o" / "fit_checkpoint.json").exists()
        assert not (tmp_path / "o" / "fit.json").exists()


class TestEvaluate:
    def test_artifacts_and_summary(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "e.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "schema": SCHEMA,
            "split": {"train": 0.5, "valid": 0.25, "test": 0.25, "seed": 1},
            "seed": 0,
        })
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        for name in ("gini_matrix.csv", "gini_matrix.json", "posterior_summary.json",
                     "posterior_p_hist.csv", "lorenz_intercept_avb.csv",
                     "lorenz_avb_intercept.csv"):
            assert (out / name).exists(), name
        summary = json.loads((out / "posterior_summary.json").read_text())
        fit = json.loads((workspace / "fit" / "fit.json").read_text())
        p_draws = np.asarray(fit["draws"]["p_index"])
        assert summary["p_index"]["mean"] == pytest.approx(p_draws.mean())
        counts = sum(summary["p_index"]["histogram_counts"])
        assert counts == p_draws.size
        with open(out / "posterior_p_hist.csv") as fh:
            hist_rows = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in hist_rows) == p_draws.size

    def test_missing_fit_artifact(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "e.json", {
            "fit_json": str(tmp_path / "missing.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "schema": SCHEMA,
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestPredict:
    def test_full_file_prediction(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "seed": 0,
        })
        out = tmp_path / "pred"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == TRUTH["n_obs"]
        for row in rows:
            assert float(row["q05"]) <= float(row["q50"]) <= float(row["q95"])

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "seed": 0,
        })
        for out in ("a", "b"):
            assert main(["predict", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "a" / "predictions.csv").read_bytes()
                == (tmp_path / "b" / "predictions.csv").read_bytes())

    def test_fit_with_stored_prior_parameters_still_predicts(self, workspace, tmp_path):
        # fit.json files written while the generator store held a trainable
        # prior carry prior.loc and prior.log_scale; they load and predict alike
        doc = json.loads((workspace / "fit" / "fit.json").read_text())
        gen = doc["parameters"]["generator"]
        assert not any(name.startswith("prior.") for name in gen)
        dim = len(TRUTH["fixed_weights"]) + 3
        gen.update({"prior.loc": [0.0] * dim, "prior.log_scale": [0.0] * dim})
        old_json = write_json(tmp_path / "old_fit.json", doc)
        for name, fit_json in (("new", str(workspace / "fit" / "fit.json")), ("old", old_json)):
            cfg = write_json(tmp_path / f"{name}.json", {
                "fit_json": fit_json,
                "data_csv": str(workspace / "sim" / "dataset.csv"),
                "seed": 0,
            })
            assert main(["predict", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "old" / "predictions.csv").read_bytes()
                == (tmp_path / "new" / "predictions.csv").read_bytes())

    def test_unseen_group_handled(self, workspace, tmp_path):
        src = (workspace / "sim" / "dataset.csv").read_text().splitlines()
        new = src[:1] + [line.rsplit(",", 1)[0] + ",brand_new" for line in src[1:4]]
        new_csv = tmp_path / "new.csv"
        new_csv.write_text("\n".join(new) + "\n")
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(new_csv),
            "seed": 0,
        })
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_runaway_weights_exit_2(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "fit" / "fit.json").read_text())
        w = np.asarray(doc["draws"]["fixed_weights"])
        w[:, 0] += 40.0  # intercepts past the log-link limit
        doc["draws"]["fixed_weights"] = w.tolist()
        fit_json = write_json(tmp_path / "runaway.json", doc)
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": fit_json,
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "seed": 0,
        })
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "numerical abort" in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize("phi,code,message", [
        (1e-300, 2, "numerical abort: Poisson rate"),  # rate past rng.poisson's limit
        (-1.0, 1, "error: invalid fit artifact"),
    ])
    def test_extreme_stored_dispersion(self, workspace, tmp_path, capsys, phi, code, message):
        doc = json.loads((workspace / "fit" / "fit.json").read_text())
        doc["draws"]["dispersion"] = [phi] * len(doc["draws"]["dispersion"])
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": write_json(tmp_path / "fit.json", doc),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "seed": 0,
        })
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "o" / "predictions.csv").exists()

    def test_schema_mismatch_names_columns(self, workspace, tmp_path, capsys):
        src = (workspace / "sim" / "dataset.csv").read_text().splitlines()
        header = src[0].replace("x1", "x9")
        new_csv = tmp_path / "bad.csv"
        new_csv.write_text("\n".join([header] + src[1:5]) + "\n")
        schema = {**SCHEMA, "fixed_columns": ["x0", "x9"]}
        cfg = write_json(tmp_path / "p.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(new_csv),
            "schema": schema,
        })
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "x1" in err and "x9" in err


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_out_dir(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"seed": 0, "truth": TRUTH})
        assert main(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize("command", ["fit", "evaluate", "predict"])
    def test_short_csv_row_exits_1(self, workspace, tmp_path, capsys, command):
        # a row with fewer cells than the header is named, not left to a TypeError
        data_csv = tmp_path / "short.csv"
        data_csv.write_text("y,x0,x1,group\n1.0,0.5,0.2,g1\n0.0,0.1\n", encoding="utf-8")
        cfg = write_json(tmp_path / "c.json", {
            "fit_json": str(workspace / "fit" / "fit.json"), "data_csv": str(data_csv),
            "schema": SCHEMA, "train": TRAIN, "seed": 0,
        })
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "row 1 has 2 cells but the header has 4" in err

    @pytest.mark.parametrize("command,role,content", [
        ("evaluate", "config", b"[1, 2]"),
        ("evaluate", "config", b"\xff{}"),
        ("evaluate", "config", None),
        ("fit", "data_csv", b"y,x0,x1,group\n1.0,0.5,\xff,g1\n"),
        ("fit", "data_csv", None),
        ("evaluate", "extra_predictions", b"pred\n1.0\nabc\n"),
        ("evaluate", "extra_predictions", None),
        ("predict", "fit_json", None),
        ("predict", "out", b""),
    ], ids=["config-not-object", "config-not-utf8", "config-is-dir", "csv-not-utf8",
            "csv-is-dir", "predictions-not-numeric", "predictions-is-dir", "fit-json-is-dir",
            "out-is-file"])
    def test_unreadable_input_exits_1(self, workspace, tmp_path, capsys, command, role,
                                      content):
        # an input that cannot be read (None: a directory) is named, not left to a traceback
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        config = {"fit_json": str(workspace / "fit" / "fit.json"),
                  "data_csv": str(workspace / "sim" / "dataset.csv"),
                  "schema": SCHEMA, "train": TRAIN, "seed": 0}
        if role in ("data_csv", "fit_json"):
            config[role] = str(path)
        elif role == "extra_predictions":
            config[role] = {"glm": str(path)}
        cfg = str(path) if role == "config" else write_json(tmp_path / "c.json", config)
        out = path if role == "out" else tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command,setting,flags,named", [
        ("fit", {"data_csv": 5}, [], "'data_csv' must be a string"),
        ("fit", {"standardize": "no"}, [], "'standardize' must be true or false"),
        ("fit", {"out": 5}, None, "'out' must be a string"),
        ("fit", {"train": 5}, ["--seed", "3"], "'train' must be an object"),
        ("fit", {"train": 5}, ["--steps", "3"], "'train' must be an object"),
        ("evaluate", {"extra_predictions": ["x.csv"]}, [], "'extra_predictions' must be an object"),
        ("evaluate", {"extra_predictions": {"glm": 5}}, [], "'extra_predictions' must be an object"),
        ("evaluate", {"fit_json": 5}, [], "'fit_json' must be a string"),
        ("predict", {"fit_json": 5}, [], "'fit_json' must be a string"),
        ("simulate", {"truth": {**TRUTH, "group_count": -2}}, [], "group_count must be >= 0"),
        ("simulate", {"truth": {**TRUTH, "fixed_weights": []}}, [], "fixed_weights must be"),
        ("simulate", {"truth": {**TRUTH, "fixed_weights": [[0.1, 0.3]]}}, [],
         "fixed_weights must be"),
    ], ids=["data_csv-number", "standardize-string", "out-number", "train-number-seed",
            "train-number-steps", "extra_predictions-list", "extra_predictions-number-path",
            "evaluate-fit_json-number", "predict-fit_json-number", "truth-negative-group_count",
            "truth-empty-fixed_weights", "truth-matrix-fixed_weights"])
    def test_wrong_top_level_value_exits_1(self, workspace, tmp_path, capsys, command, setting,
                                           flags, named):
        # one config serves every command; a value of the wrong type is named, not misread
        # or left to a traceback (flags None: no --out, so the config's out is read)
        config = {"fit_json": str(workspace / "fit" / "fit.json"),
                  "data_csv": str(workspace / "sim" / "dataset.csv"),
                  "schema": SCHEMA, "train": TRAIN, "truth": TRUTH, "seed": 0, **setting}
        argv = [command, "--config", write_json(tmp_path / "c.json", config)]
        if flags is not None:
            argv += ["--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("command,key,flags", [
        ("fit", "mcmc", ["--mcmc"]),
        ("fit", "train", []),
        ("fit", "split", []),
        ("fit", "standardize", []),
        ("simulate", "seed", []),
    ], ids=["fit-mcmc-with-flag", "fit-train", "fit-split", "fit-standardize", "simulate-seed"])
    def test_null_top_level_key_means_absent(self, workspace, tmp_path, monkeypatch, command,
                                             key, flags):
        # a null key runs the key's default: the same files, byte for byte, as without it
        real_train, real_chain = cli.train, cli.run_chain
        small = dict(outer_steps=3, minibatch_size=32, critic_batch=8, latent_sample_count=30,
                     inference_hidden=(8,), critic_hidden=(8,))
        monkeypatch.setattr(cli, "train", lambda data, cfg, valid: real_train(
            data, replace(cfg, **small), valid=valid))  # the defaults train for minutes
        monkeypatch.setattr(cli, "run_chain", lambda data, cfg: real_chain(
            data, replace(cfg, iterations=60, burn_in=20, thinning=5)))
        config = {"data_csv": str(workspace / "sim" / "dataset.csv"), "schema": SCHEMA,
                  "split": {"train": 0.5, "valid": 0.25, "test": 0.25, "seed": 1},
                  "train": TRAIN, "truth": TRUTH, "seed": 7}
        absent = {k: v for k, v in config.items() if k != key}
        for name, doc in (("absent", absent), ("null", {**absent, key: None})):
            cfg = write_json(tmp_path / f"{name}.json", doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path / name), *flags]) == 0
        files = sorted(f.name for f in (tmp_path / "absent").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "null").iterdir())
        assert key != "mcmc" or "mcmc.json" in files
        for name in files:
            a, b = (tmp_path / run / name for run in ("absent", "null"))
            if name == "config_echo.json":  # the echoes differ only in the out directory
                a, b = ({**json.loads(f.read_text()), "out": None} for f in (a, b))
                assert a == b
            else:
                assert a.read_bytes() == b.read_bytes(), name

    @pytest.mark.parametrize("argv", [["fit", "--n-max", "5"], ["refit"], []])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: tweedie-avb")

    @pytest.mark.parametrize("bad", ["0", "nan"])
    def test_non_positive_extra_prediction_exits_1(self, workspace, tmp_path, capsys, bad):
        # every model is also a baseline, so each prediction must be finite and positive
        path = tmp_path / "glm.csv"
        path.write_text("pred\n" + "1.0\n" * 29 + f"{bad}\n", encoding="utf-8")
        cfg = write_json(tmp_path / "e.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "schema": SCHEMA,
            "split": {"train": 0.5, "valid": 0.25, "test": 0.25, "seed": 1},
            "extra_predictions": {"glm": str(path)},
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "'glm'" in err and str(path) in err and "finite positive" in err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("name,content,named", [
        ("glm", "pred,other\n" + "1.0,2.0\n" * 30, "has 2 columns, expected 1"),
        ("avb", "pred\n" + "1.0\n" * 30, "names the built-in model 'avb'"),
        ("intercept", "pred\n" + "1.0\n" * 30, "names the built-in model 'intercept'"),
    ], ids=["two-columns", "named-avb", "named-intercept"])
    def test_unusable_extra_prediction_exits_1(self, workspace, tmp_path, capsys, name,
                                               content, named):
        # the test split's 30 rows: a second column would pass the row count, and a
        # built-in model's name would silently replace that model's predictions
        path = tmp_path / "extra.csv"
        path.write_text(content, encoding="utf-8")
        cfg = write_json(tmp_path / "e.json", {
            "fit_json": str(workspace / "fit" / "fit.json"),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "schema": SCHEMA,
            "split": {"train": 0.5, "valid": 0.25, "test": 0.25, "seed": 1},
            "extra_predictions": {name: str(path)},
        })
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err and repr(name) in err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("command,section,doc", [
        ("fit", "split", {"trian": 0.6}),
        ("fit", "schema", {"fixed_columns": ["x0", "x1"], "group_column": "group"}),
        ("fit", "schema", {**SCHEMA, "group_colum": "group"}),
        ("simulate", "truth", {**TRUTH, "group_cont": 4}),
        # raw_p and raw_log_dispersion are one chain block, p_dispersion
        ("fit", "mcmc", {"step_sizes": {"raw_p": 0.2}}),
        # settings that must be finite: each once ran, or aborted as numerical
        ("fit", "mcmc", {"step_sizes": {"w": True}}),
        ("fit", "mcmc", {"step_sizes": {"b": float("nan")}}),
        ("fit", "train", {"generator_learning_rate": -1}),
        ("fit", "train", {"critic_learning_rate": float("inf")}),
        ("simulate", "truth", {**TRUTH, "sigma_b": float("inf")}),
        ("simulate", "truth", {**TRUTH, "dispersion": float("nan")}),
        ("simulate", "truth", {**TRUTH, "covariate_scale": float("nan")}),
    ])
    def test_bad_config_section_exits_1(self, workspace, tmp_path, capsys, command, section,
                                        doc):
        # a missing or misspelt key is named, never dropped or left to a traceback
        config = {"seed": 0}
        if command == "fit":
            config = json.loads((workspace / "fit" / "config_echo.json").read_text())
        config[section] = doc
        cfg = write_json(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid {section} config")
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("section,setting", [
        ("train", {"eval_every": 0}),
        ("train", {"critic_batch": 0}),
        ("train", {"valid_draws": 0}),
        ("train", {"truncation": {"n_max": 10, "adaptive": True}}),
        ("mcmc", {"tune_interval": 0}),
        ("mcmc", {"step_sizes": {"sigma_b": 0.1}}),
    ])
    def test_bad_run_setting_exits_1_before_fitting(self, workspace, tmp_path, capsys,
                                                    section, setting):
        echo = json.loads((workspace / "fit" / "config_echo.json").read_text())
        echo["out"] = str(tmp_path / "o")
        echo["mcmc"] = {"iterations": 60, "burn_in": 20}
        echo[section] = {**echo[section], **setting}
        assert main(["fit", "--config", write_json(tmp_path / "f.json", echo)]) == 1
        assert next(iter(setting)) in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("command,section,setting", [
        ("fit", "train", {"outer_steps": 2.5}),
        ("fit", "train", {"outer_steps": True}),
        ("fit", "train", {"seed": "0"}),
        ("fit", "train", {"generator_learning_rate": "1e-3"}),
        ("fit", "train", {"critic_hidden": [8.5]}),
        ("fit", "mcmc", {"iterations": 300.5}),
        ("fit", "split", {"seed": 1.5}),
        ("simulate", "truth", {"n_obs": 20.5}),
        ("simulate", None, {"seed": 7.5}),
    ])
    def test_wrong_type_exits_1(self, workspace, tmp_path, capsys, command, section, setting):
        # an uncaught exception would also exit 1: the message shows the parser caught it
        if command == "fit":
            config = json.loads((workspace / "fit" / "config_echo.json").read_text())
            config["mcmc"] = {"iterations": 60, "burn_in": 20}
        else:
            config = {"seed": 0, "truth": TRUTH}
        if section is None:
            config.update(setting)
        else:
            config[section] = {**config[section], **setting}
        cfg = write_json(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert next(iter(setting)) in err
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("command,section,setting,flags", [
        ("fit", "train", {"seed": -1}, []),
        ("fit", "mcmc", {"seed": -1}, []),
        ("fit", "split", {"seed": -1}, []),
        ("fit", None, {}, ["--seed", "-1"]),
        ("simulate", None, {"seed": -1}, []),
        ("simulate", None, {}, ["--seed", "-1"]),
    ])
    def test_negative_seed_exits_1(self, workspace, tmp_path, capsys, command, section, setting,
                                   flags):
        # numpy rejects a negative seed with a traceback; the config check names it first
        if command == "fit":
            config = json.loads((workspace / "fit" / "config_echo.json").read_text())
            config["mcmc"] = {"iterations": 60, "burn_in": 20}
        else:
            config = {"seed": 0, "truth": TRUTH}
        if section is None:
            config.update(setting)
        else:
            config[section] = {**config[section], **setting}
        cfg = write_json(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "seed must be" in err and ">= 0" in err
        assert not list(tmp_path.glob("o/*"))

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("key,value", [("fixed_weights", float("nan")), ("b", float("inf"))])
    def test_non_finite_stored_draw_is_invalid_artifact(self, workspace, tmp_path, capsys,
                                                        command, key, value):
        doc = json.loads((workspace / "fit" / "fit.json").read_text())
        draws = np.asarray(doc["draws"][key])
        draws[0, 0] = value
        doc["draws"][key] = draws.tolist()
        cfg = write_json(tmp_path / "c.json", {
            "fit_json": write_json(tmp_path / "fit.json", doc),
            "data_csv": str(workspace / "sim" / "dataset.csv"),
            "schema": SCHEMA,
            "seed": 0,
        })
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: invalid fit artifact")
        assert not any((tmp_path / "o").iterdir())
