"""The numpy special functions, checked against scipy, and a runtime without scipy."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

import tweedie_avb
from tweedie_avb.special import digamma, expit


class TestDigamma:
    @pytest.mark.parametrize("p", [1.001, 1.01, 1.2, 1.5, 1.8, 1.99, 1.999])
    def test_matches_scipy_on_count_multiples(self, p):
        x = np.arange(1.0, 10_001.0) * ((2.0 - p) / (p - 1.0))
        # atol for the values near digamma's root at 1.4616...
        assert_allclose(digamma(x), special.digamma(x), rtol=1e-13, atol=1e-14)

    def test_matches_scipy_over_magnitudes(self):
        x = np.exp(np.random.default_rng(0).uniform(math.log(1e-8), math.log(1e12), 200_000))
        x = np.concatenate([x, np.linspace(1.3, 1.6, 3001), np.arange(1.0, 30.0)])
        assert_allclose(digamma(x), special.digamma(x), rtol=1e-13, atol=1e-14)

    def test_scalar_and_shape(self):
        assert digamma(0.5).shape == ()
        assert_allclose(float(digamma(1.0)), -np.euler_gamma, rtol=1e-15)
        assert digamma(np.ones((2, 3))).shape == (2, 3)


class TestExpit:
    X = np.concatenate([np.linspace(-1000.0, 1000.0, 400_001), [-745.5, -709.5, -1e-300, 0.0]])

    def test_array_matches_scipy_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(self.X)
        ref = special.expit(self.X)
        normal = ref > 1e-300  # below, both round into the subnormals
        assert_allclose(got[normal], ref[normal], rtol=1e-15)
        assert np.abs(got[~normal] - ref[~normal]).max() < 1e-300
        assert expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]

    def test_scalars_match_scipy_without_warning(self):
        xs = self.X[::97].tolist() + [-1000, 0, 1000]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [expit(x) for x in xs]
        assert all(type(v) is float for v in got)
        ref = special.expit(np.array(xs, dtype=float))
        normal = ref > 1e-300
        assert_allclose(np.array(got)[normal], ref[normal], rtol=1e-15)
        assert expit(-1000.0) == 0.0 and expit(1000.0) == 1.0 and expit(0) == 0.5

    def test_numpy_float_takes_the_scalar_path(self):
        assert type(expit(np.float64(0.3))) is float


RUN_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import numpy as np
from tweedie_avb import (ChainConfig, SimTruth, TrainConfig, posterior_predict, run_chain,
                         simulate_dataset, train)
from tweedie_avb.cli import main

root = Path(sys.argv[1])
truth = SimTruth(fixed_weights=np.array([0.1, 0.3, -0.2]), p_index=1.5, dispersion=1.0,
                 sigma_b=0.5, n_obs=80, group_count=3)
data, _ = simulate_dataset(truth, np.random.default_rng(0))
fit = train(data, TrainConfig(outer_steps=2, minibatch_size=16, critic_batch=8,
                              latent_sample_count=10, seed=0))
run_chain(data, ChainConfig(iterations=200, burn_in=100, thinning=5))
posterior_predict(fit, data.fixed_design, data.group_index, np.random.default_rng(1))

def config(name, doc):
    path = root / name
    path.write_text(json.dumps(doc))
    return str(path)

split = {"schema": {"response_column": "y", "fixed_columns": ["x0", "x1"],
                    "group_column": "group"},
         "split": {"train": 0.6, "valid": 0.2, "test": 0.2, "seed": 1}}
data_csv = str(root / "sim" / "dataset.csv")
fit_json = str(root / "fit" / "fit.json")
runs = [
    ["simulate", "--config", config("simulate.json", {"seed": 7, "truth": {
        "fixed_weights": [0.1, 0.3, -0.2], "p_index": 1.5, "dispersion": 1.0,
        "sigma_b": 0.5, "n_obs": 200, "group_count": 4}}), "--out", str(root / "sim")],
    ["fit", "--config", config("fit.json", {"data_csv": data_csv, **split,
        "train": {"outer_steps": 2, "seed": 0}}), "--out", str(root / "fit")],
    ["evaluate", "--config", config("evaluate.json", {"fit_json": fit_json,
        "data_csv": data_csv, **split, "seed": 0}), "--out", str(root / "eval")],
    ["predict", "--config", config("predict.json", {"fit_json": fit_json,
        "data_csv": data_csv, "seed": 0}), "--out", str(root / "pred")],
]
codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_package_runs_without_loading_scipy(tmp_path):
    # a fresh interpreter: this test module itself imports scipy
    src = str(Path(tweedie_avb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "scipy": []}
