"""Outside-in benchmark of tweedie_avb: one command, three workloads.

    python3 bench/run.py [--workload all|fit_recovery|cli_session|mcmc_validate]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the program is imported from the ``src`` directory
next to this one, without installing it.  Each workload runs in its own
fresh single-threaded interpreter (``bench/workloads.py``), one after
another.  ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) is
the measuring time of the whole command, shared evenly by the workloads it
runs.  The report prints every metric by name and unit, with its sample
count, and a provenance line; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from the traced cycles.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("fit_recovery", "cli_session", "mcmc_validate")
# Import probes per workload, half before and half after it, so that their
# median spans the workload's run rather than one moment of it.
IMPORT_PROBES = 8
# A child gets its measuring time plus this much for set-up and its last cycle.
CHILD_SLACK_S = 120.0
PROBE = ("import time; t = time.perf_counter(); import tweedie_avb; t = time.perf_counter() - t; "
         "import numpy, scipy, platform; "
         "print(t, platform.python_version(), numpy.__version__, scipy.__version__)")
END_TO_END_UNITS = {"setup_s": "s", "step_ms": "ms", "op_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # An OpenBLAS build may start up to 64 threads whatever the core count; pin to one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe(env: dict) -> list[str]:
    """Import tweedie_avb in a fresh interpreter: [seconds, python, numpy, scipy]."""
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.split()


def provenance(seed: int, versions: list[str]) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    python, numpy, scipy = versions
    return {"seed": seed, "cpu": cpu, "nproc": os.cpu_count(), "python": python,
            "numpy": numpy, "scipy": scipy, "platform": platform.platform()}


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir), "--src", str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=seconds + CHILD_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_rule(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def summarize(name: str, raw: dict, imports: list[float], trace: int) -> tuple[dict, list[str]]:
    """({metric: (value, unit)} for the JSON line, report lines)."""
    lines = [f"== {name}: {raw['attempted']} ops attempted, {raw['failed']} failed, "
             f"fail_frac {raw['failed'] / raw['attempted']:.4f} (ratio), "
             f"{raw['cycles']} cycles"]
    for problem in raw["problems"]:
        lines.append(f"   FAILED {problem.strip()}")
    setup = statistics.median(imports) + statistics.median(raw["prepare_s"])
    metrics = {"setup_s": setup}
    lines.append(f"   setup_s = {setup:.4f} s (median of {len(imports)} imports + median "
                 f"of {len(raw['prepare_s'])} input preparations)")
    aliases = {v: k for k, v in raw["aliases"].items()}
    for metric, (unit, values) in raw["samples"].items():
        if not values:
            continue
        median = statistics.median(values)
        if metric in END_TO_END_UNITS:
            metrics[metric] = median
        label = f"{metric} ({aliases[metric]})" if metric in aliases else metric
        tail = percentile_rule(values)
        extra = f", p{tail[0]} {tail[1]:.4g}" if tail else ""
        lines.append(f"   {label} = {median:.4g} {unit} (median of n={len(values)}{extra})")
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    lines.append(f"   peak_rss_mb = {raw['peak_rss_mb']:.1f} MB")
    if not trace:
        return {key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()}, lines
    for label, sites in (("missing", raw["missing_sites"]), ("uncounted", raw["uncounted"])):
        if sites:
            lines.append(f"   {label} trace sites: {', '.join(sites)}")
    for table in ("per_layer", "invariants"):
        for key, (value, unit) in raw[table].items():
            if value:
                lines.append(f"   {key} = {value:.6g} {unit}")
    return raw["per_layer"], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of the whole command (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tweedie_avb" / "__init__.py").is_file():
        print(f"error: no tweedie_avb package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = (args.seconds if args.seconds is not None else default_seconds()) / len(names)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    all_metrics = {}
    attempted = failed = 0
    for name in names:
        # tweedie_avb imports numpy and scipy: time it in fresh interpreters
        before = [probe(env) for _ in range(IMPORT_PROBES // 2)]
        if not all_metrics:
            print("provenance " + json.dumps(provenance(args.seed, before[0][1:]),
                                             sort_keys=True))
        raw = run_workload(name, args.seed, seconds, args.trace, env)
        after = [probe(env) for _ in range(IMPORT_PROBES - len(before))]
        imports = [float(p[0]) for p in before + after]
        metrics, lines = summarize(name, raw, imports, args.trace)
        print("\n".join(lines), flush=True)
        attempted += raw["attempted"]
        failed += raw["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            all_metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
