"""Spans around the public functions of ``tweedie_avb``, installed from outside.

Each traced function is wrapped at every module attribute where the
program looks it up at call time (``tweedie_avb.mcmc.model_log_likelihood_value``,
not only ``tweedie_avb.model.model_log_likelihood_value``), so no file of the
program changes.  A wrapper records calls, self time (its span minus the
spans of traced functions it called) and an optional count taken from the
arguments or the result.  GC pauses come from ``gc.callbacks``; they fall
inside whichever span allocated and are reported beside the self times,
never subtracted from them.

A lookup site that no longer exists, for example after a later change fuses
or renames a function, is recorded as missing instead of failing the run; a
count that can no longer be taken (a parameter renamed, a result of another
type) is recorded as uncounted, and the traced call still returns normally.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
from collections import defaultdict
from time import perf_counter


def _tape_nodes(arguments, result):
    return len(result.tape)


def _rows_of_y(arguments, result):
    return len(arguments["y"])


def _rows_of_dataset(arguments, result):
    return result.n_obs


# (metric prefix, unit the self time is reported per, lookup sites, count)
# "step" is one outer training step or one MCMC block update; "cmd" is one
# CLI command.  The count, when given, is reported per call; it reads the
# call's arguments by parameter name.
TARGETS = (
    ("autodiff.backward", "step", ("tweedie_avb.autodiff:backward",), None),
    ("autodiff.adam_step", "step", ("tweedie_avb.avb:adam_step",), None),
    ("autodiff.clip_global_norm", "step", ("tweedie_avb.avb:clip_global_norm",), None),
    ("avb.train", "step", ("tweedie_avb.avb:train", "tweedie_avb.cli:train"), None),
    ("avb.discriminator_loss", "step", ("tweedie_avb.avb:discriminator_loss",),
     ("tape_nodes", _tape_nodes)),
    ("avb.generator_loss", "step", ("tweedie_avb.avb:generator_loss",),
     ("tape_nodes", _tape_nodes)),
    ("avb.posterior_predict", "cmd", ("tweedie_avb.cli:posterior_predict",), None),
    ("avb.FitResult.save", "cmd", ("tweedie_avb.avb:FitResult.save",), None),
    ("avb.FitResult.load", "cmd", ("tweedie_avb.avb:FitResult.load",), None),
    ("model.model_log_likelihood", "step", ("tweedie_avb.avb:model_log_likelihood",), None),
    ("model.model_log_likelihood_value", "step",
     ("tweedie_avb.avb:model_log_likelihood_value",
      "tweedie_avb.mcmc:model_log_likelihood_value"), None),
    ("tweedie.tweedie_log_pdf", "step", ("tweedie_avb.model:tweedie_log_pdf",),
     ("rows", _rows_of_y)),
    ("tweedie.tweedie_sample_array", "cmd", ("tweedie_avb.avb:tweedie_sample_array",), None),
    ("mcmc.run_chain", "step", ("tweedie_avb.mcmc:run_chain", "tweedie_avb.cli:run_chain"), None),
    ("evaluation.pairwise_gini_matrix", "cmd",
     ("tweedie_avb.evaluation:pairwise_gini_matrix",), None),
    ("evaluation.ordered_lorenz", "cmd", ("tweedie_avb.evaluation:ordered_lorenz",), None),
    ("data.load_csv", "cmd", ("tweedie_avb.cli:load_csv",), ("rows", _rows_of_dataset)),
    ("data.split_dataset", "cmd", ("tweedie_avb.cli:split_dataset",), None),
    ("data.standardize", "cmd", ("tweedie_avb.cli:standardize",), None),
    ("cli.main", "cmd", ("tweedie_avb.cli:main",), None),
)


def _resolve(site: str):
    """(owner object, attribute name) for ``module:attr[.attr]``, or None."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    try:
        inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr


class Tracer:
    """Accumulates per-function calls, self time and counts while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[list[float]] = []
        self._gc_start = None
        self._installed = []

    def install(self) -> None:
        self.missing = []
        for name, _, sites, count in TARGETS:
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.missing.append(site)
                    continue
                owner, attr = found
                original = inspect.getattr_static(owner, attr)
                setattr(owner, attr, self._wrap(name, original, count))
                self._installed.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, original, count):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(name, original.__func__, count))
        stack = self._stack
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
            if count is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                    self.counts[name] += count[1](arguments, result)
                except Exception:
                    self.uncounted.add(name)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def layer_metrics(self, units: dict) -> dict:
        """{metric: (value, unit)}; ``units`` maps "step" and "cmd" to totals."""
        out = {}
        for name, per, _, count in TARGETS:
            denom = units.get(per, 0)
            calls = self.calls[name]
            out[f"{name}.self_ms"] = (1e3 * self.self_s[name] / denom if denom else 0.0,
                                      f"ms/{per}")
            out[f"{name}.calls"] = (calls / denom if denom else 0.0, f"count/{per}")
            if count is not None:
                counted = calls and name not in self.uncounted
                out[f"{name}.{count[0]}"] = (self.counts[name] / calls if counted else 0.0,
                                             "count")
        return out
