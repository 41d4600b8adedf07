"""Spans around the calls into each mildsim layer, recorded from outside.

Nothing under ``src/mildsim`` is changed.  While a ``Tracer`` is
installed, each traced function is replaced, in the module where its
caller looks the name up, by a wrapper that records one span: name,
parent span, start, end, and the work the call did as counts.  Spans
stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls in one process are strictly nested, so children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


# rounding room when a span's children are subtracted from it
NESTING_SLACK_S = 1e-9


def _batch_counts(args, kwargs, out):
    v0, dW = args[0], args[2]
    paths, steps = dW.shape[0], dW.shape[1]
    return {"path_steps": paths * steps, "node_steps": paths * steps * v0.shape[1]}


def _sweep_counts(args, kwargs, out):
    return {"nodes": len(args[0])}


def _probe_counts(args, kwargs, out):
    return {"probes": out.samples}


def _ito_counts(args, kwargs, out):
    return {"steps": len(out.residuals)}


def _csv_bytes(args, kwargs, out):
    return {"bytes": Path(args[0]).stat().st_size}


def _manifest_bytes(args, kwargs, out):
    return {"bytes": (Path(args[0]) / "manifest.json").stat().st_size}


# (module, attribute the caller looks up, span name, counter)
TARGETS = [
    ("mildsim.cli", "load_config", "config.load_config", None),
    ("mildsim.cli", "_write_csv", "cli.write", _csv_bytes),
    ("mildsim.cli", "_write_manifest", "cli.write", _manifest_bytes),
    ("mildsim.hjm", "estimate_positivity_constant",
     "coefficients.estimate_positivity_constant", _probe_counts),
    ("mildsim.hjm", "run_ensemble", "solver.run_ensemble", None),
    ("mildsim.hjm", "ensemble_stats", "solver.ensemble_stats", None),
    ("mildsim.cli", "lambda_convergence_study", "solver.lambda_convergence_study", None),
    ("mildsim.solver", "simulate_path", "solver.simulate_path", None),
    ("mildsim.solver", "gaussian_block", "noise.gaussian_block", None),
    # increment_block, used by ito_residual, looks it up in its own module
    ("mildsim.noise", "gaussian_block", "noise.gaussian_block", None),
    ("mildsim.kernels", "simulate_batch", "kernels.simulate_batch", _batch_counts),
    ("mildsim.kernels", "resolvent_sweep", "kernels.resolvent_sweep", _sweep_counts),
    ("mildsim.cli", "run_submarkov_battery", "operators.batteries", None),
    ("mildsim.cli", "run_contraction_battery", "operators.batteries", None),
    ("mildsim.cli", "run_pairing_battery", "operators.batteries", None),
    ("mildsim.cli", "run_jensen_battery", "operators.batteries", None),
    ("mildsim.operators", "random_bumps", "operators.random_bumps", None),
    ("mildsim.smoothing", "random_bumps", "operators.random_bumps", None),
    ("mildsim.coefficients", "random_bumps", "operators.random_bumps", None),
    ("mildsim.cli", "ito_residual", "smoothing.ito_residual", _ito_counts),
    ("mildsim.solver", "norm", "grids.norm", None),
    ("mildsim.operators", "norm", "grids.norm", None),
    ("mildsim.smoothing", "norm", "grids.norm", None),
    ("mildsim.coefficients", "norm", "grids.norm", None),
]


class Tracer:
    """Records spans while installed; ``wrap`` also traces a call site directly."""

    def __init__(self):
        # one list per span: [name, parent index, start, end, round, counts]
        self.spans: list = []
        self.round = 0
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.round, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def round_totals(self, rnd: int) -> tuple:
        """Per span name: calls, total s, self s and summed counts, for one round.

        Also returns how many spans are shorter than their children
        together, which correctly nested spans never are.
        """
        idx = [i for i, s in enumerate(self.spans) if s[4] == rnd]
        child_s = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s[1] >= 0:
                child_s[s[1]] += s[3] - s[2]
        tot: dict = defaultdict(lambda: defaultdict(float))
        outlasted = 0
        for i in idx:
            name, _, t0, t1, _, counts = self.spans[i]
            self_s = t1 - t0 - child_s[i]
            outlasted += self_s < -NESTING_SLACK_S
            d = tot[name]
            d["calls"] += 1
            d["s"] += t1 - t0
            d["self_s"] += self_s
            for k, v in (counts or {}).items():
                d[k] += v
        return tot, outlasted

    def write(self, path: Path) -> None:
        fields = ["name", "parent", "start", "end", "round", "counts"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def layer_metrics(tot: dict) -> dict:
    """The per-layer metrics of one traced round, from its span totals."""

    def get(name, key):
        return float(tot[name][key]) if name in tot else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    batch_s = get("kernels.simulate_batch", "s")
    node_steps = get("kernels.simulate_batch", "node_steps")
    sweep_s = get("kernels.resolvent_sweep", "s")
    return {
        "noise.gaussian_block.calls": get("noise.gaussian_block", "calls"),
        "noise.gaussian_block.s": get("noise.gaussian_block", "s"),
        "kernels.simulate_batch.calls": get("kernels.simulate_batch", "calls"),
        "kernels.simulate_batch.s": batch_s,
        "kernels.path_steps": get("kernels.simulate_batch", "path_steps"),
        "kernels.node_steps": node_steps,
        "kernels.simulate_batch.ns_per_node_step": ratio(batch_s * 1e9, node_steps),
        "kernels.resolvent_sweep.calls": get("kernels.resolvent_sweep", "calls"),
        "kernels.resolvent_sweep.s": sweep_s,
        "kernels.resolvent_sweep.ns_per_node": ratio(
            sweep_s * 1e9, get("kernels.resolvent_sweep", "nodes")),
        "solver.run_ensemble.self_s": get("solver.run_ensemble", "self_s"),
        "solver.ensemble_stats.s": get("solver.ensemble_stats", "s"),
        "solver.simulate_path.self_s": get("solver.simulate_path", "self_s"),
        "solver.lambda_convergence_study.self_s": get(
            "solver.lambda_convergence_study", "self_s"),
        "grids.norm.calls": get("grids.norm", "calls"),
        "grids.norm.s": get("grids.norm", "s"),
        "coefficients.estimate_positivity_constant.s": get(
            "coefficients.estimate_positivity_constant", "s"),
        "coefficients.estimate_positivity_constant.probes": get(
            "coefficients.estimate_positivity_constant", "probes"),
        "operators.random_bumps.calls": get("operators.random_bumps", "calls"),
        "operators.random_bumps.s": get("operators.random_bumps", "s"),
        "operators.batteries.self_s": get("operators.batteries", "self_s"),
        "smoothing.ito_residual.calls": get("smoothing.ito_residual", "calls"),
        "smoothing.ito_residual.s": get("smoothing.ito_residual", "s"),
        "smoothing.ito_residual.steps": get("smoothing.ito_residual", "steps"),
        "cli.write.s": get("cli.write", "s"),
        "cli.write.bytes": get("cli.write", "bytes"),
        "config.load_config.s": get("config.load_config", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
