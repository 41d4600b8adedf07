"""JSON run configuration: one table of keys, one resolved config per run.

``KEYS`` holds each config key under its dotted name, with its type, its
one default, its range check and the experiments that read it.
``parse_config`` walks a config object along that table, runs the rules
that relate several keys, and reports every problem at once under its
dotted path.  A key the chosen experiment does not read is an error, and
so is one that a mode's kind or the initial curve's form does not read.
The resolved config holds each section as a ``types.SimpleNamespace``
with every default applied, and None for each key that is not read, so
``as_json`` writes exactly the keys that are read and its output parses
back to the same config.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

# numpy-free: validation loads no numerical module
from .spec import (BATTERY_TOL, CHECK_SAMPLES, CHECK_SEED, DEFAULT_ALPHA_CORRECTION,
                   DEFAULT_BLOW_THRESHOLD, DEFAULT_CHUNK_SIZE, DEFAULT_DECAY, DEFAULT_DRIFT,
                   DEFAULT_DRIFT_C, DEFAULT_LAM, DEFAULT_MODE_C, DRIFT_KINDS, MODE_TABLE,
                   VERDICTS, check_mode, tail_weight, whole_multiple)

__all__ = [
    "ConfigError", "EXPERIMENTS", "KEYS", "load_config", "parse_config", "apply_override",
    "as_json",
]

EXPERIMENTS = ("simulate", "hjm", "coeff-check", "operator-tests", "lambda-study", "ito-check")

_U64 = 1 << 64
_RUN_SEED = 1234  # the default seed of run and ito


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# range checks: (predicate, what the value must be)
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEG = (lambda v: v >= 0, "must be nonnegative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
_SEED = (lambda v: 0 <= v < _U64, "must be in [0, 2**64)")
_POSITIVE_LIST = (lambda v: len(v) > 0 and all(x > 0 for x in v),
                  "must be a non-empty list of positive numbers")


def _one_of(choices):
    return (lambda v: v in choices, "must be one of " + ", ".join(choices))


_ALL = EXPERIMENTS
_NOT_HJM = ("simulate", "coeff-check", "lambda-study", "ito-check")
_ENSEMBLES = ("simulate", "hjm")
_REQUIRED = object()  # the default of a key that must be given

# Every config key: dotted key -> (type, default, range check, experiments
# that read it).  dict is a section, [t] a list of t; a section that
# defaults to {} takes all its defaults when absent, and a callable
# default is the experiment's own.  Keys inside a section are read
# wherever the section is.
KEYS = {
    "experiment": (str, _REQUIRED, None, _ALL),
    "grid": (dict, _REQUIRED, None, _ALL),
    "grid.x_max": (float, _REQUIRED, _POSITIVE, _ALL),
    "grid.n_nodes": (int, _REQUIRED, (lambda v: v >= 2, "must be at least 2"), _ALL),
    "grid.alpha": (float, _REQUIRED, _POSITIVE, _ALL),
    "model": (dict, _REQUIRED, None, ("simulate", "hjm", "coeff-check", "lambda-study",
                                      "ito-check")),
    "model.initial": (dict, _REQUIRED, None, ("simulate", "hjm", "lambda-study", "ito-check")),
    "model.initial.flat": (float, None, None, _ALL),
    "model.initial.exp-decay": (dict, None, None, _ALL),
    "model.initial.exp-decay.base": (float, 0.0, None, _ALL),
    "model.initial.exp-decay.amp": (float, 1.0, None, _ALL),
    "model.initial.exp-decay.decay": (float, 1.0, None, _ALL),
    "model.initial.table": ([float], None, None, _ALL),
    "model.initial.tail": (float, None, None, _ALL),
    "model.modes": ([dict], (), None, _ALL),
    "model.modes.kind": (str, _REQUIRED, None, _ALL),
    "model.modes.c": (float, DEFAULT_MODE_C, None, _ALL),
    "model.modes.cap": (float, None, None, _ALL),
    "model.modes.decay": (float, DEFAULT_DECAY, None, _ALL),
    "model.modes.table": ([float], None, None, _ALL),
    "model.modes.tail": (float, None, None, _ALL),
    # the hjm experiment always uses the no-arbitrage drift (spec.hjm_drift)
    "model.drift": (str, DEFAULT_DRIFT, _one_of(DRIFT_KINDS), _NOT_HJM),
    "model.drift_c": (float, DEFAULT_DRIFT_C, None, _NOT_HJM),
    "model.alpha_correction": (float, DEFAULT_ALPHA_CORRECTION, None, _NOT_HJM),
    "model.alpha_in_drift": (bool, True, None, ("hjm",)),
    "run": (dict, _REQUIRED, None, ("simulate", "hjm", "lambda-study")),
    "run.dt": (float, _REQUIRED, _POSITIVE, _ALL),
    "run.t_final": (float, _REQUIRED, _POSITIVE, _ALL),
    "run.seed": (int, _RUN_SEED, _SEED, _ALL),
    "run.n_paths": (int, 100, _AT_LEAST_ONE, _ENSEMBLES),
    "run.chunk_size": (int, DEFAULT_CHUNK_SIZE, _AT_LEAST_ONE, _ENSEMBLES),
    "run.blow_threshold": (float, DEFAULT_BLOW_THRESHOLD, _POSITIVE, ("simulate", "lambda-study")),
    "run.lam": (float, DEFAULT_LAM, _NONNEG, ("simulate",)),
    # None: estimated by the coefficient check (simulate, see parse_config)
    "run.c_const": (float, None, None, ("simulate",)),
    # simulate runs the coefficient check only when this section is given
    "check": (dict, lambda exp: None if exp == "simulate" else {}, None,
              ("simulate", "hjm", "coeff-check", "operator-tests")),
    "check.n_samples": (int, lambda exp: 100 if exp == "operator-tests" else CHECK_SAMPLES,
                        _NONNEG, _ALL),
    "check.seed": (int, CHECK_SEED, _SEED, _ALL),
    "check.tol": (float, BATTERY_TOL, _NONNEG, ("operator-tests",)),
    "check.expect_admissible": (bool, True, None, ("coeff-check",)),
    "lambda_study": (dict, _REQUIRED, None, ("lambda-study",)),
    "lambda_study.lams": ([float], (0.2, 0.1, 0.05, 0.025), _POSITIVE_LIST, _ALL),
    "lambda_study.n_seeds": (int, 10, _AT_LEAST_ONE, _ALL),
    "ito": (dict, _REQUIRED, None, ("ito-check",)),
    "ito.n": (float, 50.0, _POSITIVE, _ALL),
    "ito.dt_values": ([float], (1e-2, 5e-3, 2.5e-3), _POSITIVE_LIST, _ALL),
    "ito.t_final": (float, 1.0, _POSITIVE, _ALL),
    "ito.n_paths": (int, 200, _AT_LEAST_ONE, _ALL),
    "ito.seed": (int, _RUN_SEED, _SEED, _ALL),
    "output": (dict, {}, None, _ALL),
    "output.dir": (str, None, None, _ALL),
    "expect_verdict": (str, None, _one_of(VERDICTS), ("hjm",)),
}


# The rules that relate several keys of a section, keyed by its section.
# Each gets the parsed section, the raw object, the section's dotted path
# and the problem list.
def _check_grid(g, raw, where, problems):
    if g.x_max / (g.n_nodes - 1) < sys.float_info.min:
        problems.append(f"{where}.x_max: the node spacing x_max/(n_nodes-1) underflows")
    try:
        tail_weight(g.alpha, g.x_max)
    except ValueError as e:
        problems.append(f"{where}.alpha: {e}")


def _reads_only(sec, raw, where, reads, reader, problems):
    """Each key given in raw that reader does not read is a problem, and
    each key of sec that it does not read resolves to None."""
    problems += [f"{where}.{k}: not read by {reader}" for k in raw if k not in reads]
    for k in vars(sec):
        if k not in reads:
            setattr(sec, k, None)


def _check_mode(m, raw, where, problems):
    try:  # ModeFunction's own rule; here the table only has to be present
        check_mode(m.kind, m.cap, m.table)
    except ValueError as e:
        problems.append(f"{where}: {e}")
    if m.kind in MODE_TABLE:
        reads = ("kind", *MODE_TABLE[m.kind][2])
        _reads_only(m, raw, where, reads, f"mode kind {m.kind!r}", problems)


def _check_initial(init, raw, where, problems):
    forms = [k for k in ("flat", "exp-decay", "table") if getattr(init, k) is not None]
    if len(forms) != 1:
        problems.append(f"{where}: give exactly one of flat, exp-decay, table")
    elif forms != ["table"]:  # tail completes a table only
        _reads_only(init, raw, where, forms, f"initial form {forms[0]!r}", problems)


def _check_run(r, raw, where, problems):
    if whole_multiple(r.t_final, r.dt) is None:
        problems.append(f"{where}.t_final: {r.t_final} is not a whole number "
                        f"of steps of dt={r.dt}")


def _check_ito(it, raw, where, problems):
    for i, dt in enumerate(it.dt_values):
        if whole_multiple(it.t_final, dt) is None:
            problems.append(f"{where}.dt_values[{i}]: t_final={it.t_final} is not "
                            f"a whole number of steps of {dt}")


def _check_config(cfg, raw, where, problems):
    g = cfg.grid
    spacing = g.x_max / (g.n_nodes - 1)
    if cfg.run is not None and not whole_multiple(cfg.run.dt, spacing):
        problems.append(f"run.dt: {cfg.run.dt} is not a whole number of "
                        f"grid cells of {spacing}")
    if cfg.model is not None:
        tables = [(f"model.modes[{i}]", m) for i, m in enumerate(cfg.model.modes)]
        if cfg.model.initial is not None:
            tables.append(("model.initial", cfg.model.initial))
        for path, sec in tables:
            if sec.table is not None and len(sec.table) != g.n_nodes:
                problems.append(f"{path}.table: needs {g.n_nodes} values")
    if cfg.run is not None and cfg.run.c_const is not None and cfg.check is not None:
        problems.append("check: not read when run.c_const is given")
    if cfg.lambda_study is not None and cfg.run.seed + cfg.lambda_study.n_seeds > _U64:
        problems.append("lambda_study.n_seeds: run.seed + n_seeds exceeds 2**64")
    for count, path, noun in _oversized(cfg):
        problems.append(f"{path}: {float(count):.3g} {noun} would need an array "
                        f"of 2**63 bytes or more")


def _oversized(cfg):
    """For each float64 array of 2**63 bytes or more that the run would
    allocate, its largest count as (count, path, noun), each path once."""
    nodes = (cfg.grid.n_nodes, "grid.n_nodes", "nodes")
    arrays = [(nodes,)]
    r = cfg.run
    if r is not None:
        steps = whole_multiple(r.t_final, r.dt)
        # lambda-study: batches of seeds capped in bytes, of one seed at least
        paths = (r.n_paths or 1, "run.n_paths", "paths")
        modes = (len(cfg.model.modes), "model.modes", "modes")
        arrays += [
            (paths, (steps + 1, "run.dt", "steps")),  # records
            (paths, nodes),  # final states
            ((min(r.chunk_size or 1, paths[0]), "run.chunk_size", "paths per chunk"),
             (steps, "run.dt", "steps"), modes),  # noise increments
        ]
        if cfg.lambda_study is not None:  # a snapshot every step
            arrays.append(((steps + 1, "run.dt", "steps"), nodes))
    if cfg.ito is not None:
        modes = (len(cfg.model.modes), "model.modes", "modes")
        # the noisy paths run as one batch; without modes one path runs
        paths = (cfg.ito.n_paths if cfg.model.modes else 1, "ito.n_paths", "paths")
        arrays.append((paths, nodes))
        for i, dt in enumerate(cfg.ito.dt_values):
            steps = whole_multiple(cfg.ito.t_final, dt)
            path = f"ito.dt_values[{i}]"
            arrays += [((steps + 1, path, "steps"), paths),
                       ((steps, path, "steps"), paths, modes)]
    too_big = {}
    for dims in arrays:
        if 8 * math.prod(d[0] for d in dims) >= 1 << 63:
            count, path, noun = max(dims)
            too_big.setdefault(path, (count, path, noun))
    return list(too_big.values())


_RULES = {"grid": _check_grid, "model.modes": _check_mode, "model.initial": _check_initial,
          "run": _check_run, "ito": _check_ito, "": _check_config}

_BAD = object()


def _bad(problems, message):
    problems.append(message)
    return _BAD


def _value(key, tp, raw, path, exp, problems):
    """raw as a value of type tp, or _BAD after recording why not; a
    section's keys are KEYS' rows under key."""
    if tp is dict:
        return _parse(key, raw, path, exp, problems)
    if isinstance(tp, list):
        if not isinstance(raw, list):
            return _bad(problems, f"{path}: expected a list")
        vals = [_value(key, tp[0], x, f"{path}[{i}]", exp, problems) for i, x in enumerate(raw)]
        return _BAD if any(v is _BAD for v in vals) else tuple(vals)
    if isinstance(raw, bool) and tp is not bool:
        return _bad(problems, f"{path}: expected {tp.__name__}")
    if tp is float and isinstance(raw, int):
        try:
            raw = float(raw)
        except OverflowError:
            raw = math.inf
    if not isinstance(raw, tp):
        return _bad(problems, f"{path}: expected {tp.__name__}")
    if tp is float and not math.isfinite(raw):
        return _bad(problems, f"{path}: must be finite")
    if tp is int and not -_U64 < raw < _U64:
        return _bad(problems, f"{path}: must fit in 64 bits")
    return raw


def _parse(section, raw, where, exp, problems):
    """The section of KEYS under section, from raw and named where, or
    _BAD after recording why not."""
    if not isinstance(raw, dict):
        return _bad(problems, f"{where}: expected an object")
    n = len(problems)
    rows = {k.rpartition(".")[2]: row for k, row in KEYS.items() if k.rpartition(".")[0] == section}
    problems += [f"{where}.{k}: unknown key" for k in raw if k not in rows]
    sec = types.SimpleNamespace()
    for name, (tp, default, check, read_by) in rows.items():
        key = f"{section}.{name}" if section else name
        path = f"{where}.{name}"
        # sections below the top level are named without the "config." prefix
        sub = path.removeprefix("config.")
        read = exp in read_by
        if name in raw:
            if not read:
                problems.append(f"{path}: not read by experiment {exp!r}")
                continue
            val = _value(key, tp, raw[name], sub, exp, problems)
        elif not read:
            val = None
        else:
            val = default(exp) if callable(default) else default
            if val is _REQUIRED:
                problems.append(f"{path}: missing")
                continue
            if tp is dict and val is not None:
                val = _parse(key, val, sub, exp, problems)
        if val is _BAD:
            continue
        if val is not None and check and not check[0](val):
            problems.append(f"{path}: {check[1]}")
            continue
        setattr(sec, name, val)
    if len(problems) > n:
        return _BAD
    if section in _RULES:
        _RULES[section](sec, raw, where, problems)
    return sec


def parse_config(obj: dict, experiment: str | None = None) -> types.SimpleNamespace:
    """Validate a config object and resolve it; raises ConfigError listing every problem."""
    if not isinstance(obj, dict):
        raise ConfigError(["top level: expected an object"])
    problems: list[str] = []
    exp = obj.get("experiment", experiment)
    if exp is None:
        problems.append("config.experiment: missing (and none given on the command line)")
    elif exp not in EXPERIMENTS:
        problems.append(f"config.experiment: unknown experiment {exp!r}")
    elif experiment is not None and exp != experiment:
        problems.append(
            f"config.experiment: config says {exp!r} but the command line says {experiment!r}"
        )
    if problems:
        raise ConfigError(problems)
    cfg = _parse("", dict(obj, experiment=exp), "config", exp, problems)
    if problems:
        raise ConfigError(problems)
    if exp == "simulate" and cfg.run.c_const is None and cfg.check is None:
        cfg.run.c_const = 0.0  # no discount
    return cfg


def as_json(obj):
    """A resolved config (or section) as JSON data: the keys that are read."""
    if isinstance(obj, types.SimpleNamespace):
        return {k: as_json(v) for k, v in vars(obj).items() if v is not None}
    if isinstance(obj, tuple):
        return [as_json(x) for x in obj]
    return obj


def load_config(path: str, experiment: str | None = None, overrides=()) -> types.SimpleNamespace:
    """Read a JSON config file, apply KEY.PATH=VALUE overrides, parse it."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError([f"config file: {e}"])
    except UnicodeDecodeError as e:
        raise ConfigError([f"config file {path}: not UTF-8 ({e.reason} at byte {e.start})"])
    except json.JSONDecodeError as e:
        raise ConfigError([f"config file: invalid JSON ({e})"])
    except RecursionError:
        raise ConfigError([f"config file {path}: JSON nested too deeply"])
    for item in overrides:
        apply_override(obj, item)
    return parse_config(obj, experiment)


def apply_override(obj: dict, dotted: str) -> None:
    """Apply one KEY.PATH=VALUE override in place; value parsed as JSON."""
    if "=" not in dotted:
        raise ConfigError([f"override {dotted!r}: expected KEY=VALUE"])
    path, _, raw = dotted.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError([f"override {dotted!r}: empty key component"])
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ConfigError([f"override {path.strip()!r}: value nested too deeply"])
    parent, here = "top level", obj
    for k in keys[:-1]:
        if not isinstance(here, dict):
            break
        parent, here = k, here.setdefault(k, {})
    if not isinstance(here, dict):
        raise ConfigError([f"override {dotted!r}: {parent} is not a section"])
    here[keys[-1]] = value
