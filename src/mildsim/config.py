"""JSON run configuration: one typed, resolved config per run.

Each config section is a frozen dataclass whose fields carry the type,
the one default and the range check of each key, and the experiments
that read it.  ``parse_config`` derives from them the allowed keys, the
types (list element types included) and the missing-key errors, runs
the checks that relate several keys, and reports every problem at once
under its dotted path.  A key the chosen experiment does not read is an
error.  The resolved ``Config`` holds every default, and None in each
field the experiment does not read.  Builders turn its sections into
grids, models and initial states.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

# numpy-free: validation loads no numerical module; the builders import
# theirs when they are called
from .spec import (BATTERY_TOL, CHECK_SAMPLES, CHECK_SEED, DEFAULT_ALPHA_CORRECTION,
                   DEFAULT_BLOW_THRESHOLD, DEFAULT_CHUNK_SIZE, DEFAULT_DECAY, DEFAULT_DRIFT,
                   DEFAULT_DRIFT_C, DEFAULT_LAM, DEFAULT_MODE_C, DEFAULT_SCHEME, DRIFT_KINDS,
                   MODE_TABLE, SCHEMES, VERDICTS, check_mode, hjm_drift, tail_weight,
                   whole_multiple)

if typing.TYPE_CHECKING:
    from .coefficients import CoefficientModel
    from .grids import Grid, GridFunction

__all__ = [
    "ConfigError", "EXPERIMENTS", "Config", "load_config", "parse_config", "apply_override",
    "reads_key", "as_json", "build_grid", "build_modes", "build_initial", "build_model",
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


def _field(default=MISSING, check=None, *, read_by=EXPERIMENTS, by_experiment=None,
           optional=False, key=None):
    """A config key.  No default means required; an absent optional section
    takes all its defaults.  by_experiment holds experiment-specific defaults."""
    meta = {"check": check, "read_by": read_by, "by_experiment": by_experiment or {},
            "optional": optional, "key": key}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class GridConfig:
    x_max: float = _field(check=_POSITIVE)
    n_nodes: int = _field(check=(lambda v: v >= 2, "must be at least 2"))
    alpha: float = _field(check=_POSITIVE)

    def _check(self, where, problems):
        if self.x_max / (self.n_nodes - 1) < sys.float_info.min:
            problems.append(f"{where}.x_max: the node spacing x_max/(n_nodes-1) underflows")
        try:
            tail_weight(self.alpha, self.x_max)
        except ValueError as e:
            problems.append(f"{where}.alpha: {e}")


@dataclass(frozen=True)
class ModeConfig:
    kind: str = _field()
    c: float = _field(DEFAULT_MODE_C)
    cap: float | None = _field(None)
    decay: float = _field(DEFAULT_DECAY)
    table: tuple[float, ...] | None = _field(None)
    tail: float | None = _field(None)

    def _check(self, where, problems):
        try:  # ModeFunction's own rule; here the table only has to be present
            check_mode(self.kind, self.cap, self.table)
        except ValueError as e:
            problems.append(f"{where}: {e}")

    def _reads(self):
        if self.kind in MODE_TABLE:
            return ("kind", *MODE_TABLE[self.kind][2]), f"mode kind {self.kind!r}"
        return None


@dataclass(frozen=True)
class ExpDecayConfig:
    base: float = _field(0.0)
    amp: float = _field(1.0)
    decay: float = _field(1.0)


@dataclass(frozen=True)
class InitialConfig:
    flat: float | None = _field(None)
    exp_decay: ExpDecayConfig | None = _field(None, key="exp-decay")
    table: tuple[float, ...] | None = _field(None)
    tail: float | None = _field(None)

    def _check(self, where, problems):
        if sum(x is not None for x in (self.flat, self.exp_decay, self.table)) != 1:
            problems.append(f"{where}: give exactly one of flat, exp-decay, table")

    def _reads(self):  # tail completes a table only
        if self.flat is not None and self.exp_decay is None and self.table is None:
            return ("flat",), "initial form 'flat'"
        if self.exp_decay is not None and self.flat is None and self.table is None:
            return ("exp-decay",), "initial form 'exp-decay'"
        return None


_NOT_HJM = ("simulate", "coeff-check", "lambda-study", "ito-check")
_ENSEMBLES = ("simulate", "hjm")


@dataclass(frozen=True)
class ModelConfig:
    initial: InitialConfig | None = _field(
        read_by=("simulate", "hjm", "lambda-study", "ito-check"))
    modes: tuple[ModeConfig, ...] = _field(())
    # the hjm experiment always uses the no-arbitrage drift (see parse_config)
    drift: str = _field(DEFAULT_DRIFT, _one_of(DRIFT_KINDS), read_by=_NOT_HJM)
    drift_c: float = _field(DEFAULT_DRIFT_C, read_by=_NOT_HJM)
    alpha_correction: float = _field(DEFAULT_ALPHA_CORRECTION, read_by=_NOT_HJM)
    alpha_in_drift: bool = _field(True, read_by=("hjm",))


@dataclass(frozen=True)
class RunConfig:
    dt: float = _field(check=_POSITIVE)
    t_final: float = _field(check=_POSITIVE)
    seed: int = _field(_RUN_SEED, _SEED)
    scheme: str = _field(DEFAULT_SCHEME, _one_of(SCHEMES))
    n_paths: int = _field(100, _AT_LEAST_ONE, read_by=_ENSEMBLES)
    chunk_size: int = _field(DEFAULT_CHUNK_SIZE, _AT_LEAST_ONE, read_by=_ENSEMBLES)
    blow_threshold: float = _field(DEFAULT_BLOW_THRESHOLD, _POSITIVE,
                                   read_by=("simulate", "lambda-study"))
    lam: float = _field(DEFAULT_LAM, _NONNEG, read_by=("simulate",))
    # None: estimated by the coefficient check (simulate, see parse_config)
    c_const: float | None = _field(None, read_by=("simulate",))

    def _check(self, where, problems):
        if whole_multiple(self.t_final, self.dt) is None:
            problems.append(f"{where}.t_final: {self.t_final} is not a whole number "
                            f"of steps of dt={self.dt}")


@dataclass(frozen=True)
class CheckConfig:
    n_samples: int = _field(CHECK_SAMPLES, _NONNEG, by_experiment={"operator-tests": 100})
    seed: int = _field(CHECK_SEED, _SEED)
    tol: float = _field(BATTERY_TOL, _NONNEG, read_by=("operator-tests",))
    expect_admissible: bool = _field(True, read_by=("coeff-check",))


@dataclass(frozen=True)
class LambdaStudyConfig:
    lams: tuple[float, ...] = _field((0.2, 0.1, 0.05, 0.025), _POSITIVE_LIST)
    n_seeds: int = _field(10, _AT_LEAST_ONE)


@dataclass(frozen=True)
class ItoConfig:
    n: float = _field(50.0, _POSITIVE)
    dt_values: tuple[float, ...] = _field((1e-2, 5e-3, 2.5e-3), _POSITIVE_LIST)
    t_final: float = _field(1.0, _POSITIVE)
    n_paths: int = _field(200, _AT_LEAST_ONE)
    seed: int = _field(_RUN_SEED, _SEED)

    def _check(self, where, problems):
        for i, dt in enumerate(self.dt_values):
            if whole_multiple(self.t_final, dt) is None:
                problems.append(f"{where}.dt_values[{i}]: t_final={self.t_final} is not "
                                f"a whole number of steps of {dt}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str | None = _field(None)


@dataclass(frozen=True)
class Config:
    experiment: str = _field()
    grid: GridConfig = _field()
    model: ModelConfig | None = _field(
        read_by=("simulate", "hjm", "coeff-check", "lambda-study", "ito-check"))
    run: RunConfig | None = _field(read_by=("simulate", "hjm", "lambda-study"))
    # simulate runs the coefficient check only when this section is given
    check: CheckConfig | None = _field(
        optional=True, by_experiment={"simulate": None},
        read_by=("simulate", "hjm", "coeff-check", "operator-tests"))
    lambda_study: LambdaStudyConfig | None = _field(read_by=("lambda-study",))
    ito: ItoConfig | None = _field(read_by=("ito-check",))
    output: OutputConfig = _field(optional=True)
    expect_verdict: str | None = _field(None, _one_of(VERDICTS), read_by=("hjm",))

    def _check(self, where, problems):
        g = self.grid
        spacing = g.x_max / (g.n_nodes - 1)
        if self.run is not None and not whole_multiple(self.run.dt, spacing):
            problems.append(f"run.dt: {self.run.dt} is not a whole number of "
                            f"grid cells of {spacing}")
        if self.model is not None:
            tables = [(f"model.modes[{i}]", m) for i, m in enumerate(self.model.modes)]
            if self.model.initial is not None:
                tables.append(("model.initial", self.model.initial))
            for path, sec in tables:
                if sec.table is not None and len(sec.table) != g.n_nodes:
                    problems.append(f"{path}.table: needs {g.n_nodes} values")
        if self.run is not None and self.run.c_const is not None and self.check is not None:
            problems.append("check: not read when run.c_const is given")
        if self.lambda_study is not None and self.run.seed + self.lambda_study.n_seeds > _U64:
            problems.append("lambda_study.n_seeds: run.seed + n_seeds exceeds 2**64")
        for count, path, noun in self._oversized():
            problems.append(f"{path}: {float(count):.3g} {noun} would need an array "
                            f"of 2**63 bytes or more")

    def _oversized(self):
        """For each float64 array of 2**63 bytes or more that the run would
        allocate, its largest count as (count, path, noun), each path once."""
        nodes = (self.grid.n_nodes, "grid.n_nodes", "nodes")
        arrays = [(nodes,)]
        r = self.run
        if r is not None:
            steps = whole_multiple(r.t_final, r.dt)
            # lambda-study: batches of seeds capped in bytes, of one seed at least
            paths = (r.n_paths or 1, "run.n_paths", "paths")
            modes = (len(self.model.modes), "model.modes", "modes")
            arrays += [
                (paths, (steps + 1, "run.dt", "steps")),  # records
                (paths, nodes),  # final states
                ((min(r.chunk_size or 1, paths[0]), "run.chunk_size", "paths per chunk"),
                 (steps, "run.dt", "steps"), modes),  # noise increments
            ]
            if self.lambda_study is not None:  # a snapshot every step
                arrays.append(((steps + 1, "run.dt", "steps"), nodes))
        if self.ito is not None:
            modes = (len(self.model.modes), "model.modes", "modes")
            # the noisy paths run as one batch; without modes one path runs
            paths = (self.ito.n_paths if self.model.modes else 1, "ito.n_paths", "paths")
            arrays.append((paths, nodes))
            for i, dt in enumerate(self.ito.dt_values):
                steps = whole_multiple(self.ito.t_final, dt)
                path = f"ito.dt_values[{i}]"
                arrays += [((steps + 1, path, "steps"), paths),
                           ((steps, path, "steps"), paths, modes)]
        too_big = {}
        for dims in arrays:
            if 8 * math.prod(d[0] for d in dims) >= 1 << 63:
                count, path, noun = max(dims)
                too_big.setdefault(path, (count, path, noun))
        return list(too_big.values())


_BAD = object()
_type_hints = functools.cache(typing.get_type_hints)  # the sections' field types


def _bad(problems, message):
    problems.append(message)
    return _BAD


def _required(tp):
    """X for the type X | None; JSON null is never a valid value."""
    return typing.get_args(tp)[0] if typing.get_origin(tp) is types.UnionType else tp


def _value(tp, raw, path, exp, problems):
    """raw as a value of type tp, or _BAD after recording why not."""
    tp = _required(tp)
    if is_dataclass(tp):
        return _parse(tp, raw, path, exp, problems)
    if typing.get_origin(tp) is tuple:
        if not isinstance(raw, list):
            return _bad(problems, f"{path}: expected a list")
        elem = typing.get_args(tp)[0]
        vals = [_value(elem, x, f"{path}[{i}]", exp, problems) for i, x in enumerate(raw)]
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


def _parse(cls, raw, where, exp, problems):
    """An instance of the section cls from raw, or _BAD after recording why not."""
    if not isinstance(raw, dict):
        return _bad(problems, f"{where}: expected an object")
    n = len(problems)
    hints = _type_hints(cls)
    by_key = {f.metadata["key"] or f.name: f for f in fields(cls)}
    problems += [f"{where}.{k}: unknown key" for k in raw if k not in by_key]
    kw = {}
    for key, f in by_key.items():
        meta = f.metadata
        path = f"{where}.{key}"
        # sections below the top level are named without the "config." prefix
        sub = path.removeprefix("config.")
        read = exp in meta["read_by"]
        if key in raw:
            if not read:
                problems.append(f"{path}: not read by experiment {exp!r}")
                continue
            val = _value(hints[f.name], raw[key], sub, exp, problems)
        elif not read:
            val = None
        elif exp in meta["by_experiment"]:
            val = meta["by_experiment"][exp]
        elif f.default is not MISSING:
            val = f.default
        elif meta["optional"]:
            val = _value(hints[f.name], {}, sub, exp, problems)
        else:
            problems.append(f"{path}: missing")
            continue
        if val is _BAD:
            continue
        if val is not None and meta["check"] and not meta["check"][0](val):
            problems.append(f"{path}: {meta['check'][1]}")
            continue
        kw[f.name] = val
    if len(problems) > n:
        return _BAD
    obj = cls(**kw)
    if hasattr(obj, "_check"):
        obj._check(where, problems)
    # keys that the section's own values leave unread; keys given, not defaults
    reads = obj._reads() if hasattr(obj, "_reads") else None
    if reads is not None:
        problems += [f"{where}.{k}: not read by {reads[1]}" for k in raw if k not in reads[0]]
    return obj


def parse_config(obj: dict, experiment: str | None = None) -> Config:
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
    cfg = _parse(Config, dict(obj, experiment=exp), "config", exp, problems)
    if problems:
        raise ConfigError(problems)
    if exp == "simulate" and cfg.run.c_const is None and cfg.check is None:
        cfg = replace(cfg, run=replace(cfg.run, c_const=0.0))  # no discount
    if exp == "hjm":
        m = cfg.model
        cfg = replace(cfg, model=replace(m, **hjm_drift(cfg.grid.alpha, m.alpha_in_drift)))
    return cfg


def reads_key(experiment: str, dotted: str) -> bool:
    """Whether the experiment reads the config key at a dotted path such as run.seed."""
    cls = Config
    for key in dotted.split("."):
        f = next(f for f in fields(cls) if (f.metadata["key"] or f.name) == key)
        if experiment not in f.metadata["read_by"]:
            return False
        cls = _required(_type_hints(cls)[f.name])
    return True


def as_json(obj):
    """A resolved config (or section) as JSON data, leaving out fields that are None."""
    if is_dataclass(obj):
        return {f.metadata["key"] or f.name: as_json(getattr(obj, f.name))
                for f in fields(obj) if getattr(obj, f.name) is not None}
    if isinstance(obj, tuple):
        return [as_json(x) for x in obj]
    return obj


def load_config(path: str, experiment: str | None = None, overrides=()) -> Config:
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


def build_grid(g: GridConfig) -> Grid:
    from .grids import Grid

    return Grid.uniform(g.x_max, g.n_nodes, g.alpha)


def _table(grid: Grid, table, tail) -> GridFunction:
    import numpy as np

    from .grids import GridFunction

    vals = np.asarray(table, dtype=np.float64)
    return GridFunction(grid, vals, tail if tail is not None else float(vals[-1]))


def build_modes(m: ModelConfig, grid: Grid) -> tuple:
    from .coefficients import ModeFunction

    return tuple(
        ModeFunction(mode.kind, mode.c, mode.cap, mode.decay,
                     None if mode.table is None else _table(grid, mode.table, mode.tail))
        for mode in m.modes
    )


def build_initial(init: InitialConfig, grid: Grid) -> GridFunction:
    import numpy as np

    from .grids import GridFunction

    if init.flat is not None:
        return GridFunction.constant(grid, init.flat)
    if init.exp_decay is not None:
        d = init.exp_decay
        vals = d.base + d.amp * np.exp(-d.decay * grid.nodes)
        return GridFunction(grid, vals, float(vals[-1]))
    return _table(grid, init.table, init.tail)


def build_model(m: ModelConfig, grid: Grid) -> CoefficientModel:
    from .coefficients import CoefficientModel

    return CoefficientModel(grid, build_modes(m, grid), m.drift, m.drift_c, m.alpha_correction)
