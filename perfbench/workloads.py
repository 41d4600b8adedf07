"""The benchmark's workloads: configs made from a seed, work counts, output checks.

Each workload is a list of experiments run in order through
``mildsim.cli.main``.  Every experiment has a config built from the
workload seed and a check that reads what the CLI wrote and compares it
against a closed form or a property the method must have.  A check
returns a list of failure messages; an empty list means the output is
right.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# hjm-flat: one constant mode, the regime the positivity theorem does not cover
FLAT_SIGMA = 0.2
FLAT_F0 = 0.01
FLAT_PATHS = 512
# hjm-capped: proportional-capped mode, admissible, the theorem's regime
CAPPED_PATHS = 256
# diagnostics
OPERATOR_SAMPLES = 20
ITO_PATHS = 150
LAMBDA_SEEDS = 20
LAMBDAS = [0.2, 0.1, 0.05, 0.025]

# how many standard errors a Monte Carlo estimate may stray from its closed form
N_SE = 5.0
Z95 = 1.6448536269514722  # standard normal 95% quantile
PHI_Z95 = math.exp(-0.5 * Z95 * Z95) / math.sqrt(2.0 * math.pi)
# first order in lambda: halving lambda should halve the distance
LAMBDA_RATIO = 0.5
LAMBDA_RATIO_TOL = 0.15
THRESHOLD = "1e-03"  # frac_below column that decides the HJM verdict
# no standard normal draw of a run exceeds this in size; |Z| > 6 has
# probability 2e-9, so about 3e-4 over the 128,000 draws of hjm-capped
Z_MAX = 6.0
# ito-check: the stochastic residual falls like sqrt(dt)
ITO_RATIO_TOL = 0.2


@dataclass(frozen=True)
class Experiment:
    name: str  # the CLI experiment, unique within its workload
    config: dict
    check: Callable[[dict, dict], list]

    def config_path(self, run_dir: Path) -> Path:
        return run_dir / f"{self.name}.json"

    def out_dir(self, run_dir: Path) -> Path:
        return run_dir / self.name

    def argv(self, run_dir: Path) -> list:
        return [self.name, "--config", str(self.config_path(run_dir)),
                "--out", str(self.out_dir(run_dir)), "--assert"]


def hjm_flat(seed: int) -> dict:
    return {
        "experiment": "hjm",
        "grid": {"x_max": 1.0, "n_nodes": 501, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "constant", "c": FLAT_SIGMA}],
            "initial": {"flat": FLAT_F0},
        },
        "run": {"dt": 2e-3, "t_final": 1.0, "n_paths": FLAT_PATHS, "seed": seed,
                "chunk_size": FLAT_PATHS},
        "check": {"n_samples": 200, "seed": seed},
        "expect_verdict": "counterexample-regime",
    }


def hjm_capped(seed: int) -> dict:
    return {
        "experiment": "hjm",
        "grid": {"x_max": 1.0, "n_nodes": 1001, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "proportional-capped", "c": 8.0, "cap": 2e-4}],
            "initial": {"flat": 4e-4},
        },
        "run": {"dt": 2e-3, "t_final": 1.0, "n_paths": CAPPED_PATHS, "seed": seed},
        "check": {"n_samples": 200, "seed": seed},
        "expect_verdict": "consistent-with-theorem",
    }


def operator_tests(seed: int) -> dict:
    return {
        "experiment": "operator-tests",
        "grid": {"x_max": 4.0, "n_nodes": 200001, "alpha": 1.0},
        "check": {"n_samples": OPERATOR_SAMPLES, "seed": seed},
    }


def ito_check(seed: int) -> dict:
    # The curve lies below the penalty's knee (-1/n) everywhere, and dt
    # shrinks fourfold per level.  A curve that crosses the knee makes
    # |residual| heavy tailed: the decrease then needs thousands of paths
    # to hold with margin (see README.md).
    return {
        "experiment": "ito-check",
        "grid": {"x_max": 5.0, "n_nodes": 251, "alpha": 1.0},
        "model": {
            "modes": [
                {"kind": "exponential-decay", "c": 0.25, "decay": 0.3},
                {"kind": "constant", "c": 0.1},
            ],
            "drift": "linear-decay",
            "drift_c": 0.2,
            "initial": {"exp-decay": {"base": -0.6, "amp": 0.3, "decay": 0.5}},
        },
        "ito": {"n": 50.0, "dt_values": [2e-2, 5e-3, 1.25e-3], "t_final": 0.1,
                "n_paths": ITO_PATHS, "seed": seed},
    }


def lambda_study(seed: int) -> dict:
    return {
        "experiment": "lambda-study",
        "grid": {"x_max": 2.0, "n_nodes": 401, "alpha": 0.5},
        "model": {
            "modes": [{"kind": "level-scaled", "c": 0.3, "cap": 0.05, "decay": 1.0}],
            "drift": "hjm",
            "alpha_correction": 0.5,
            "initial": {"exp-decay": {"base": 0.02, "amp": 0.01, "decay": 1.0}},
        },
        "run": {"dt": 5e-3, "t_final": 0.5, "seed": seed},
        "lambda_study": {"lams": LAMBDAS, "n_seeds": LAMBDA_SEEDS},
    }


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


def read_outputs(outdir: Path) -> dict:
    """manifest.json as a dict and every CSV as {column: [floats]}."""
    outs = {"manifest": json.loads((outdir / "manifest.json").read_text())}
    for name in outs["manifest"].get("outputs", []):
        with open(outdir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        outs[name] = {h: [float(r[i]) for r in body] for i, h in enumerate(header)}
    return outs


def output_bytes(outdir: Path) -> dict:
    """Raw bytes of every file the experiment wrote, by file name."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _results(outs: dict) -> dict:
    return outs["manifest"]["results"]


def _verdict(outs, want, fails):
    got = _results(outs)["verdict"]
    if got != want:
        fails.append(f"verdict {got!r}, want {want!r}")


def _no_aborts(outs, fails):
    n = _results(outs)["n_aborted"]
    if n != 0:
        fails.append(f"{n} paths aborted")


def flat_short_rate(cfg: dict) -> dict:
    """Musiela closed form for a constant volatility sigma, at maturity x = 0.

    r(t) = u(t, 0) = f0 + sigma^2 t^2 / 2 + sigma W_t, so at t = 1 the
    short rate is N(0.03, 0.2^2) and P(r(1) < 0) = Phi(-0.15) = 0.4404.
    Returns {curve.csv column: (closed form, allowed distance)}, the
    distance being N_SE standard errors of the n-path estimate.
    """
    sigma = cfg["model"]["modes"][0]["c"]
    f0 = cfg["model"]["initial"]["flat"]
    t = cfg["run"]["t_final"]
    n = cfg["run"]["n_paths"]
    mean = f0 + 0.5 * sigma * sigma * t * t
    sd = sigma * math.sqrt(t)
    se_mean = sd / math.sqrt(n)
    se_q = sd * math.sqrt(0.05 * 0.95 / n) / PHI_Z95
    return {
        "u_mean": (mean, N_SE * se_mean),
        "u_p5": (mean - Z95 * sd, N_SE * se_q),
        "u_p95": (mean + Z95 * sd, N_SE * se_q),
    }


def check_hjm_flat(cfg: dict, outs: dict) -> list:
    """Counterexample regime, short rate at t = 1 as flat_short_rate gives it."""
    fails: list = []
    res = _results(outs)
    _verdict(outs, "counterexample-regime", fails)
    if not res["check"]["violations"] > 0:
        fails.append("coefficient check found no violation for a flat volatility")
    _no_aborts(outs, fails)
    curve = outs["curve.csv"]
    if curve["x"][0] != 0.0:
        fails.append("curve.csv does not start at x=0")
    for col, (want, tol) in flat_short_rate(cfg).items():
        got = curve[col][0]
        if not abs(got - want) <= tol:
            fails.append(f"{col} at x=0 is {got:.6g}, closed form {want:.6g} +- {tol:.3g}")
    return fails


def capped_floor(cfg: dict) -> float:
    """Lowest value one Euler step can reach with a proportional-capped volatility.

    The volatility is c * min(u+, cap), so a node at or below 0 gets no
    noise, and a node above 0 falls by at most c * min(u, cap) * sqrt(dt)
    * |Z| in one step.  The deepest point is reached from u = cap:
    cap * (1 - c * sqrt(dt) * |Z|).  The shift, the weight damping with
    its +alpha*u compensation and the HJM drift (0 where the volatility
    is 0) move a negative node by O((alpha dt)^2) per step, so the dip
    does not deepen later.  The floor takes |Z| <= Z_MAX.
    """
    mode = cfg["model"]["modes"][0]
    return -mode["cap"] * (mode["c"] * math.sqrt(cfg["run"]["dt"]) * Z_MAX - 1.0)


def check_hjm_capped(cfg: dict, outs: dict) -> list:
    """The positivity theorem: admissible coefficients keep rates positive.

    The discrete paths do dip below 0, but by no more than the one-step
    floor of capped_floor.
    """
    fails: list = []
    res = _results(outs)
    if res["check"]["violations"] != 0:
        fails.append(f"coefficient check found {res['check']['violations']} violations")
    c = res["check"]["estimated_c"]
    if not (isinstance(c, (int, float)) and math.isfinite(c)):
        fails.append(f"positivity constant {c!r} is not finite")
    ens = outs["ensemble.csv"]
    frac = ens[f"frac_below_{THRESHOLD}"]
    if any(x != 0.0 for x in frac):
        fails.append(f"frac_below_{THRESHOLD} reaches {max(frac):.6g}")
    mins = ens["min_value_min"]
    floor = capped_floor(cfg)
    if not all(m >= floor for m in mins):
        fails.append(f"min_value_min reaches {min(mins):.6g} < one-step floor {floor:.6g}")
    _no_aborts(outs, fails)
    _verdict(outs, "consistent-with-theorem", fails)
    return fails


def check_operator_tests(cfg: dict, outs: dict) -> list:
    fails: list = []
    res = _results(outs)
    n = cfg["check"]["n_samples"]
    for label in ("submarkov", "l1-contraction", "monotone-pairing", "jensen-chain"):
        rep = res.get(label)
        if rep is None:
            fails.append(f"battery {label} missing")
            continue
        if rep["n_violations"] != 0:
            fails.append(f"battery {label}: {rep['n_violations']} violations")
        if rep["n_checks"] != n:
            fails.append(f"battery {label}: {rep['n_checks']} checks, want {n}")
    return fails


def check_ito(cfg: dict, outs: dict) -> list:
    """First-order deterministic residual; noisy residual shrinking like sqrt(dt).

    The stochastic residual is the Ito formula's error over one path, of
    order sqrt(dt); without the Ito correction it would not shrink at all.
    """
    fails: list = []
    res = _results(outs)
    if not res["det_order"] >= 0.9:
        fails.append(f"deterministic order {res['det_order']:.6g} < 0.9")
    table = outs["ito_check.csv"]
    if table["dt"] != cfg["ito"]["dt_values"]:
        fails.append(f"dt column {table['dt']} differs from the config")
    sto = table["sto_mean_abs"]
    if not (all(s > 0.0 for s in sto) and all(b < a for a, b in zip(sto, sto[1:]))):
        fails.append(f"stochastic residual {sto} does not decrease with dt")
        return fails
    for (dt_a, a), (dt_b, b) in zip(zip(table["dt"], sto), zip(table["dt"][1:], sto[1:])):
        want = math.sqrt(dt_b / dt_a)
        if not abs(b / a - want) <= ITO_RATIO_TOL:
            fails.append(f"residual ratio {b / a:.4g} from dt {dt_a:g} to {dt_b:g} is not near "
                         f"sqrt(dt ratio) {want:.4g}")
    return fails


def check_lambda(cfg: dict, outs: dict) -> list:
    """Every seed's distances positive, strictly decreasing, first order in lambda."""
    fails: list = []
    table = outs["lambda_study.csv"]
    lams = cfg["lambda_study"]["lams"]
    seed0 = cfg["run"]["seed"]
    seeds = [seed0 + i for i in range(cfg["lambda_study"]["n_seeds"])]
    want_seeds = [s for s in seeds for _ in lams]
    if table["seed"] != want_seeds or table["lam"] != lams * len(seeds):
        fails.append("lambda_study.csv does not hold one row per seed and lambda")
        return fails
    k = len(lams)
    for i, s in enumerate(seeds):
        ds = table["sup_distance"][i * k:(i + 1) * k]
        if not all(d > 0.0 for d in ds):
            fails.append(f"seed {s}: a distance is not positive: {ds}")
        elif not all(b < a for a, b in zip(ds, ds[1:])):
            fails.append(f"seed {s}: distances not strictly decreasing: {ds}")
        else:
            for a, b in zip(ds, ds[1:]):
                if not abs(b / a - LAMBDA_RATIO) <= LAMBDA_RATIO_TOL:
                    fails.append(f"seed {s}: distance ratio {b / a:.4g} is not near 1/2")
    return fails


WORKLOADS = {
    "hjm-flat": lambda seed: [Experiment("hjm", hjm_flat(seed), check_hjm_flat)],
    "hjm-capped": lambda seed: [Experiment("hjm", hjm_capped(seed), check_hjm_capped)],
    "diagnostics": lambda seed: [
        Experiment("operator-tests", operator_tests(seed), check_operator_tests),
        Experiment("ito-check", ito_check(seed), check_ito),
        Experiment("lambda-study", lambda_study(seed), check_lambda),
    ],
}


def experiments(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)


def write_configs(run_dir: Path, workload: str, seed: int) -> list:
    """Write each experiment's config into run_dir; returns the experiments."""
    exps = experiments(workload, seed)
    for e in exps:
        e.config_path(run_dir).write_text(json.dumps(e.config, indent=2) + "\n")
    return exps


def path_steps(cfg: dict) -> int:
    """Simulated (path, step) pairs of one run of the experiment, 0 if none."""
    exp = cfg["experiment"]
    if exp == "hjm":
        r = cfg["run"]
        return r["n_paths"] * round(r["t_final"] / r["dt"])
    if exp == "lambda-study":
        r = cfg["run"]
        ls = cfg["lambda_study"]
        # one plain path and one regularized path per lambda, for every seed
        return ls["n_seeds"] * (1 + len(ls["lams"])) * round(r["t_final"] / r["dt"])
    return 0
