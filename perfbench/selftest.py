"""Self-test of the benchmark's checks: each must fail once its output passes its bound.

    python3 perfbench/selftest.py

Runs every workload's experiments once through ``mildsim.cli.main``
(the sources in ``src`` next to this directory), requires the real
outputs to pass, then pushes one output at a time past the bound its
check enforces and requires a failure.  Where a bound is numeric, the
same output pushed to just inside the bound must still pass, so the test
also shows where the bound lies.  Finally exit codes 3 and 4 (the
experiment's pass condition failed, a path aborted) must be reported as
wrong results, other failures must count as failed operations, changed
output bytes must be reported, and a span that its children outlast must
be caught.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from run import WRONG_RESULT_CODES, Workload  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 1
JUST = 1e-6  # relative step past (or short of) a numeric bound


def _res(o):
    return o["manifest"]["results"]


def _set(path, value):
    """Mutation that sets outs[path[0]][path[1]]...[path[-1]] = value(cfg, outs)."""

    def mutate(cfg, o):
        d = o
        for k in path[:-1]:
            d = d[k]
        d[path[-1]] = value(cfg, o) if callable(value) else value

    return mutate


def _flat_edge(col, side, inside):
    def value(cfg, o):
        want, tol = W.flat_short_rate(cfg)[col]
        return want + side * tol * ((1 - JUST) if inside else (1 + JUST))

    return _set(("curve.csv", col, 0), value)


def _lambda_last_ratio(inside):
    def mutate(cfg, o):
        ds = o["lambda_study.csv"]["sup_distance"]
        k = len(cfg["lambda_study"]["lams"])
        r = W.LAMBDA_RATIO - W.LAMBDA_RATIO_TOL * ((1 - JUST) if inside else (1 + JUST))
        ds[k - 1] = ds[k - 2] * r

    return mutate


def _ito_last_ratio(side, inside):
    def mutate(cfg, o):
        sto = o["ito_check.csv"]["sto_mean_abs"]
        r = 0.5 + side * W.ITO_RATIO_TOL * ((1 - JUST) if inside else (1 + JUST))
        sto[2] = sto[1] * r

    return mutate


def _drop_last_row(cfg, o):
    for col in o["lambda_study.csv"].values():
        col.pop()


def _del_battery(cfg, o):
    del _res(o)["jensen-chain"]


# (label, mutation, whether the check must fail)
CASES = {
    W.check_hjm_flat: [
        ("verdict inconclusive", _set(("manifest", "results", "verdict"), "inconclusive"), True),
        ("no coefficient violation", _set(("manifest", "results", "check", "violations"), 0), True),
        ("one path aborted", _set(("manifest", "results", "n_aborted"), 1), True),
        ("u_mean above bound", _flat_edge("u_mean", +1, False), True),
        ("u_mean below bound", _flat_edge("u_mean", -1, False), True),
        ("u_mean just inside", _flat_edge("u_mean", +1, True), False),
        ("u_p5 below bound", _flat_edge("u_p5", -1, False), True),
        ("u_p5 just inside", _flat_edge("u_p5", -1, True), False),
        ("u_p95 above bound", _flat_edge("u_p95", +1, False), True),
        ("u_p95 just inside", _flat_edge("u_p95", +1, True), False),
    ],
    W.check_hjm_capped: [
        ("one coefficient violation", _set(("manifest", "results", "check", "violations"), 1), True),
        ("infinite constant", _set(("manifest", "results", "check", "estimated_c"), "inf"), True),
        ("one path below -1e-3",
         _set(("ensemble.csv", f"frac_below_{W.THRESHOLD}", -1),
              lambda c, o: 1.0 / c["run"]["n_paths"]), True),
        ("min value past the one-step floor",
         _set(("ensemble.csv", "min_value_min", 7), lambda c, o: W.capped_floor(c) * (1 + JUST)),
         True),
        ("min value at the one-step floor",
         _set(("ensemble.csv", "min_value_min", 7), lambda c, o: W.capped_floor(c)), False),
        ("one path aborted", _set(("manifest", "results", "n_aborted"), 1), True),
        ("verdict inconclusive", _set(("manifest", "results", "verdict"), "inconclusive"), True),
    ],
    W.check_operator_tests: [
        (f"{label} violated", _set(("manifest", "results", label, "n_violations"), 1), True)
        for label in ("submarkov", "l1-contraction", "monotone-pairing", "jensen-chain")
    ] + [
        ("a check missing",
         _set(("manifest", "results", "submarkov", "n_checks"),
              lambda c, o: c["check"]["n_samples"] - 1), True),
        ("a battery missing", _del_battery, True),
    ],
    W.check_ito: [
        ("order below 0.9", _set(("manifest", "results", "det_order"), 0.9 * (1 - JUST)), True),
        ("order at 0.9", _set(("manifest", "results", "det_order"), 0.9), False),
        ("residual flat in dt",
         _set(("ito_check.csv", "sto_mean_abs", 2), lambda c, o: o["ito_check.csv"]["sto_mean_abs"][1]),
         True),
        ("residual growing in dt",
         _set(("ito_check.csv", "sto_mean_abs", 1),
              lambda c, o: o["ito_check.csv"]["sto_mean_abs"][0] * (1 + JUST)), True),
        ("residual ratio past 1/2 + tol", _ito_last_ratio(+1, False), True),
        ("residual ratio just inside 1/2 + tol", _ito_last_ratio(+1, True), False),
        ("residual ratio past 1/2 - tol", _ito_last_ratio(-1, False), True),
        ("residual ratio just inside 1/2 - tol", _ito_last_ratio(-1, True), False),
        ("dt column changed", _set(("ito_check.csv", "dt", 0), 0.5), True),
    ],
    W.check_lambda: [
        ("a zero distance", _set(("lambda_study.csv", "sup_distance", 3), 0.0), True),
        ("distances not decreasing",
         _set(("lambda_study.csv", "sup_distance", 1),
              lambda c, o: o["lambda_study.csv"]["sup_distance"][0]), True),
        ("ratio past 1/2 - tol", _lambda_last_ratio(False), True),
        ("ratio just inside", _lambda_last_ratio(True), False),
        ("a row missing", _drop_last_row, True),
    ],
}


def main() -> int:
    from mildsim import cli

    bad = 0

    def report(ok, what):
        nonlocal bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for name in W.WORKLOADS:
        run_dir = ROOT / ".perfbench-out" / "selftest" / name
        run_dir.mkdir(parents=True, exist_ok=True)
        W.write_configs(run_dir, name, SEED)
        wl = Workload(name, SEED, run_dir)
        wl.check_round(wl.run_round(cli.main))
        report(wl.failed == 0 and not wl.problems,
               f"{name}: real outputs pass {wl.problems}")
        for exp in wl.exps:
            outs = W.read_outputs(exp.out_dir(run_dir))
            for label, mutate, must_fail in CASES[exp.check]:
                o = copy.deepcopy(outs)
                mutate(exp.config, o)
                fails = exp.check(exp.config, o)
                report(bool(fails) == must_fail,
                       f"{name}/{exp.name}: {label} -> {fails or 'passes'}")
        n = len(wl.exps)
        for rc in WRONG_RESULT_CODES:
            wl.problems.clear()
            wl.check_round([(0.0, rc)] * n)
            report(wl.failed == 0 and len(wl.problems) == n,
                   f"{name}: exit code {rc} is a wrong result {wl.problems}")
        for rc in (2, None):
            wl.problems.clear()
            wl.failed = 0
            wl.check_round([(0.0, rc)] * n)
            report(wl.failed == n and not wl.problems,
                   f"{name}: exit code {rc} counts as {wl.failed}/{n} failed operations")
        manifest = wl.exps[0].out_dir(run_dir) / "manifest.json"
        manifest.write_bytes(manifest.read_bytes() + b" ")
        wl.check_round([(0.0, 0)] * n)
        report(any("bytes differ" in p for p in wl.problems),
               f"{name}: changed bytes reported {wl.problems}")

    tracer = Tracer()
    # span 1 is a child of span 0 that starts before it and ends after it
    tracer.spans = [["cli.main", -1, 1.0, 2.0, 0, None],
                    ["kernels.simulate_batch", 0, 0.5, 2.5, 0, None]]
    report(tracer.round_totals(0)[1] == 1, "a span outlasted by its child is caught")
    tracer.spans[1][2:4] = [1.2, 1.8]
    report(tracer.round_totals(0)[1] == 0, "a nested span passes")
    print("self-test " + ("passed" if bad == 0 else f"FAILED in {bad} cases"))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
