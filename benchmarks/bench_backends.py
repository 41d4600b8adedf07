"""Time the batch path integrator and the resolvent sweep.

Reports best-of-N wall times on a fixed workload.  Run from the repo
root:

    python3 benchmarks/bench_backends.py
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mildsim import CoefficientModel, Grid, GridFunction, ModeFunction, NoiseConfig, kernels
from mildsim.noise import increment_block


def _workload(n_nodes, n_paths, n_steps):
    g = Grid.uniform(2.0, n_nodes, 0.5)
    model = CoefficientModel(
        g,
        (
            ModeFunction("proportional-capped", c=0.6, cap=0.05),
            ModeFunction("exponential-decay", c=0.1, decay=0.8),
        ),
        drift="hjm",
        alpha_correction=g.alpha,
    )
    u0 = GridFunction.from_callable(g, lambda x: 0.03 + 0.01 * np.exp(-x))
    dt = g.spacing
    v0 = np.tile(u0.values, (n_paths, 1))
    tail0 = np.full(n_paths, u0.tail_value)
    dW = np.stack(
        [increment_block(NoiseConfig(2, 7, p), dt, n_steps) for p in range(n_paths)]
    )
    lam = 0.05
    E, amb, b, denom = kernels.resolvent_coeffs(g.spacing, lam, g.alpha)
    ka = model.kernel_args()
    args = (
        v0, tail0, dW, 1, float(np.exp(-g.alpha * dt)), dt, 0,
        ka["profiles"], ka["profile_tails"], ka["level_codes"], ka["caps"],
        ka["drift_code"], ka["drift_c"], ka["alpha_corr"], lam, E, amb, b, denom,
        g.spacing, g.weights, g.tail_weight, 1e12,
        np.array([n_steps], dtype=np.int64),
    )
    return args


def _best(fn, args, repeats):
    fn(*args)  # one untimed call: lazy imports, cache warming
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=2001)
    ap.add_argument("--paths", type=int, default=32)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=3)
    opts = ap.parse_args()

    print(f"workload: {opts.paths} paths x {opts.steps} steps, {opts.nodes} nodes, 2 modes")

    args = _workload(opts.nodes, opts.paths, opts.steps)
    t = _best(kernels.simulate_batch, args, opts.repeats)
    rate = opts.paths * opts.steps / t
    print(f"integrator: {t * 1e3:9.1f} ms  ({rate:,.0f} path-steps/s)")

    f = np.cumsum(np.random.default_rng(3).normal(size=200001)) * 0.01
    coeffs = kernels.resolvent_coeffs(5e-5, 0.1, 1.0)
    sweep_args = (f, float(f[-1])) + coeffs
    t = _best(kernels.resolvent_sweep, sweep_args, max(opts.repeats, 10))
    print(f"sweep 200k: {t * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
