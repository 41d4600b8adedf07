"""mildsim benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload hjm-flat --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; mildsim is imported from its ``src``.
The workloads (hjm-flat, hjm-capped, diagnostics) and their output
checks are in workloads.py.  This script writes the workload's configs,
then runs whole timed rounds in this process for at most ``--seconds``
(at least three rounds).  Each round calls ``mildsim.cli.main`` once per
experiment, closed loop, with ``--assert``, and is followed by one
set-up sample in a fresh process.  Outputs are checked after the first
round and compared byte for byte after every later round.

wall_s is the median round, setup_s the median set-up sample and
path_steps_per_s the throughput of all rounds together.  A first round
slowed by cold caches moves these little, so there is no separate
warm-up round.  With ``--trace 1`` untraced and traced rounds
alternate, and the traced ones give the per-layer metrics (tracing.py);
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed.  The last stdout line
is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the machine record.  Files go to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

MIN_TIMED_ROUNDS = 3
SETUP_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import mildsim.cli; "
    "print(time.perf_counter() - t0)"
)
# exit codes of mildsim.cli.main after it has written every output:
# 3 the experiment's pass condition failed (--assert), 4 a path aborted
WRONG_RESULT_CODES = (3, 4)


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def seed_arg(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^63)")
    return seed


def seconds_arg(text: str) -> float:
    s = float(text)
    if not 0 < s <= 120:
        raise argparse.ArgumentTypeError("seconds must be in (0, 120]")
    return s


def setup_sample(cmd: list, printed: bool) -> float:
    """Wall time of one fresh process running cmd, or the number it prints."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:4]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return float(proc.stdout) if printed else t1 - t0


def _openblas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    from mildsim import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mildsim_backend": kernels.BACKEND,
        "git_commit": git_commit(root),
    }


class Workload:
    def __init__(self, name: str, seed: int, run_dir: Path):
        self.exps = workloads.experiments(name, seed)
        self.run_dir = run_dir
        self.reference: dict = {}  # output bytes of the first round
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_round(self, main) -> list:
        """Run every experiment once; returns (seconds, exit code) per experiment.

        A call that raises gets the exit code None.
        """
        out = []
        for exp in self.exps:
            argv = exp.argv(self.run_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = main(argv)
                except Exception:
                    traceback.print_exc()
                    rc = None
                t1 = time.perf_counter()
            out.append((t1 - t0, rc))
        return out

    def check_round(self, timings: list) -> None:
        """Count failures, check the outputs once and their bytes every round.

        A call that raised or rejected its config is a failed operation.
        Exit codes 3 and 4 come after every output is written and say the
        result is wrong, so they are problems and the outputs are checked.
        """
        for exp, (_, rc) in zip(self.exps, timings):
            self.attempted += 1
            if rc != 0 and rc not in WRONG_RESULT_CODES:
                self.failed += 1
                continue
            if rc != 0:
                self.problems.append(f"{exp.name}: exit code {rc}")
            outdir = exp.out_dir(self.run_dir)
            got = workloads.output_bytes(outdir)
            ref = self.reference.get(exp.name)
            if ref is None:
                self.reference[exp.name] = got
                for msg in exp.check(exp.config, workloads.read_outputs(outdir)):
                    self.problems.append(f"{exp.name}: {msg}")
            elif got != ref:
                changed = sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
                self.problems.append(f"{exp.name}: output bytes differ between rounds: {changed}")

    def times(self, timings: list) -> dict:
        """Seconds per experiment of one round."""
        return {e.name: t for e, (t, _) in zip(self.exps, timings)}

    def summary(self, rounds: list) -> dict:
        """Median round wall time, and path-steps per second over all rounds.

        path_steps_per_s is the run's throughput: every round's simulated
        (path, step) pairs over the time spent in the experiments that
        simulate them, the whole workload on hjm-*, lambda-study on
        diagnostics.  On a shared host speed drifts from round to round,
        and a total over the run averages that drift better than a median
        of a few rounds does (README.md, Noise).
        """
        steps = {e.name: workloads.path_steps(e.config) for e in self.exps}
        work = sum(steps.values()) * len(rounds)
        busy = sum(t for r in rounds for n, t in r.items() if steps[n] > 0)
        return {"wall_s": statistics.median(sum(r.values()) for r in rounds),
                "path_steps_per_s": work / busy}


def main() -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills a running set-up sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=seconds_arg, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "mildsim" / "cli.py").is_file():
        print(f"no mildsim sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Before numpy is first imported: BLAS threads up to the usable cores,
    # and mildsim from the checkout, here and in the set-up processes.
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                      PYTHONPATH=str(src))
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(src))
    from mildsim import cli

    run_dir = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workloads.write_configs(run_dir, args.workload, args.seed)
    wl = Workload(args.workload, args.seed, run_dir)

    tracer = Tracer() if args.trace else None
    # One set-up sample follows each timed round, so that the samples are
    # spread over the run as the rounds are.  Untraced runs time the CLI's
    # --validate-only path on the workload's configs; traced runs time the
    # import alone, inside the fresh process.
    if tracer is None:
        setup_cmds = [[sys.executable, "-m", "mildsim.cli", e.name, "--config",
                       str(e.config_path(run_dir)), "--validate-only"] for e in wl.exps]
    else:
        setup_cmds = [[sys.executable, "-c", IMPORT_PROBE]]
    setup = []
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + args.seconds
    longest = 0.0  # longest round with its set-up sample so far
    rnd = 0
    # A round starts only if the longest one so far would still end by
    # t_end, so a run measures for at most --seconds after the minimum.
    while time.perf_counter() + longest <= t_end or len(plain) < MIN_TIMED_ROUNDS or (
        tracer is not None and len(traced) < MIN_TIMED_ROUNDS
    ):
        t_round = time.perf_counter()
        if tracer is not None and rnd % 2 == 1:
            tracer.round = rnd
            tracer.install()
            try:
                timings = wl.run_round(tracer.wrap("cli.main", cli.main))
            finally:
                tracer.uninstall()
            traced.append(wl.times(timings))
            totals, n_outlasted = tracer.round_totals(rnd)
            layers.append({**layer_metrics(totals), "trace.wall_s": sum(traced[-1].values())})
            if n_outlasted:
                wl.problems.append(f"round {rnd}: {n_outlasted} spans shorter than their children")
        else:
            timings = wl.run_round(cli.main)
            plain.append(wl.times(timings))
        wl.check_round(timings)
        setup.append(setup_sample(setup_cmds[rnd % len(setup_cmds)], tracer is not None))
        longest = max(longest, time.perf_counter() - t_round)
        rnd += 1

    if tracer is None:
        values = {
            **wl.summary(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
    else:
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        values["trace.overhead_s"] = wl.summary(traced)["wall_s"] - wl.summary(plain)["wall_s"]
        values["setup.import_s"] = statistics.median(setup)
        tracer.write(run_dir / "spans.json")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    machine = machine_record(root)
    for msg in wl.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    line = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": {"plain": plain, "traced": traced, "setup": setup},
              "problems": wl.problems, "machine": machine, "result": line}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"machine": machine}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
