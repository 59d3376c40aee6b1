"""Benchmark of asyncofdm: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the workload's job list runs repeatedly for about
S seconds with tracing off and the end-to-end metrics are medians over those
passes.  With ``--trace 1`` one untraced pass is followed by one traced pass,
and the per-layer metrics come from the traced one.  Every job's output is
checked in every pass.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it repeat the
metrics with their units and record the environment.  Spans and a copy of the
result go to ``perfbench/out/<workload>/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; child processes
# inherit it.  numpy here may link an OpenBLAS built for many more threads than
# the machine has cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 9
# Times the set-up, and a pure-Python kernel (the interpreter work that imports
# are made of) just before and just after it in the same interpreter.  It
# prints the set-up time and the kernel's mean time, in seconds.
SETUP_CODE = """
import statistics, time

def kernel():
    t0 = time.perf_counter()
    table = {str(i): i * 7 % 13 for i in range(6000)}
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - t0

before = statistics.median(kernel() for _ in range(15))
t0 = time.perf_counter()
import asyncofdm.cli
asyncofdm.cli.load_config(None)
setup = time.perf_counter() - t0
after = statistics.median(kernel() for _ in range(15))
print(setup, 0.5 * (before + after))
"""
# The set-up kernel's time on the machine the first baseline was measured on;
# scales kernel-relative set-up times back to seconds of that machine.
NOMINAL_SETUP_KERNEL_S = 2.5e-3

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> tuple[float, float]:
    """Fresh interpreter to ready: import asyncofdm.cli plus load_config(None).

    Returns the time as measured, and the same time divided by the set-up
    kernel's time around it and scaled by NOMINAL_SETUP_KERNEL_S.  The second
    reads in seconds of the baseline machine; the drift of a shared machine's
    speed cancels out of it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    setup, kernel = map(float, done.stdout.split())
    return setup, setup / kernel * NOMINAL_SETUP_KERNEL_S


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():  # an exported checkout has none; never ask a parent repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


class Tally:
    """Jobs attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def add(self, messages: list[str]) -> None:
        self.attempted += 1
        if messages:
            self.failed += 1
            self.failures += messages


class SpeedProbe:
    """Times a fixed reference kernel from a timer signal while the jobs run.

    Other tenants of a shared machine can slow this process by up to 2x for
    seconds at a time, and the share of slow time drifts over minutes, so the
    same job list takes 20-30% longer in one run than in another.  The kernel
    is the benchmark's own code, so no change to the package moves it; sampled
    every INTERVAL seconds during the jobs, its mean time gives the machine's
    speed at the moments each job ran.  Probe time is taken out of job times.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *signal_args):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_POWERS = np.arange(1.0, 9.0)
_SPECTRUM = np.exp(1j * np.arange(1024.0))


def reference_kernel() -> float:
    """About 3 ms of the kinds of work the package does: small-array numpy
    under the interpreter (quadrature panels), per-trial RNG draws and vector
    sums (Monte Carlo), and 1024-point FFTs (link)."""
    s = 0.0
    for _ in range(8):
        for i in range(12):
            t = 0.5 * _GL_NODES + 0.5 + i
            s += float(_GL_WEIGHTS @ np.exp(-np.outer(t, _POWERS) ** 0.9).sum(axis=1))
        rng = np.random.default_rng(7)
        d = np.sqrt(rng.random(2000))
        p = rng.exponential(1.0, 2000) * d ** -3.8
        s += float(np.count_nonzero(p / (p.sum() - p) > 0.06))
        s += float(np.abs(np.fft.fft(_SPECTRUM)).sum())
    return s


def run_pass(workload, tally: Tally, tracer=None, probe=None):
    """Run every job once; checks are not timed.

    Returns seconds per job, probe time taken out, and with a probe the mean
    probe time during each job (absent for a job too short to be sampled).
    """
    seconds, speeds = {}, {}
    for job in workload.jobs:
        gc.collect()
        if tracer is not None:
            tracer.start_job(job.name)
        mark = len(probe.samples) if probe is not None else 0
        t0 = time.perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a job that raises is a failed job; keep measuring the rest
            output, failure = None, f"{job.name}: {type(exc).__name__}: {exc}"
        else:
            failure = None
        seconds[job.name] = time.perf_counter() - t0
        if probe is not None and len(probe.samples) > mark:
            seconds[job.name] -= sum(probe.samples[mark:])
            speeds[job.name] = statistics.fmean(probe.samples[mark:])
        if failure is not None:
            tally.add([failure])
            continue
        try:
            tally.add(job.check(output))
        except Exception as exc:
            tally.add([f"{job.name}: check raised {type(exc).__name__}: {exc}"])
    return seconds, speeds


def timed_passes(workload, tally: Tally, budget: float):
    """Passes until `budget` seconds are used; another starts only if half of it fits.

    Returns, per pass, the seconds of each job and the same time in units of
    the reference kernel's mean time while that job ran (the pass mean for a
    job too short to be sampled), and the pass's mean probe time.
    """
    passes, refs, speeds = [], [], []
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            mark = len(probe.samples)
            seconds, during = run_pass(workload, tally, probe=probe)
            if len(probe.samples) == mark:  # a pass shorter than the probe interval
                probe.sample()
            speed = statistics.fmean(probe.samples[mark:])
            passes.append(seconds)
            refs.append({j: t / during.get(j, speed) for j, t in seconds.items()})
            speeds.append(speed)
            used = time.perf_counter() - t0
            if used + 0.5 * used / len(passes) >= budget:
                return passes, refs, speeds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asyncofdm" / "__init__.py").is_file():
        print(f"error: no asyncofdm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import asyncofdm

    if not Path(asyncofdm.__file__).resolve().is_relative_to(SRC):
        print(f"error: asyncofdm imported from {asyncofdm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import Workload

    try:
        workload = Workload(args.workload, args.seed, OUT / args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups = [setup_seconds() for _ in range(SETUP_REPEATS)]
    workload.warm_up()
    tally = Tally()

    if args.trace == 0:
        passes, refs, speeds = timed_passes(workload, tally, args.seconds)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_ref": statistics.median(sum(r.values()) for r in refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        detail = {"wall_s": (statistics.median(sum(p.values()) for p in passes), "s"),
                  "setup_measured_s": (statistics.median(raw for raw, _ in setups), "s"),
                  "probe_ms": (statistics.median(speeds) * 1e3, "ms")}
        for name in passes[0]:
            detail[f"{name}_s"] = (statistics.median(p[name] for p in passes), "s")
            detail[f"{name}_ref"] = (statistics.median(r[name] for r in refs), "ref")
    else:
        plain, _ = run_pass(workload, tally)
        with tracing.Tracer() as tr:
            traced, _ = run_pass(workload, tally, tracer=tr)
        report = tracing.layer_metrics(tr)
        report["trace.overhead_frac"] = (sum(traced.values()) / sum(plain.values()) - 1.0,
                                         "ratio")
        tr.write(workload.out / f"spans-seed{args.seed}.npz")
        passes, detail = [plain], {}

    for name, messages in workload.final_checks():
        tally.add(messages)

    env = environment()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=len(passes), detail=detail, environment=env,
                  failures=tally.failures)
    with open(workload.out / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)}")
    for message in tally.failures:
        print(f"FAILED {message}")
    for name, (value, unit) in {**report, **detail}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} fraction")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
