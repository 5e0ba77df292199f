"""smcplan benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``smcplan`` is imported from its
``src/`` directory and nowhere else. The workload seed fixes every
training, planner and sweep seed. The next operation starts when the
previous one returns. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median
over ``SETUP_PROBES`` fresh interpreters, each timed from its start until
it has imported the package, built the workload and run one warm-up
operation; the probes are spread over the measuring loop, between units,
so the run's kernel timings cover the stretches they ran in. Every time
in the end-to-end metrics is scaled to nominal machine speed by the
whole run's kernel timings (see ``reference.py``); the ``info`` line
keeps the raw figures.

``--trace 1`` runs every unit twice, once plain and once with every
layer in ``tracing.LAYERS`` wrapped, and reports the per-layer metrics
of the traced runs plus the tracing overhead (1 - traced/untraced
operations per second). Spans go to ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, so each workload runs
# on a single thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from reference import Reference, Unscaled  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("train_chain5", "plan_wide", "sweep_degeneracy")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import ``smcplan`` from this checkout's ``src/``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "smcplan", "__init__.py")):
        fail(f"no smcplan package under {SRC}")
    sys.path.insert(0, SRC)
    import smcplan

    if os.path.dirname(os.path.dirname(os.path.abspath(smcplan.__file__))) != SRC:
        fail(f"smcplan was imported from {smcplan.__file__}, not from {SRC}")


def set_up(name: str, seed: int, scratch_dir: str):
    import workloads

    workload = workloads.build(name, seed, scratch_dir)
    workload.warmup()
    return workload


class Tally:
    """Operations, failures, latencies and busy time of one kind of unit."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.seconds = 0.0
        self.latencies = []

    def rate(self) -> float:
        return (self.attempted - self.failed) / self.seconds

    def grouped_latencies(self, group: int, period: int) -> list:
        """Latencies with each run of ``group`` consecutive ones replaced
        by the mean over that run in every ``period`` operations."""
        if group == 1 or len(self.latencies) % period:
            return self.latencies
        runs = np.asarray(self.latencies).reshape(-1, period // group, group)
        means = np.repeat(runs.mean(axis=(0, 2)), group)
        return np.tile(means, runs.shape[0]).tolist()


def measure(workload, seconds: float, timer, tracer=None, pauses=()):
    """Run units until ``seconds`` have passed and the quality units are
    done; returns the untraced and traced tallies.

    The timer takes its speed samples between units and, through the
    workload's per-operation hook, between operations.
    With a tracer, every unit runs twice on the same inputs, once traced
    and once not, in alternating order, so both tallies cover the same
    work and drift in machine speed falls on both alike.
    Each of ``pauses`` is called once between units, spread evenly over
    the run; the time they take does not count toward ``seconds``.
    """
    tallies = (Tally(), Tally())
    modes = (False,) if tracer is None else (False, True)
    workload.timer = timer
    pending = list(pauses)
    paused = 0.0
    j = 0
    start = time.perf_counter()
    while time.perf_counter() - start - paused < seconds or j < workload.quality_units:
        due = (len(pauses) - len(pending) + 0.5) * seconds / max(len(pauses), 1)
        if pending and time.perf_counter() - start - paused >= due:
            pause_start = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - pause_start
        for traced in modes if j % 2 == 0 else modes[::-1]:
            timer.sample()
            if traced:
                tracer.install()
            try:
                unit_start = timer.now()
                if traced:
                    latencies, n, bad = tracer.call(tracing.ROOT, workload.unit, j)
                else:
                    latencies, n, bad = workload.unit(j)
                unit_s = timer.now() - unit_start
            finally:
                if traced:
                    tracer.uninstall()
            tally = tallies[traced]
            tally.latencies += latencies
            tally.attempted += n
            tally.failed += bad
            tally.seconds += unit_s
        j += 1
    for pause in pending:
        pause()
    timer.sample(force=True)
    return tallies


def probe_setup(name: str, seed: int) -> float:
    """Seconds from the start of a fresh process until it is ready to time
    its first operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            raw_s = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("setup probe timed out")
    if proc.returncode != 0 or line.strip() != "ready":
        fail(f"setup probe exited with {proc.returncode}")
    return raw_s


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            head_ref = handle.read().strip()
        if not head_ref.startswith("ref: "):
            return head_ref
        with open(os.path.join(ROOT, ".git", head_ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def end_to_end(workload, args):
    ref = Reference()
    setups = []

    def probe():
        setups.append(probe_setup(args.workload, args.seed))

    run, _ = measure(workload, args.seconds, ref, pauses=[probe] * SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = ref.scale()
    grouped = run.grouped_latencies(workload.latency_group, workload.latency_period)
    ops_ms = [1e3 * scale * x for x in grouped]
    metrics = {
        "setup_s": (scale * statistics.median(setups), "s"),
        "ops_per_s": (run.rate() / scale, "1/s"),
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "op_ms_p90": (percentile(ops_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "latency_samples": len(ops_ms),
        "reference_samples": len(ref.samples),
        "reference_ms_mean": 1e3 * ref.mean_s(),
        "raw_ops_per_s": run.rate(),
        "raw_setup_samples_s": setups,
    }
    return metrics, run.attempted, run.failed, info


def per_layer(workload, args):
    tracer = tracing.Tracer()
    plain, traced = measure(workload, args.seconds, Unscaled(), tracer)
    values = tracer.summary(traced.attempted)
    values["trace.overhead_frac"] = 1.0 - traced.rate() / plain.rate()
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(spans_path)
    metrics = {name: (values[name], unit) for name, unit in tracing.per_layer_spec()}
    info = {"untraced_ops_per_s": plain.rate(), "traced_ops_per_s": traced.rate(),
            "spans": len(tracer.starts), "spans_file": os.path.relpath(spans_path, ROOT)}
    return (metrics, plain.attempted + traced.attempted, plain.failed + traced.failed,
            info)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    os.makedirs(OUT, exist_ok=True)
    scratch_dir = os.path.join(OUT, f"scratch-{os.getpid()}")
    try:
        workload = set_up(args.workload, args.seed, scratch_dir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, attempted, failed, info = per_layer(workload, args)
        else:
            metrics, attempted, failed, info = end_to_end(workload, args)
    finally:
        if os.path.isdir(scratch_dir):
            shutil.rmtree(scratch_dir)

    env = environment()
    correct = not workload.problems
    quality = (workload.quality_name, workload.quality(), workload.quality_unit)
    for problem in workload.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"{quality[0]} = {quality[1]:.6g} {quality[2]} (output quality, "
          f"first {workload.quality_units} units)")
    print(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, info=info, problems=workload.problems,
                  quality={"name": quality[0], "value": quality[1], "unit": quality[2]})
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
