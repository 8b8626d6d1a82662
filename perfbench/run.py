"""Benchmark of the leaky-cavity package: one workload, one closed-loop caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-shipped --seed 7 --seconds 20 --trace 0

It builds the workload's inputs from the seed, times set-up in fresh
interpreters, then repeats the workload's operation until ``--seconds`` have
passed (at least once) and checks every output.  Every time it reports is
scaled to a nominal host speed measured while it ran (see ``HostSpeed``).
The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every public function of the package is wrapped from outside
(see ``tracing.py``) and the metrics are per layer.
"""

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_out")

# BLAS threads in the workload's process and its probes, capped at nproc (set here,
# before workloads.py loads numpy).  One thread on every workload: a second OpenBLAS
# thread spins beside the Python code and makes the times depend on the other CPU,
# which the reference below does not see.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("run-shipped", "verify-full", "sweep-series")  # see workloads.py
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The host's speed drifts by tens of per cent over seconds to minutes, more than any
# statistic inside one run can remove.  So a helper thread times a fixed unit of
# work every REF_INTERVAL_S while the benchmark runs, and each operation's and
# set-up's seconds are scaled by REF_NOMINAL_S over the median unit time sampled
# while it ran: a time is reported as it would read on a host where the unit takes
# REF_NOMINAL_S (about what it took on the 2-vCPU Xeon the benchmark was tuned on).
# The unit is no part of the program, so a change to the program moves the scaled
# times as much as the raw ones; the raw medians are printed on a log line.
REF_SHAPE = (20001, 16)  # a closed-form grid: time points x comb lines
REF_INTERVAL_S = 0.2
REF_NOMINAL_S = 0.012


class HostSpeed:
    """Times a fixed unit of numpy work every REF_INTERVAL_S on a helper thread.

    The unit is a complex exponential and a sum of squares over REF_SHAPE.  numpy
    releases the GIL for it, so the helper runs on the other CPU without holding up
    the caller.  A sample is the helper's thread-CPU seconds for one unit, so that
    the helper being switched out for a moment does not pass for a slow host.
    """

    def __init__(self):
        import numpy  # after the BLAS threads are pinned
        self._exp = numpy.exp
        self._x = numpy.linspace(0.0, 1.0, REF_SHAPE[0] * REF_SHAPE[1]).reshape(REF_SHAPE)
        self.samples = []  # (perf_counter at its end, thread-CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def _run(self):
        while True:
            c0 = time.thread_time()
            y = self._exp(1j * self._x)
            float((y * y.conj()).real.sum())
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            if self._stop.wait(REF_INTERVAL_S):
                return

    def _next_sample(self):
        """Wait, at most a second, for the helper to finish one more sample."""
        n = len(self.samples)
        deadline = time.perf_counter() + 1.0
        while len(self.samples) == n and time.perf_counter() < deadline:
            time.sleep(0.005)

    def __enter__(self):
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        self._next_sample()
        return self

    def __exit__(self, *exc):
        self._next_sample()  # so the last timed interval has a sample after it
        self._stop.set()
        self._thread.join()

    def cpu(self) -> float:
        """The helper's CPU seconds so far, to leave out of the process's."""
        return time.clock_gettime(self._clock)

    def factor(self, start, end) -> float:
        """REF_NOMINAL_S over the median of the samples that ended within [start, end],
        the last before it and the first after it."""
        ends = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(ends, start) - 1, 0)
        hi = bisect.bisect_right(ends, end) + 1
        return REF_NOMINAL_S / statistics.median(u for _, u in self.samples[lo:hi])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure operations for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, seed, program_seed, threads) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "program_seed": program_seed,
            "blas_threads": threads, "nproc": nproc(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def time_setup(scenario_path):
    """Start of a fresh interpreter and the time of the probe's ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), SRC, scenario_path],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return start, ready


def tail(samples):
    """Highest of p50/p75/p90/p99/p99.9 with at least 10 samples beyond it, or None."""
    import numpy
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(numpy.percentile(samples, p))
    return None


def measure(workload, seconds, speed, tracer=None):
    """Repeat the operation for ``seconds`` (at least once).

    Returns, per operation, its start and end, its CPU seconds without those of the
    ``speed`` helper, and the check's failures.
    """
    spans, cpus, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = len(spans) + 1
        c0, w0 = time.process_time() - speed.cpu(), time.perf_counter()
        try:
            result = workload.op()
            error = None
        except Exception as exc:  # a crashing operation is a failed one; keep measuring
            traceback.print_exc()
            result, error = None, f"{type(exc).__name__}: {exc}"
        spans.append((w0, time.perf_counter()))
        cpus.append(time.process_time() - speed.cpu() - c0)
        failures.append([error] if error else workload.check(result))
        if time.perf_counter() >= deadline:
            return spans, cpus, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leaky_cavity", "__init__.py")):
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:  # before numpy loads OpenBLAS, here and in the probes
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    import tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    program_seed = seed % 2 ** 32  # numpy seeds must be nonnegative
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tempfile.tempdir = workdir  # `verify` writes its determinism reruns here
    try:
        workload = cls(program_seed, workdir)
        print("provenance: " + json.dumps(provenance(args.workload, seed, program_seed,
                                                      threads)))
        workload.prepare()
        speed = HostSpeed()
        with speed:
            setups = [] if args.trace else [time_setup(workload.scenario_path())
                                            for _ in range(SETUP_PROBES)]
            tracer = None
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
            workload.setup()
            setup_failures = workload.check_setup()
            spans, cpus, failures = measure(workload, args.seconds, speed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [setup_failures] + failures  # the set-up counts as one checked attempt
    failed = sum(1 for f in failures if f)
    for f in failures:
        for message in f[:3]:
            print(f"FAILED: {message}", file=sys.stderr)
    walls = [end - start for start, end in spans]
    factors = [speed.factor(start, end) for start, end in spans]
    setup_walls = [end - start for start, end in setups]
    op_walls = [w * f for w, f in zip(walls, factors)]
    op_s = statistics.median(op_walls)
    top = tail(op_walls)
    print(f"op_s: median {op_s:.6g} s over {len(walls)} operations; "
          + (f"p{top[0]:g} {top[1]:.6g} s" if top else "no percentile has 10 samples beyond it"))
    print(f"unscaled: op {statistics.median(walls):.6g} s, cpu {statistics.median(cpus):.6g} s"
          + (f", setup {statistics.median(setup_walls):.6g} s" if setups else "")
          + f"; host-speed unit {statistics.median(u for _, u in speed.samples):.6g} s "
          f"against {REF_NOMINAL_S:g} s nominal, {len(speed.samples)} samples")
    print(f"failed_share: {failed}/{len(failures)} (set-up plus operations)")

    if tracer is None:
        metrics = {
            "op_s": (op_s, "s"),
            "cpu_s": (statistics.median(c * f for c, f in zip(cpus, factors)), "s"),
            "setup_s": (statistics.median(w * speed.factor(*span)
                                          for w, span in zip(setup_walls, setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.uninstall()
        metrics = tracer.layer_metrics(len(walls))
        metrics["traced.op_s"] = (op_s, "s")
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"spans-{args.workload}-{seed}.jsonl")
        tracer.dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}; per-layer values are for "
              "one set-up plus one operation; counts are computed from call arguments "
              "and file sizes")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(failures), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
