"""The arrcsm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, never from an installed copy.  The seed generates the
workload's .arr inputs (bench_inputs), which are written under
perfbench/.work/ and removed at the end.  One client runs the workload's
job list in passes, back to back, a number of passes fixed by --seconds;
a job is one in-process call to arrcsm.cli.run([...]) with stdout
captured, timed at nominal host speed (SpeedMonitor), and every job's
output is checked against the invariants the generator knows
(bench_check).  A failed job is counted and the run goes on.

--trace 0 reports the end-to-end metrics.  --trace 1 first repeats the
untraced run, then runs the same number of passes with every layer
wrapped (bench_trace) and reports per-layer metrics per job, with the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Single-threaded: numpy's BLAS would otherwise start a thread per core.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COLD_STARTS = 7
MIN_JOBS = 40  # keeps at least 10 samples beyond a tail percentile >= p75
# Wall seconds one pass over each job list takes on the baseline host.
# --seconds fixes the number of passes through these, so every seed and
# both commits of a comparison run the same jobs and the tail percentile
# keeps its rank; a run is cut after 4 x --seconds.
NOMINAL_PASS_S = {"search": 5.0, "lattice": 3.0, "report": 3.8}
# The probe below took this long on the baseline host in its fast state.
REFERENCE_PROBE_S = 0.00036
PROBE_INTERVAL_S = 0.025


def _hilbert_elimination(n: int = 5) -> None:
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


class SpeedMonitor:
    """Times calls in seconds at the host's nominal speed.

    The CPU speed of a shared host drifts: on the baseline host the same
    work took up to 1.7x longer, in phases from a fraction of a second to
    20 s, and 20 s runs of raw wall time spread by 25%.  timed() runs a
    fixed probe of exact arithmetic that arrcsm does not run (a small
    Hilbert matrix eliminated over Fraction) before and after the call
    and, with `sample`, every PROBE_INTERVAL_S during it from a SIGALRM
    handler in this thread.  The call's wall time, less the probes run
    inside it, is scaled by REFERENCE_PROBE_S / (mean probe time).
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        if sample:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())

    def close(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _probe(self) -> None:
        start = time.perf_counter()
        _hilbert_elimination()
        self.probes.append((start, time.perf_counter() - start))

    def timed(self, fn):
        """(wall seconds, nominal seconds, fn's result) of one call of fn."""
        self.probes.clear()
        self._probe()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        wall = end - start - sum(d for s, d in self.probes if start <= s < end)
        mean_probe = statistics.fmean(d for _, d in self.probes)
        return wall, wall * REFERENCE_PROBE_S / mean_probe, result


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest rank that leaves 10 samples above it.

    With n sorted samples the value is the (n - 10)-th smallest, which is
    the 100 * (n - 10) / n percentile.
    """
    n = len(latencies)
    if n < 11:
        raise ValueError("a tail percentile needs at least 11 samples")
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def cold_start_seconds(count: int) -> list[float]:
    """Wall times of fresh interpreters importing arrcsm.cli, numpy included."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import arrcsm.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # writes .pyc files
    monitor = SpeedMonitor(sample=False)  # the child may run on another core
    return [
        monitor.timed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60))[1]
        for _ in range(count)
    ]


class Loop:
    """Closed loop with one client over a fixed job list."""

    def __init__(self, cli, passes, check_output, monitor: SpeedMonitor):
        self.cli = cli
        self.pass_jobs = passes  # per pass: [(job, input path)]
        self.check_output = check_output
        self.monitor = monitor
        self.latencies: list[float] = []  # nominal seconds
        self.raw: list[float] = []  # wall seconds
        self.failures: list[str] = []

    def timed_job(self, job, path) -> tuple[float, float]:
        """(wall seconds, nominal seconds) of one job; a failure is recorded."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.run(job.argv(path)), None
            except (Exception, SystemExit):  # a crash (or argparse exit) fails the job only
                return None, traceback.format_exc(limit=3)

        wall, nominal, (code, crash) = self.monitor.timed(call)
        problems = [crash] if crash else self.check_output(job, code, out.getvalue())
        if problems:
            self.failures.append(f"{job.label}: {'; '.join(problems)} {err.getvalue()[:200]}")
        return wall, nominal

    def run(self, deadline: float = float("inf"), on_job=None) -> int:
        """Run the passes in order, stopping early once `deadline` seconds pass."""
        started = time.perf_counter()
        for done, jobs in enumerate(self.pass_jobs, start=1):
            for job, path in jobs:
                wall, nominal = self.timed_job(job, path)
                self.raw.append(wall)
                self.latencies.append(nominal)
                if on_job is not None:
                    on_job(wall, nominal / wall)
            if time.perf_counter() - started >= deadline:
                break
        return done

    def jobs_per_s(self, raw: bool = False) -> float:
        return len(self.latencies) / sum(self.raw if raw else self.latencies)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arrcsm" / "cli.py").is_file():
        print(f"error: {SRC / 'arrcsm'} not found; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import arrcsm.cli as cli
    from bench_check import check_output
    from bench_inputs import WORKLOADS, jobs as make_jobs

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported arrcsm from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    setup = statistics.median(cold_start_seconds(COLD_STARTS)) if not args.trace else None

    jobs = make_jobs(args.workload, args.seed, ROOT / "corpus")
    npasses = max(round(args.seconds / NOMINAL_PASS_S[args.workload]), -(-MIN_JOBS // len(jobs)))
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        passes = []
        for rep in range(npasses):
            (work / str(rep)).mkdir(parents=True)
            passes.append([
                (job, job.case.write(work / str(rep)))
                for job in make_jobs(args.workload, args.seed, ROOT / "corpus", rep)
            ])
        monitor = SpeedMonitor(sample=True)
        try:
            loop = Loop(cli, passes, check_output, monitor)
            npasses = loop.run(deadline=4 * args.seconds)
        finally:
            monitor.close()
        if not args.trace:
            pct, tail = tail_percentile(loop.latencies)
            n = len(loop.latencies)
            print(f"workload {args.workload}, seed {args.seed}: {npasses} passes of "
                  f"{len(jobs)} jobs, {n} samples; tail = p{pct:.1f} of {n}")
            metrics = {
                "jobs_per_s": (loop.jobs_per_s(), "jobs/s"),
                "latency_p50_ms": (statistics.median(loop.latencies) * 1000, "ms"),
                "latency_tail_ms": (tail * 1000, "ms"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            _, raw_tail = tail_percentile(loop.raw)
            print(f"raw wall time: {loop.jobs_per_s(raw=True):.4g} jobs/s, "
                  f"p50 {statistics.median(loop.raw) * 1000:.4g} ms, tail {raw_tail * 1000:.4g} ms")
            print(f"failed_ratio {len(loop.failures)}/{n} = {len(loop.failures) / n:.6g} fraction")
            attempted, failures = n, loop.failures
        else:
            from bench_trace import LayerTotals, Tracer

            tracer, totals = Tracer(), LayerTotals()
            # no probes inside traced jobs: they would land in the spans
            traced = Loop(cli, passes[:npasses], check_output, SpeedMonitor(sample=False))
            tracer.install()
            try:
                traced.run(on_job=lambda wall, scale: totals.add_job(*tracer.take(), wall, scale))
            finally:
                tracer.uninstall()
            metrics = dict(sorted(totals.per_job().items()))
            metrics["trace.untraced_jobs_per_s"] = (loop.jobs_per_s(), "jobs/s")
            metrics["trace.traced_jobs_per_s"] = (traced.jobs_per_s(), "jobs/s")
            metrics["trace.slowdown_ratio"] = (loop.jobs_per_s() / traced.jobs_per_s(), "ratio")
            print(f"workload {args.workload}, seed {args.seed}: {npasses} untraced and "
                  f"{npasses} traced passes of {len(jobs)} jobs")
            print("top spans by self time, ms per job (calls per job):")
            for name, (calls, self_s) in sorted(
                totals.by_span.items(), key=lambda kv: -kv[1][1]
            )[:12]:
                print(f"  {name:36s} {self_s * 1000 / totals.jobs:10.3f} ({calls / totals.jobs:.1f})")
            attempted = len(loop.latencies) + len(traced.latencies)
            failures = loop.failures + traced.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    _emit(not failures, attempted, len(failures), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
