"""Benchmark of the aporbit CLI: three workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload long_orbit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A job is one in-process `aporbit.cli.main([...])` call that
writes its artifacts under bench/out/scratch.  A run builds the job pool
of one workload from --seed and times whole rounds of it (at least
--seconds of job time and at least 100 jobs); the first round's artifacts
are checked in full, later rounds must repeat their bytes.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled by a reference job timed between jobs (see HostSpeed):
they read as on a host where `reference()` takes REF_MS.

--trace 0 reports the end-to-end metrics; --trace 1 runs half the time
with timing wrappers on every module binding of the package, the same
rounds again without them, and reports the per-layer metrics.
--workload all runs the three workloads in turn and prints one line each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_JOBS = 100
SETUP_REPEATS = 5
# Host speed: a fixed reference workload runs between jobs at most every
# REF_EVERY seconds; a timing is scaled by REF_MS / (the median reference
# time within REF_WINDOW seconds of it), i.e. reported as on a host where
# the reference takes REF_MS.
REF_MS = 10.0
REF_EVERY = 0.5
REF_WINDOW = 2.0

sys.path.insert(0, HERE)
import checks  # noqa: E402  (the benchmark's own module, found through HERE)

REF_SPEC = checks.MapSpec("ar", (0.3, -0.9))


def reference() -> float:
    """Seconds for a fixed job that shares no code with aporbit: a
    pure-Python orbit, numpy quantization, a dict chain walk, number
    formatting (the mix of work the CLI jobs do)."""
    t0 = time.perf_counter()
    Y = checks.orbit(REF_SPEC, (0.6, 0.2), 3000)
    checks.shadow_walk(Y, 256)
    "\n".join(",".join(map(repr, row)) for row in Y.tolist())
    return time.perf_counter() - t0


class HostSpeed:
    """Reference timings over a run, to scale wall times to REF_MS."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self, force=False):
        if force or not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY:
            self.took.append(reference())
            self.at.append(time.perf_counter())

    def scale(self, when: float) -> float:
        near = [t for a, t in zip(self.at, self.took) if abs(a - when) <= REF_WINDOW]
        if not near:
            near = [self.took[min(range(len(self.at)), key=lambda k: abs(self.at[k] - when))]]
        return REF_MS / 1000.0 / statistics.median(near)


def measure_setup(host: HostSpeed) -> float:
    """Median time of a fresh interpreter importing aporbit and building the
    CLI parser, scaled to the reference host (one untimed launch first warms
    the file cache)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import aporbit.cli; aporbit.cli.build_parser()")
    times = []
    for i in range(SETUP_REPEATS + 1):
        host.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, check=True)
        if i:
            times.append((time.perf_counter() - t0, t0))
    host.sample(force=True)
    return statistics.median(t * host.scale(at) for t, at in times)


class Runner:
    """Runs jobs in process, times them and checks their artifacts."""

    def __init__(self, jobs, scratch):
        from aporbit import cli

        self.cli = cli  # main is looked up per call, so the traced run sees its wrapper
        self.jobs = jobs
        self.dirs = [os.path.join(scratch, f"job{i:02d}") for i in range(len(jobs))]
        self.digests = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []       # wrong artifacts: the run is not correct
        self.faults = Counter()
        self.timeline = []     # (job, kind, wall seconds, scaled seconds) of the timed calls

    def call(self, i):
        """One CLI call; returns (seconds, exit code, stderr)."""
        argv = self.jobs[i].argv() + ["--out", self.dirs[i], "--force"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # uncaught: a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, code, err.getvalue()

    def settle(self, i, code, stderr, count=True):
        """Count the outcome of job i; check or compare its artifacts."""
        self.attempted += count
        job = self.jobs[i]
        if code != 0:
            self.failed += count
            self.faults[f"{job.kind}: {str(code)} {stderr.strip()[:120]}"] += 1
            return
        try:
            digest = checks.artifact_digest(self.dirs[i])
            if i not in self.digests:
                self.samples[i] = job.check(self.dirs[i])
                self.digests[i] = digest
            elif digest != self.digests[i]:
                raise checks.CheckFailed("artifacts differ from the first round's")
        except checks.KnownFault as exc:
            self.failed += count
            self.faults[f"{job.kind}: {exc}"] += 1
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"job {i} ({job.kind}): {type(exc).__name__}: {exc}")

    def round(self, times=None, tracer=None, host=None):
        for i in range(len(self.jobs)):
            if host is not None:
                host.sample()
            if tracer is not None:
                tracer.begin_job(i, self.dirs[i])
            start = time.perf_counter()
            elapsed, code, stderr = self.call(i)
            if tracer is not None:
                tracer.end_job()
            if times is not None:
                times.append((i, elapsed, start))
            self.settle(i, code, stderr)

    def timed(self, seconds, min_jobs, host):
        """Whole rounds until both `seconds` of job time and `min_jobs` jobs;
        returns (job, scaled seconds) per call."""
        times = []
        while sum(t for _, t, _ in times) < seconds or len(times) < min_jobs:
            self.round(times, host=host)
        host.sample(force=True)
        scaled = [(i, t * host.scale(start)) for i, t, start in times]
        self.timeline = [(i, self.jobs[i].kind, t, s) for (i, t, _), (_, s) in zip(times, scaled)]
        return scaled

    def peak_bytes_per_sample(self) -> float:
        """tracemalloc peak of the job with the longest orbit, per sample."""
        i = max(range(len(self.jobs)), key=lambda k: self.jobs[k].longest_orbit)
        tracemalloc.start()
        try:
            _, code, stderr = self.call(i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.settle(i, code, stderr, count=False)  # not a round: outside the counts
        return peak / max(self.samples.get(i, 0), 1)


def end_to_end(runner: Runner, seconds: float, setup_s: float, host: HostSpeed) -> dict:
    """Scaled timings of whole rounds; the first round's artifacts are
    checked in full.  The median and the rates use each job's median over
    its repetitions (a typical round), so one call caught in a slow phase of
    the host does not move them; p90 is over every call."""
    times = runner.timed(seconds, MIN_JOBS, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_job = {}
    for i, t in times:
        per_job.setdefault(i, []).append(t)
    typical = {i: statistics.median(ts) for i, ts in per_job.items()}
    round_s = sum(typical.values())
    samples = sum(runner.samples.get(i, 0) for i in typical)
    return {
        "setup_s": (setup_s, "s"),
        "job_ms_p50": (statistics.median(typical.values()) * 1000.0, "ms"),
        "job_ms_p90": (statistics.quantiles([t for _, t in times], n=10)[-1] * 1000.0, "ms"),
        "jobs_per_s": (len(typical) / round_s, "1/s"),
        "samples_per_s": (samples / round_s, "1/s"),
        "peak_bytes_per_sample": (runner.peak_bytes_per_sample(), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(runner: Runner, seconds: float, label: str) -> dict:
    """Traced rounds for half the time, then as many rounds untraced."""
    import tracing

    runner.round()  # untimed: checks, and lazy set-up before the comparison
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    try:
        while sum(t for _, t, _ in traced) < seconds / 2 or not traced:
            runner.round(traced, tracer)
    finally:
        tracer.uninstall()
    plain = []
    for _ in range(len(traced) // len(runner.jobs)):
        runner.round(plain)
    for i, seen in tracer.job_samples.items():
        want = runner.samples.get(i)
        if want is not None and seen != {want}:
            runner.errors.append(f"job {i}: traced orbit samples {seen} != {want} from artifacts")
    tracer.write(os.path.join(OUT, f"trace-{label}.json"))
    overhead = sum(t for _, t, _ in traced) - sum(t for _, t, _ in plain)
    return tracer.metrics(len(traced), overhead)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import workloads

    label = f"{name}-s{seed}-t{int(trace)}"
    scratch = os.path.join(OUT, "scratch", label)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        host = HostSpeed()
        setup_s = None if trace else measure_setup(host)
        jobs = workloads.WORKLOADS[name](np.random.default_rng(seed), scratch)
        runner = Runner(jobs, scratch)
        if trace:
            metrics = per_layer(runner, seconds, label)
        else:
            metrics = end_to_end(runner, seconds, setup_s, host)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in runner.errors[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    for fault, count in sorted(runner.faults.items()):
        print(f"failed x{count}: {fault}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{label}.json"), "w") as fh:
        json.dump(dict(result, errors=runner.errors, faults=runner.faults,
                       timeline=runner.timeline, reference=list(zip(host.at, host.took))), fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["long_orbit", "ladder_period", "small_jobs", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aporbit", "__init__.py")):
        print(f"error: no aporbit package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = ["long_orbit", "ladder_period", "small_jobs"] if args.workload == "all" \
        else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name} " if args.workload == "all" else ""
        print(prefix + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
