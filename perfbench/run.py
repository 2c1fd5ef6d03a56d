"""Benchmark of the invseries solver: one workload per run.

    python3 perfbench/run.py --workload high-order --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up the workload's problems several times (the
median is ``setup_s``), then repeats passes over the workload's job list
until ``--seconds`` are spent, checking every job's output after each
pass.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (environment, quartiles, failures).

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` untraced and traced passes alternate,
the metrics are the per-layer ones (medians over traced passes, each
traced pass including one set-up), and the spans of every traced pass
are written to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# set-ups before the first pass and after each pass, so that set-up time
# is sampled across the whole run
SETUP_REPEATS = 10
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _quartiles(values) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def reference_loop_s() -> float:
    """Median time of a fixed loop of 1000-digit products and sums.

    Recorded so that a slow phase of the host shows; no metric is scaled by it.
    """
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.dps = 1000
    x = mp.sqrt(2)
    times = []
    for _ in range(5):
        start = perf_counter()
        y = mp.mpf(1)
        for _ in range(2000):
            y = y * x + x
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "reference_loop_s": reference_loop_s(),
    }


class Ledger:
    """Every job outcome of the run; a job that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digits = []

    def record(self, job, output):
        self.attempted += 1
        if isinstance(output, Exception):
            self.failures.append(f"{job.label}: {type(output).__name__}: {output}")
            return
        try:
            outcome = job.check(output)
        except Exception as exc:  # a malformed output must not end the run
            traceback.print_exc()
            self.failures.append(f"{job.label}: check raised {type(exc).__name__}: {exc}")
            return
        if outcome.digits is not None:
            self.digits.append(outcome.digits)
        if not outcome.ok:
            self.failures.append(f"{job.label}: {outcome.detail}")


def run_pass(jobs, tracer=None, job_times=None) -> tuple[float, list]:
    """Run every job once; returns the wall time of the jobs and their outputs."""
    outputs = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
        t0 = perf_counter()
        try:
            outputs.append(job.run())
        except Exception as exc:  # recorded as a failed job
            traceback.print_exc()
            outputs.append(exc)
        if job_times is not None:
            job_times.setdefault(job.label, []).append(perf_counter() - t0)
    return perf_counter() - start, outputs


def timed_setups(workload, times: list) -> list:
    """Set the workload up SETUP_REPEATS times; returns the last job list."""
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        jobs = workload.setup()
        times.append(perf_counter() - start)
    return jobs


def measure(workload, seconds: float, ledger: Ledger) -> dict:
    setup_times = []
    jobs = timed_setups(workload, setup_times)
    pass_times = []
    job_times = {}
    begin = perf_counter()
    while True:
        elapsed, outputs = run_pass(jobs, job_times=job_times)
        pass_times.append(elapsed)
        for job, output in zip(jobs, outputs):
            ledger.record(job, output)
        jobs = timed_setups(workload, setup_times)
        spent = perf_counter() - begin
        if len(pass_times) >= MIN_PASSES and spent + statistics.median(pass_times) > seconds:
            break
    return {"setup_s": setup_times, "wall_s": pass_times, "job_times": job_times}


def measure_traced(workload, seconds: float, ledger: Ledger, tracing) -> tuple[dict, list]:
    """Alternate untraced and traced passes; each traced pass sets up anew."""
    jobs = timed_setups(workload, [])
    plain, traced, tracers = [], [], []
    begin = perf_counter()
    while True:
        elapsed, outputs = run_pass(jobs)
        plain.append(elapsed)
        for job, output in zip(jobs, outputs):
            ledger.record(job, output)

        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.job = "setup"
            traced_jobs = workload.setup()
            elapsed, outputs = run_pass(traced_jobs, tracer)
        traced.append(elapsed)
        tracers.append(tracer)
        for job, output in zip(traced_jobs, outputs):
            ledger.record(job, output)

        spent = perf_counter() - begin
        pair = statistics.median(plain) + statistics.median(traced)
        if len(traced) >= MIN_TRACED_PASSES and spent + pair > seconds:
            break
    return {"wall_s": plain, "traced_wall_s": traced}, tracers


def write_trace(path: Path, details: dict, tracers, jobs_metrics: dict):
    spans = [
        [[s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans]
        for tracer in tracers
    ]
    doc = dict(details, span_fields=["name", "start", "end", "parent", "job"],
               passes=spans, per_job=jobs_metrics)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "invseries" / "__init__.py").is_file():
        print(f"error: no invseries sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    SCRATCH.mkdir(exist_ok=True)

    env = environment()
    workload = workloads.Workload(args.workload, args.seed, SCRATCH)
    ledger = Ledger()
    details = {"workload": args.workload, "seed": args.seed, "environment": env}

    if args.trace:
        samples, tracers = measure_traced(workload, args.seconds, ledger, tracing)
        metrics = tracing.median_metrics(tracers)
        # each traced pass against the untraced pass just before it, so
        # that a slow phase of the host cancels
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(samples["traced_wall_s"], samples["wall_s"])
        )
        units = {m: tracing.unit(m) for m in metrics}
    else:
        samples = measure(workload, args.seconds, ledger)
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "wall_s": statistics.median(samples["wall_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_digits.min": min(ledger.digits, default=0.0),
            "pass_ratio": 1 - len(ledger.failures) / ledger.attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "correct_digits.min": "digits", "pass_ratio": "1"}

    details["job_times"] = samples.pop("job_times", None)
    details["pass_times"] = samples["wall_s"]
    details["samples"] = {name: _quartiles(values) for name, values in samples.items()}
    details["fail_ratio"] = len(ledger.failures) / ledger.attempted
    details["failures"] = ledger.failures
    if args.trace:
        labels = sorted({s.job for t in tracers for s in t.spans if s.job})
        per_job = {label: tracing.median_metrics(tracers, label) for label in labels}
        trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        write_trace(trace_path, details, tracers, per_job)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
