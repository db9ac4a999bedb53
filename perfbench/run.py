"""frobpair benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 28 --trace 0

A closed loop with one client: each job starts after the previous one
returns, with no threads.  The workload's fixed job list (a pass, in which
a job may run more than once) is run a fixed number of times, set by
--seconds and the workload's nominal pass time, never by how fast the
passes turn out.  Passes after the first run the jobs in a seeded random
order.

Each job is timed in CPU seconds of this single-threaded process
(`time.process_time`), which for these CPU-bound in-process jobs is their
latency on an idle machine.  Other tenants of a shared machine also slow
the core itself, by up to 40%, so each job time is divided by the slowdown
that `speed.Sampler` measured around that job.  A job's latency is the
median of its scaled times over all its runs.  With --trace 0 the last stdout
line reports the end-to-end metrics; with --trace 1 it runs two untraced
passes and one traced pass and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 3  # fresh processes timed before each pass and after the last
SAMPLE_INTERVAL_S = 0.015  # between speed probes, in jobs and in set-up processes

# CPU seconds of one pass at the commit that defined the benchmark (2.0 GHz
# Xeon); a run makes max(2, round(--seconds / this)) passes
NOMINAL_PASS_S = {"algebra": 16.0, "cube-field": 9.0, "cube-integer": 6.5}

# A fresh interpreter up to the point where the first job could start.  It
# prints its CPU seconds less the time spent probing, and its speed samples,
# and leaves by os._exit so that interpreter shutdown is not timed.
SETUP_CODE = """
import json, os, sys
from time import perf_counter, process_time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
with speed.Sampler(float(sys.argv[3])) as sampler:
    import frobpair.cli
    from frobpair.theory import load_axioms
    load_axioms()
cpu = process_time() - sampler.spent
sys.stdout.write(json.dumps([cpu, sampler.slowdown()]) + "\\n")
sys.stdout.flush()
os._exit(0)
"""


def measure_setup(times):
    """Append (CPU seconds, slowdown) of fresh processes that load frobpair
    and its axiom manifest."""
    env = {k: v for k, v in os.environ.items() if k not in ("FROBPAIR_AXIOMS", "PYTHONPATH")}
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                               str(SAMPLE_INTERVAL_S)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=env, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
        times.append(tuple(json.loads(proc.stdout)))


def run_pass(jobs, order, results, failures, tracer=None, sampler=None):
    """Run the jobs in the given order, where a job may come more than once.
    Returns, by job, a (CPU seconds, start, end) triple for each run: the CPU
    time less the time `sampler` spent probing during it, and the
    `perf_counter` times the run started and ended."""
    runs = [[] for _ in jobs]
    probing = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    for k in order:
        job = jobs[k]
        start, t0, p0 = perf_counter(), process_time(), probing()
        try:
            result = tracer.run_job(k, job.run) if tracer else job.run()
        except Exception as exc:  # a job that raises is a failed job
            failures.append(f"{job.name}: raised {exc!r}")
        else:
            results[k].append(result)
        runs[k].append((process_time() - t0 - (probing() - p0), start, perf_counter()))
    return runs


def cpu_seconds(runs) -> float:
    return sum(cpu for job_runs in runs for cpu, _start, _end in job_runs)


def check_results(jobs, results, fingerprint):
    """Failure messages: a failed check, or a pass that disagrees with the first."""
    failures = []
    for job, outs in zip(jobs, results):
        for n, result in enumerate(outs):
            problem = job.check(result)
            if problem is None and n and fingerprint(result) != fingerprint(outs[0]):
                problem = "output differs from the first pass"
            if problem:
                failures.append(f"{job.name}: {problem}")
    return failures


def tail(latencies):
    """The highest order statistic with ten jobs beyond it."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        raise ValueError(f"a tail needs at least 11 jobs per pass, got {len(ordered)}")
    return ordered[-11]


def tail_percentile(n) -> float:
    """The percentile that `tail` reads from n jobs."""
    return 100.0 * (n - 10) / n


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def git_sha():
    """HEAD of the checkout, or None where the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "frobpair" / "__init__.py").is_file():
        print(f"error: no frobpair sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("FROBPAIR_AXIOMS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import jobs as jobs_mod  # noqa: E402  (needs the paths above)
    import speed  # noqa: E402

    if args.workload not in jobs_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(jobs_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = jobs_mod.WORKLOADS[args.workload](
            args.seed, ROOT, workdir, jobs_mod.load_expected())
        jobs = workload.jobs
        results = [[] for _ in jobs]
        failures = []
        if args.trace:
            import tracer as tracer_mod  # noqa: E402
            from selftest import calibrate  # noqa: E402
            order = range(len(jobs))
            for _ in range(2):  # cold, to fill caches; then warm, the overhead baseline
                untraced = cpu_seconds(run_pass(jobs, order, results, failures))
            tracer = tracer_mod.Tracer().install()
            try:
                _outputs, selftest = calibrate(tracer, jobs_mod.run_cli)
                calibration = tracer.counters()
                traced = cpu_seconds(run_pass(jobs, order, results, failures, tracer))
                counters = tracer.counters()
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
            passes = 2
            attempted = 3 * len(jobs)
        else:
            setup_times = []
            slowdowns = []
            raw = [[] for _ in jobs]
            scaled = [[] for _ in jobs]
            attempted = 0
            order = [k for k, job in enumerate(jobs) for _ in range(job.repeat)]
            shuffle = random.Random(args.seed).shuffle
            passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            for _ in range(passes):
                measure_setup(setup_times)
                with speed.Sampler(SAMPLE_INTERVAL_S) as sampler:
                    runs = run_pass(jobs, order, results, failures, sampler=sampler)
                for k, job_runs in enumerate(runs):
                    for cpu, start, end in job_runs:
                        raw[k].append(cpu)
                        scaled[k].append(cpu / sampler.slowdown(start, end))
                slowdowns.append(sampler.slowdown())
                attempted += len(order)
                shuffle(order)
            measure_setup(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += check_results(jobs, results, jobs_mod.fingerprint)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_lines": src_lines(), "passes": passes,
        "jobs_per_pass": len(jobs), "job_tail_percentile": round(tail_percentile(len(jobs)), 2),
        "failed_ratio": len(failures) / attempted, **workload.notes,
    }
    if args.trace:
        meta["tracer_selftest"] = selftest or "ok"
        figures, meta["idle_layers"] = pass_figures(calibration, counters,
                                                      tracer_mod.LAYER_NAMES)
        metrics = tracer_mod.layer_metrics(figures)
        metrics["trace.overhead_ratio"] = traced / untraced
        units = {name: _layer_unit(name) for name in metrics}
    else:
        per_job = [statistics.median(times) for times in scaled]
        meta["slowdown"] = {"passes": slowdowns,
                            "setup": statistics.median(f for _cpu, f in setup_times)}
        meta["raw_wall_s"] = sum(statistics.median(times) for times in raw)
        meta["raw_setup_s"] = statistics.median(cpu for cpu, _f in setup_times)
        metrics = {
            "wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail(per_job),
            "setup_s": statistics.median(cpu / f for cpu, f in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MiB"}
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def pass_figures(calibration, counters, layers):
    """(figures, idle layers): the traced pass's own counters, counters minus
    calibration.  A layer the pass never enters keeps the calibration jobs'
    figures, so that its self time is measured rather than a constant zero."""
    figures = {k: v - calibration[k] for k, v in counters.items()}
    idle = [layer for layer in layers if not figures[f"{layer}.calls"]]
    for layer in idle:
        for k in figures:
            if k.startswith(layer + "."):
                figures[k] = calibration[k]
    return figures, idle


def _layer_unit(name) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
