"""One workload in one child process: set up, run the job list, report.

Started by ``run.py``; not meant to be run by hand. The child caps its own
address space first, so an oversized dense allocation raises ``MemoryError``
inside a job (a failed job) instead of exhausting the machine. It writes one
JSON result file and exits 0, also when jobs fail.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --mode setup|measure --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE_BYTES = 2 << 30  # ~5x the peak virtual size of a corpus_spectrum child
HARD_STOP_S = 120  # keeps a much slower program inside the 180 s a run may take


def cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_job(main, job, tracer=None) -> tuple[float, str]:
    """Run one job's CLI calls in order; return (latency, status)."""
    status = "ok"
    root = tracer.start_job() if tracer is not None else None
    start = time.perf_counter()
    try:
        for argv in job.argvs:
            try:
                code = main(argv)
            except Exception as exc:  # a job that raises is a failed job
                status = f"exception {type(exc).__name__}"
                break
            if code != 0:
                status = f"exit {code}"
                break
    finally:
        latency = time.perf_counter() - start
        if root is not None:
            tracer.end_job(root)
    return latency, status


def check_job(job) -> str:
    try:
        reason = job.check()
    except Exception as exc:  # unreadable or malformed artifact
        reason = f"check raised {type(exc).__name__}: {exc}"
    return "ok" if reason is None else f"check: {reason}"


def run_pass(jobs, tracer=None) -> tuple[float, list[float], list[str]]:
    """One pass over a job list; then check each job's artifacts."""
    import seqmodes.cli as cli

    def main(argv):
        return cli.main(argv)  # looked up per call, so a traced pass sees the wrapper

    start = time.perf_counter()
    outcomes = [run_job(main, job, tracer) for job in jobs]
    pass_s = time.perf_counter() - start
    statuses = [status if status != "ok" else check_job(job)
                for job, (_, status) in zip(jobs, outcomes)]
    return pass_s, [latency for latency, _ in outcomes], statuses


def measure(workload, passes, seconds: float, trace: bool, min_jobs: int) -> dict:
    """Closed loop, one job at a time: passes on fresh inputs for about ``seconds``.

    Stops once at least ``min_jobs`` jobs ran untraced and another pass would
    overrun. With tracing, each pass runs untraced and then traced on the
    same inputs, so the difference is the tracing overhead.
    """
    from tracing import Tracer, instrument, per_layer_metrics

    tracer = Tracer() if trace else None
    untraced, traced, latencies, statuses, checked = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        jobs = passes[index % len(passes)]
        index += 1
        pass_s, pass_latencies, pass_statuses = run_pass(jobs)
        untraced.append(pass_s)
        latencies.extend(pass_latencies)
        statuses.extend(pass_statuses)
        checked.extend(zip(jobs, [s == "ok" for s in pass_statuses]))
        if trace:
            instrument(tracer)
            try:
                traced_s, _, traced_statuses = run_pass(jobs, tracer)
            finally:
                tracer.restore()
            traced.append(traced_s)
            statuses.extend(traced_statuses)
            pass_s += traced_s
        elapsed = time.perf_counter() - start
        if (len(latencies) >= min_jobs and elapsed + pass_s > seconds) \
                or elapsed > HARD_STOP_S:
            break
    run_ok, run_detail = workload.run_check([job for job, _ in checked],
                                            [ok for _, ok in checked])
    result = {
        "pass_s": untraced,
        "traced_pass_s": traced,
        "latencies": latencies,
        "statuses": statuses,
        "run_check_ok": run_ok,
        "run_check": run_detail,
    }
    if trace:
        result["per_layer"] = per_layer_metrics(
            tracer, len(traced), statistics.median(traced), statistics.median(untraced))
        result["spans"] = tracer.to_json()
        result["self_times"] = tracer.self_times().tolist()
    return result


def provenance(seed: int) -> dict:
    import hashlib
    import os
    import platform
    import subprocess

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    cap_address_space()

    # Set-up: input generation, input files, importing seqmodes, one warm-up job.
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import seqmodes.cli as cli

    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    passes, warmup = workload.make_passes()
    run_job(cli.main, warmup)
    result = {"setup_s": time.perf_counter() - start}
    if args.mode == "measure":
        result.update(measure(workload, passes, args.seconds, bool(args.trace),
                              workload.min_jobs))
        result["provenance"] = provenance(args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
