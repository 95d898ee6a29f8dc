"""Benchmark of the seqmodes CLI pipeline: corpus → modes → truncation → SGLD.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each exists): corpus_spectrum,
truncation_sweep, llc_chains, coupled_bounds. Each run starts one child
process for the workload (``worker.py``) with BLAS pinned to one thread and
its address space capped; jobs run closed-loop, one at a time, by calling
``seqmodes.cli.main(argv)`` in-process on inputs generated from ``--seed``.

``--trace 0`` prints the end-to-end metrics. Set-up time is the median of
three set-ups (two set-up-only children plus the measuring child).
``--trace 1`` runs every pass untraced and then traced on the same inputs and
prints the per-layer metrics, including self time per layer and the tracing
overhead (median traced minus median untraced pass time).

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The full result,
with provenance and every span, is written to ``perfbench/results/``.
Exit code 2 without a result when the seqmodes sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
BLAS_THREADS = "1"  # at most nproc; one thread gives the steadiest timings on a shared host
CHILD_TIMEOUT_S = 170
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"), ("ok_ratio", "1"),
)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least 10 jobs beyond it.

    Returns (value, percentile, job count). Below 11 jobs no such percentile
    exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    rank = n - 10  # 1-based; exactly ten jobs rank above it
    return ordered[rank - 1], 100.0 * rank / n, n


def summarize(child: dict, setups: list[float]) -> tuple[dict, int, int, dict]:
    """End-to-end metrics, attempted and failed job counts, and failure reasons."""
    statuses = child["statuses"]
    attempted = len(statuses)
    failed = sum(status != "ok" for status in statuses)
    reasons: dict[str, int] = {}
    for status in statuses:
        if status != "ok":
            reasons[status] = reasons.get(status, 0) + 1
    end_to_end = {
        "setup_s": statistics.median(setups + [child["setup_s"]]),
        "wall_s": statistics.median(child["pass_s"]),
        "job_p50_s": statistics.median(child["latencies"]),
        "job_tail_s": tail_latency(child["latencies"])[0],
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    return end_to_end, attempted, failed, reasons


def run_child(args, mode: str, workdir: Path) -> dict:
    result = workdir / f"result-{mode}.json"
    log = workdir / f"log-{mode}.txt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode,
               "--workdir", str(workdir / "data"), "--result", str(result)]
    with log.open("w") as out:
        done = subprocess.run(command, stdout=out, stderr=subprocess.STDOUT, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0 or not result.exists():
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"{mode} child exited with code {done.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seqmodes" / "cli.py").is_file():
        print(f"seqmodes sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = HERE / "work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, "setup", workdir)["setup_s"])
                shutil.rmtree(workdir / "data")
        child = run_child(args, "measure", workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end, attempted, failed, reasons = summarize(child, setups)
    _, percentile, jobs = tail_latency(child["latencies"])
    if args.trace:
        metrics = {name: {"value": child["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print("provenance " + json.dumps(child["provenance"], sort_keys=True))
    print(f"passes: {len(child['pass_s'])} untraced, {len(child['traced_pass_s'])} traced; "
          f"job_tail_s is p{percentile:.1f} of {jobs} jobs; "
          f"setup samples {setups + [child['setup_s']]}")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs) {reasons}")
    print(f"run check {'ok' if child['run_check_ok'] else 'FAILED'}: {child['run_check']}")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {end_to_end[name]:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {child['per_layer'][name]:.6g} {unit}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = dict(child, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  setup_samples=setups + [child["setup_s"]], end_to_end=end_to_end,
                  tail_percentile=percentile, tail_jobs=jobs, failure_reasons=reasons)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"correct": bool(child["run_check_ok"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
