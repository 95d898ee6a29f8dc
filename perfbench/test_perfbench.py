"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, TruncationSweep  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_single_job(name, tmp_path):
    workload = WORKLOADS[name](seed=1, workdir=tmp_path, max_passes=1, pass_jobs=1)
    passes, _ = workload.make_passes()
    assert [len(jobs) for jobs in passes] == [1]
    result = worker.measure(workload, passes, seconds=0, trace=True, min_jobs=1)
    assert result["statuses"] == ["ok", "ok"]  # one untraced and one traced pass
    assert len(result["pass_s"]) == len(result["traced_pass_s"]) == 1
    assert set(result["per_layer"]) == {metric for metric, _ in PER_LAYER}
    assert result["per_layer"]["cli.self_s"] > 0

    # Span self-times add up to the job's root span.
    spans, own = result["spans"], result["self_times"]
    per_job = defaultdict(float)
    for span, s in zip(spans, own):
        per_job[span["job"]] += s
    roots = [s for s in spans if s["name"] == "job"]
    assert len(roots) == 1 and roots[0]["parent"] is None
    root = roots[0]
    assert per_job[root["job"]] == pytest.approx(root["end"] - root["start"], abs=1e-9)
    assert all(o >= -1e-9 for o in own)


def test_missing_input_counts_as_failed_job(tmp_path):
    workload = TruncationSweep(seed=1, workdir=tmp_path, max_passes=1, pass_jobs=2)
    passes, _ = workload.make_passes()
    for path in tmp_path.glob("lang*.json"):
        path.unlink()
    result = worker.measure(workload, passes, seconds=0, trace=False, min_jobs=1)
    assert result["statuses"] == ["exit 3", "exit 3"]
    end_to_end, attempted, failed, reasons = run.summarize(dict(result, setup_s=1.0,
                                                                peak_rss_mb=1.0), [])
    assert (attempted, failed, reasons) == (2, 2, {"exit 3": 2})
    assert end_to_end["ok_ratio"] == 0.0


def test_oversized_allocation_is_a_failed_job():
    # np.empty never touches its pages, so even without the cap this stays small.
    code = ("import numpy as np, worker; from workloads import Job; worker.cap_address_space(); "
            "print(worker.run_job(lambda argv: np.empty((40000, 40000)), Job([[]], None))[1])")
    done = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.strip() == "exception MemoryError", done.stderr


def test_truncation_check_rejects_infinite_kl(tmp_path):
    workload = TruncationSweep(seed=1, workdir=tmp_path, max_passes=1, pass_jobs=1)
    passes, _ = workload.make_passes()
    out = passes[0][0].out
    out.mkdir()
    (out / "truncation_provenance.json").write_text(json.dumps({"kl_divergence": None}))
    assert worker.check_job(passes[0][0]) == "check: kl_divergence is not finite"


def test_tail_latency_leaves_ten_jobs_beyond():
    assert run.tail_latency([float(i) for i in range(11)]) == (0.0, 100 / 11, 11)
    value, percentile, n = run.tail_latency([float(i) for i in range(40)])
    assert (value, percentile, n) == (29.0, 75.0, 40)
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0, 2)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled_bounds", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 11 and last["failed"] == 0
    assert list(last["metrics"]) == [n for n, _ in run.END_TO_END]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled_bounds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
