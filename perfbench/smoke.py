"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root (about a minute)::

    python3 perfbench/smoke.py

It checks that, for every workload, ``run.py --tiny`` emits every end-to-end
and per-layer metric named in ``BENCHMARK.json`` with its unit and fails no
task; that the failure gate is not vacuous (a corrupted reference and a
task that exits 1 are both counted as failed); and that the command fails,
printing no result, when the program's sources are absent.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import check
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, section, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (workload, name, m)
        print(f"ok {workload} --trace {trace}: {len(got)} metrics, "
              f"{result['attempted']} tasks, 0 failed")


def check_gate_counts_failures() -> None:
    workload = "expansion"
    tasks = workloads.tasks_for(workload, 7, tiny=True)
    work = run.ROOT / ".bench_work" / "smoke"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out_dir = work / "out"
    reference = run.load_reference(workload, tiny=True)

    failing = {"id": "coeffs-upto-0", "argv": ["coeffs", "--weight", "12", "--upto", "0",
                                               "--out", "{out}"], "config": None, "csv": False}
    result = run.run_pass(tasks + [failing], out_dir, work, run.child_env(1))
    codes = {r["id"]: r["code"] for r in result["tasks"]}
    assert codes["coeffs-upto-0"] == 1, codes
    problems, _ = check.check_pass(workload, tasks + [failing], result["tasks"], str(out_dir),
                                   reference)
    assert set(problems) == {"coeffs-upto-0"}, problems

    corrupt = copy.deepcopy(reference)
    corrupt["coeffs-w16-2000.out"]["a_sha256"] = "0" * 64
    corrupt["gamma-star-400-300.out"]["results"]["norm_sq"] *= 1.0 + 1e-6
    problems, _ = check.check_pass(workload, tasks, result["tasks"], str(out_dir), corrupt)
    assert set(problems) == {"coeffs-w16-2000", "gamma-star-400-300"}, problems
    shutil.rmtree(work)
    print("ok failure gate: an exit-1 task and two corrupted references are counted")


def check_fails_without_sources() -> None:
    bare = run.ROOT / ".bench_work" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "circle", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print("ok without sources: exit code", proc.returncode, "and no result")


def main() -> int:
    for workload in workloads.WORKLOADS:
        check_metrics(workload)
    check_gate_counts_failures()
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
