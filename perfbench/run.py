"""cuspcorr benchmark: one command, four CLI workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload expansion --seed 1 --seconds 10 --trace 0

Each pass runs the workload's task list (``workloads.py``) in one fresh
interpreter (``worker.py``), a closed loop with one client and one task at a
time.  Passes repeat until their wall times add up to ``--seconds`` (at
least one pass), and every pass's outputs are checked against the seed
reference (``check.py``).

``--trace 0`` prints the end-to-end metrics: median ``wall_s``, median
``setup_s`` over several import-only launches, median ``peak_rss_mb`` and the
largest ``worst_error``.  Failed tasks are counted in ``attempted`` /
``failed`` of the last line (``failed_frac`` on the summary line).
``--trace 1`` adds one traced pass (``tracer.py``) and prints the per-layer
metrics instead; its outputs must be byte-identical to the untraced pass's.

The measured process gets ``CCL_THREADS`` (``--threads``, default
``min(2, nproc)``) and one BLAS thread, set here rather than inherited.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_LAUNCHES = 9
PASS_TIMEOUT_S = 120  # a run must end within 180 s


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CCL_THREADS"] = str(threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(spec: dict, work: Path, env: dict) -> tuple[float, dict]:
    """Run the worker on `spec`; returns (launch time, its result)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t_launch = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return t_launch, json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def setup_times(work: Path, env: dict, launches: int) -> list[float]:
    spec = {"setup_only": True, "result": str(work / "setup.json")}
    launch(spec, work, env)  # first launch may compile bytecode; not timed
    times = []
    for _ in range(launches):
        t_launch, result = launch(spec, work, env)
        times.append(result["t_ready"] - t_launch)
    return times


def run_pass(tasks: list[dict], out_dir: Path, work: Path, env: dict,
             trace: Path | None = None) -> dict:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    spec = {"tasks": tasks, "out_dir": str(out_dir), "result": str(work / "pass.json"),
            "trace": None if trace is None else str(trace)}
    return launch(spec, work, env)[1]


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if not p.name.endswith(".config.json")}


def load_reference(workload: str, tiny: bool) -> dict:
    name = f"{workload}-tiny.json" if tiny else f"{workload}.json"
    return json.loads((HERE / "reference" / name).read_text(encoding="utf-8"))


def fingerprint(threads: int) -> dict:
    """What the result depends on besides the code: interpreter, BLAS, cores."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    commit = None
    try:  # only this checkout's own repository counts, not an enclosing one
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "commit": commit,
        "nproc": os.cpu_count(), "CCL_THREADS": threads, "blas_threads": 1,
        "gmpy2": has_gmpy2,
        "exact_product_backend": "gmpy2" if has_gmpy2 else "CPython int (Karatsuba)",
    }


def evaluate(workload: str, tasks: list[dict], result: dict, out_dir: Path,
             reference: dict) -> tuple[int, float | None]:
    """Failed task count and worst error of one pass; problems go to stderr."""
    problems, worst = check.check_pass(workload, tasks, result["tasks"], str(out_dir), reference)
    for tid, found in problems.items():
        print(f"FAILED {tid}: {'; '.join(found[:3])}", file=sys.stderr)
    for rec in result["tasks"]:
        if rec.get("error"):
            print(rec["error"], file=sys.stderr)
    return len(problems), worst


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10  # the rank-th smallest sample has ten samples beyond it
    return {"percentile": 100.0 * rank / n, "value": sorted(samples)[rank - 1], "samples": n}


def measure(args) -> tuple[dict, int, int, dict]:
    tasks = workloads.tasks_for(args.workload, args.seed, args.tiny)
    reference = load_reference(args.workload, args.tiny)
    work = ROOT / ".bench_work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = child_env(args.threads)
    out_dir = work / "out"

    attempted = failed = 0
    walls, rss, worsts = [], [], []
    setup = [] if args.trace else setup_times(work, env, SETUP_LAUNCHES)
    while sum(walls) < args.seconds or not walls:
        result = run_pass(tasks, out_dir, work, env)
        n_failed, worst = evaluate(args.workload, tasks, result, out_dir, reference)
        attempted += len(tasks)
        failed += n_failed
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        worsts.append(worst)
    details = {"passes": len(walls), "wall_s_samples": walls,
               "wall_s_tail": tail_percentile(walls),
               "setup_s_samples": setup, "tasks_per_pass": len(tasks)}

    if args.trace:
        plain = digests(out_dir)
        traced = run_pass(tasks, out_dir, work, env, trace=work / "trace.jsonl")
        n_failed, _ = evaluate(args.workload, tasks, traced, out_dir, reference)
        attempted += len(tasks)
        failed += n_failed
        identical = digests(out_dir) == plain
        if not identical:
            print("FAILED traced outputs differ from the untraced pass", file=sys.stderr)
            failed += 1
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        layers["trace.unattributed_s"] = traced["wall_s"] - layers.pop("in_layers_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        details.update({"traced_wall_s": traced["wall_s"], "traced_outputs_identical": identical,
                        "spans": str(work / "trace.jsonl")})
    else:
        worst = None if None in worsts else max(worsts)
        if worst is None:
            failed = max(failed, 1)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
            "worst_error": {"value": 1.0 if worst is None else worst, "unit": "1"},
        }
    details["failed_frac"] = failed / attempted
    return metrics, attempted, failed, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=min(2, os.cpu_count() or 1),
                        help="CCL_THREADS of the measured process (1 for the serial baseline)")
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cuspcorr" / "cli.py").is_file():
        print("error: no cuspcorr sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        parser.error("--threads must be between 1 and nproc")

    metrics, attempted, failed, details = measure(args)
    details["environment"] = fingerprint(args.threads)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} wall_s is the median of {details['passes']} passes; "
              f"tail percentile: {details['wall_s_tail'] or 'none with ten samples beyond it'}")
    print(f"{args.workload} failed_frac = {details['failed_frac']:.6g} "
          f"({failed} of {attempted} tasks)")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
