"""Record the reference outputs the benchmark checks against.

Run once on the commit whose outputs define "correct" (the seed commit of
the benchmark), from the repository root::

    python3 perfbench/make_reference.py

For every workload, at full and tiny sizes, one pass runs at seed 0 and each
output is stored in its normalized form (``check.normalize``) under
``perfbench/reference/``.  Seed-dependent values are recomputed by the
checker rather than read from here.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    work = run.ROOT / ".bench_work" / "reference"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = run.child_env(1)
    out_dir = work / "out"
    (run.HERE / "reference").mkdir(exist_ok=True)
    for tiny in (True, False):
        for workload in workloads.WORKLOADS:
            tasks = workloads.tasks_for(workload, 0, tiny)
            result = run.run_pass(tasks, out_dir, work, env)
            failed = [r["id"] for r in result["tasks"] if r["code"] != 0]
            if failed:
                print(f"error: {workload} tasks failed: {failed}", file=sys.stderr)
                return 1
            reference = {}
            for task in tasks:
                for suffix in check.outputs(task):
                    path = check.output_path(task, str(out_dir), suffix)
                    reference[task["id"] + suffix] = check.normalize(task, path)
            name = f"{workload}-tiny.json" if tiny else f"{workload}.json"
            text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
            (run.HERE / "reference" / name).write_text(text, encoding="utf-8")
            print(f"{name}: {len(reference)} outputs, {result['wall_s']:.1f} s")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
