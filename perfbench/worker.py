"""The measured process: one fresh interpreter runs one pass of a workload.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py SPEC.json

SPEC holds ``tasks`` (see ``workloads.py``), ``out_dir``, ``result`` and
``trace`` (a JSON-lines path, or null), or just ``setup_only`` and
``result``.  The worker imports ``cuspcorr.cli`` first and reports the ``time.perf_counter()``
reading at that moment, so the parent can time set-up from its own launch
(the clock is system-wide monotonic on Linux).  It then calls
``cuspcorr.cli.main`` for each task in order, in this one process, so the
tasks share the process's caches, and writes a JSON result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import cuspcorr.cli as cli  # noqa: E402  (set-up ends here)

T_READY = time.perf_counter()


def _argv(task: dict, out_dir: str) -> list[str]:
    paths = {
        "out": os.path.join(out_dir, task["id"] + ".out"),
        "config": os.path.join(out_dir, task["id"] + ".config.json"),
        "csv": os.path.join(out_dir, task["id"] + ".csv"),
    }
    return [a.format(**paths) if a.startswith("{") else a for a in task["argv"]]


def run_pass(spec: dict) -> dict:
    tasks = spec["tasks"]
    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    argvs = []
    for task in tasks:
        argv = _argv(task, out_dir)
        if task["config"] is not None:
            with open(argv[argv.index("--config") + 1], "w", encoding="utf-8") as fh:
                json.dump(task["config"], fh)
        argvs.append(argv)

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    t0 = time.perf_counter()
    for task, argv in zip(tasks, argvs):
        if tracer is not None:
            tracer.task = task["id"]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None
        except Exception:  # an uncaught error is a failed task, not a crashed run
            code = -1
            error = traceback.format_exc(limit=4)
        records.append({"id": task["id"], "code": code, "s": time.perf_counter() - start,
                        "error": error})
    wall = time.perf_counter() - t0

    result = {
        "t_ready": T_READY,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write_spans(spec["trace"])
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("setup_only"):
        result = {"t_ready": T_READY}
    else:
        result = run_pass(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
