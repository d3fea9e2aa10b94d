"""Output checks against the seed reference, and the worst checked error.

Each task's output is parsed into a plain structure (``normalize``) and
compared with the stored reference (``reference/<workload>[-tiny].json``):

* exact outputs (integers, strings, the ``a(n)`` column by SHA-256) must be
  identical;
* error-like floats (``relative_error``, ``r2`` ...) may not exceed ten times
  the worst reference value of that field in the task, the ROADMAP accuracy
  floor;
* other floats must agree to the task kind's tolerance, set from the
  accuracy the computation promises (quadrature tolerance, Voronoi floor).

The ``pair`` value depends on the workload seed, so it is recomputed here
from the emitted weight-12 coefficients instead of being stored.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

ERROR_FIELDS = {"relative_error", "rel_error", "abs_error", "tail_margin", "r1", "r2",
                "fit_residual_rms", "scale_ratio"}

# (relative, absolute) tolerance for non-error floats, by task kind.
TOLERANCE = {
    "voronoi": (4.1e-7, 1e-9),     # 10x the seed's worst Voronoi relative error
    "transform": (1e-9, 1e-9),     # 10x the quadrature tolerance 1e-10
    "petersson": (1e-9, 1e-11),
    "kloosterman": (1e-9, 1e-9),
}
DEFAULT_TOLERANCE = (1e-8, 1e-12)


def kind_of(task: dict) -> str:
    argv = task["argv"]
    return argv[2] if argv[0] == "correlate" else argv[0]


def _number(cell: str):
    """A CSV cell as int, float, None (empty) or the string itself."""
    if cell == "":
        return None
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def coeffs_table(path: str) -> tuple[list[int], np.ndarray]:
    """Exact a(n) and emitted lambda(n), indexed from n = 1 (entry 0 unused)."""
    header, rows = read_csv(path)
    if header != ["n", "a(n)", "lambda(n)"]:
        raise ValueError(f"unexpected coefficient header {header}")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("coefficient rows are not n = 1..N in order")
    a = [0] + [int(r[1]) for r in rows]
    lam = np.array([0.0] + [float(r[2]) for r in rows])
    return a, lam


def normalize(task: dict, path: str) -> dict:
    """The task's output as a JSON-able structure for comparison."""
    kind = kind_of(task)
    if kind == "coeffs":
        weight = int(task["argv"][task["argv"].index("--weight") + 1])
        a, lam = coeffs_table(path)
        n = np.arange(len(a), dtype=np.float64)
        n[0] = 1.0
        expect = np.array([float(x) for x in a]) / n ** ((weight - 1) / 2.0)
        lam_dev = float(np.max(np.abs(lam - expect) / np.maximum(np.abs(expect), 1e-300)))
        digest = hashlib.sha256("\n".join(map(str, a[1:])).encode()).hexdigest()
        return {"rows": len(a) - 1, "a_sha256": digest, "lambda_matches_a": lam_dev <= 1e-14}
    if (kind == "voronoi" or task["argv"][0] == "correlate") and path.endswith(".out"):
        with open(path, encoding="ascii") as fh:
            return json.load(fh)
    header, rows = read_csv(path)
    return {"header": header, "rows": [[_number(c) for c in r] for r in rows]}


def _error_limits(ref, key=None, limits=None) -> dict:
    """Worst reference value of each error-like field (by name or CSV column)."""
    limits = {} if limits is None else limits
    if isinstance(ref, dict):
        if "header" in ref and "rows" in ref:
            for j, col in enumerate(ref["header"]):
                if col in ERROR_FIELDS:
                    vals = [r[j] for r in ref["rows"] if isinstance(r[j], (int, float))]
                    if vals:
                        limits[col] = max(limits.get(col, 0.0), max(abs(v) for v in vals))
            return limits
        for k, v in ref.items():
            _error_limits(v, k, limits)
    elif isinstance(ref, list):
        for v in ref:
            _error_limits(v, key, limits)
    elif key in ERROR_FIELDS and isinstance(ref, (int, float)):
        limits[key] = max(limits.get(key, 0.0), abs(ref))
    return limits


def compare(out, ref, tol, limits, key=None, where="") -> list[str]:
    """Differences between an output and its reference, as messages."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{where}: keys differ"]
        if "header" in ref and "rows" in ref and isinstance(ref["rows"], list):
            if out["header"] != ref["header"] or len(out["rows"]) != len(ref["rows"]):
                return [f"{where}: header or row count differs"]
            problems = []
            for i, (orow, rrow) in enumerate(zip(out["rows"], ref["rows"])):
                for col, o, r in zip(ref["header"], orow, rrow):
                    problems += compare(o, r, tol, limits, col, f"{where}[{i}].{col}")
            return problems
        problems = []
        for k in ref:
            problems += compare(out[k], ref[k], tol, limits, k, f"{where}.{k}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{where}: length differs"]
        problems = []
        for i, (o, r) in enumerate(zip(out, ref)):
            problems += compare(o, r, tol, limits, key, f"{where}[{i}]")
        return problems
    if isinstance(ref, float) or (isinstance(ref, int) and isinstance(out, float)):
        if not isinstance(out, (int, float)) or isinstance(out, bool) or not math.isfinite(out):
            return [f"{where}: {out!r} is not a finite number"]
        if key in ERROR_FIELDS:
            limit = 10.0 * max(limits.get(key, 0.0), 1e-15)
            return [] if abs(out) <= limit else [f"{where}: error {out:.3e} above {limit:.3e}"]
        rtol, atol = tol
        if abs(out - ref) <= rtol * abs(ref) + atol:
            return []
        return [f"{where}: {out!r} differs from reference {ref!r}"]
    return [] if out == ref and type(out) is type(ref) else [f"{where}: {out!r} != {ref!r}"]


def _bump(x: np.ndarray) -> np.ndarray:
    u = (x - 1.0) * (2.0 - x)
    out = np.zeros_like(x)
    inside = u > 1.0 / 700.0
    out[inside] = np.exp(-1.0 / u[inside])
    return out


def pair_value(lam: np.ndarray, X: int, H: float, seed: int) -> float:
    """Independent recomputation of the rademacher pair correlation."""
    hs = np.arange(max(1, math.ceil(H)), math.floor(2 * H) + 1)
    rng = np.random.default_rng(np.uint64(seed))
    a = rng.integers(0, 2, size=X + 1).astype(np.float64) * 2.0 - 1.0
    n = np.arange(X, 2 * X + 1)
    per_h = np.array([np.dot(a, lam[n + h] * lam[n - h]) for h in hs])
    return float(np.sum(per_h * _bump(hs / H)))


def _seed_free(doc: dict, seed: int) -> tuple[dict, list[str]]:
    """The report without the echoed seed, plus a problem if the echo is not `seed`."""
    problems = []
    doc = json.loads(json.dumps(doc))
    for section in ("config", "provenance"):
        if "seed" in doc.get(section, {}) and doc[section].pop("seed") != seed:
            problems.append(f"{section}.seed is not the seed of the config")
    return doc, problems


def check_task(task: dict, path: str, ref, context: dict) -> list[str]:
    """Problems with one task's output; an empty list means it passed."""
    kind = kind_of(task)
    try:
        out = normalize(task, path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if task["argv"][0] == "correlate" and path.endswith(".out"):
        out, problems = _seed_free(out, task["config"].get("seed", 0))
        ref, _ = _seed_free(ref, 0)
    if kind == "pair" and task["config"].get("seq") == "rademacher" and path.endswith(".out"):
        lam = context.get("lambda12")
        cfg = task["config"]
        if lam is None or len(lam) <= 2 * cfg["X"] + 2 * cfg["H"]:
            return problems + ["no weight-12 table to recompute the pair value from"]
        want = pair_value(lam, cfg["X"], cfg["H"], cfg["seed"])
        res = out["results"]
        if abs(res["value"] - want) > 1e-9 * abs(want) + 1e-9:
            problems.append(f"pair value {res['value']!r} != recomputed {want!r}")
        if abs(res["bound_ratio"] - abs(res["value"]) / res["bound"]) > 1e-12 * res["bound_ratio"]:
            problems.append("pair bound_ratio inconsistent with value / bound")
        for doc in (out, ref):
            doc["results"].pop("value")
            doc["results"].pop("bound_ratio")
    return problems + compare(out, ref, TOLERANCE.get(kind, DEFAULT_TOLERANCE),
                              _error_limits(ref), where=task["id"])


def hecke_residual(lam: np.ndarray, M: int) -> float:
    """max |lambda(m) lambda(n) - sum_{d | (m,n)} lambda(mn/d^2)| over m, n <= M."""
    worst = 0.0
    for m in range(1, M + 1):
        for n in range(m, M + 1):
            g = math.gcd(m, n)
            rhs = sum(lam[m * n // (d * d)] for d in range(1, g + 1) if g % d == 0)
            worst = max(worst, abs(lam[m] * lam[n] - rhs))
    return worst


def worst_error(workload: str, tasks: list[dict], out_dir: str) -> float:
    """The workload's largest checked error (see the README of the benchmark)."""
    worst = 0.0
    for task in tasks:
        path = output_path(task, out_dir)
        kind = kind_of(task)
        if workload == "expansion" and kind == "coeffs":
            _, lam = coeffs_table(path)
            worst = max(worst, hecke_residual(lam, min(200, math.isqrt(len(lam) - 1))))
        elif workload == "spectral" and kind == "petersson":
            header, rows = read_csv(path)
            weight = int(task["argv"][task["argv"].index("--weight") + 1])
            col = "r2" if weight in (12, 16) else "P"
            j = header.index(col)
            worst = max([worst] + [abs(float(r[j])) for r in rows if r[j] != ""])
        elif workload == "duality" and kind == "voronoi":
            worst = max(worst, normalize(task, path)["results"]["relative_error"])
        elif workload == "circle" and kind == "pipeline":
            worst = max(worst, normalize(task, path)["results"]["rel_error"])
    return worst


def output_path(task: dict, out_dir: str, suffix: str = ".out") -> str:
    return os.path.join(out_dir, task["id"] + suffix)


def outputs(task: dict) -> list[str]:
    """File suffixes the task writes; the reference key is id + suffix."""
    return [".out", ".csv"] if task["csv"] else [".out"]


def check_pass(workload: str, tasks: list[dict], records: list[dict], out_dir: str,
               reference: dict) -> tuple[dict[str, list[str]], float | None]:
    """Per-task problems of one pass and its worst error (None if unreadable)."""
    context = {}
    for task in tasks:
        if task["id"].startswith("coeffs-w12-"):
            try:
                context["lambda12"] = coeffs_table(output_path(task, out_dir))[1]
            except (OSError, ValueError):
                pass
    problems: dict[str, list[str]] = {}
    by_id = {r["id"]: r for r in records}
    for task in tasks:
        rec = by_id.get(task["id"])
        if rec is None or rec["code"] != 0:
            problems[task["id"]] = [f"exit code {None if rec is None else rec['code']}"]
            continue
        found = []
        for suffix in outputs(task):
            ref = reference.get(task["id"] + suffix)
            if ref is None:
                found.append(f"no reference for {suffix}")
            else:
                found += check_task(task, output_path(task, out_dir, suffix), ref, context)
        if found:
            problems[task["id"]] = found
    try:
        worst = worst_error(workload, tasks, out_dir)
    except (OSError, ValueError, KeyError, IndexError):
        worst = None
    return problems, worst
