"""Package-wide checks: no uncalled code in src, and no test-only import.

The scan reads every module of `src/cuspcorr` with `ast` and lists the
top-level functions and classes whose names no module of the package uses,
as a name or an attribute (an import alone, `__all__` and docstrings do not
count).  Each name on that list needs a reason in `_UNCALLED_ALLOWED`; a
new name fails the test until it gets a caller, a reason or is deleted.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "cuspcorr"

# Names the tracer hooks (perfbench/tracer.py) stay here until the package
# carries its own trace.
_UNCALLED_ALLOWED = {
    "arith.euler_phi": "public API; the tracer's Kloosterman unit count calls it",
    "arith.ramanujan_sum": "public API; the closed form the Kloosterman tests check against",
    "bessel.bessel_j": "public API: the one-value J-Bessel",
    "coeffs.eta_power_qexp_naive": "the naive eta product criterion 1 compares the fast build with",
    "coeffs.hecke_relation_report": "the Hecke-relation check of criterion 1",
    "qseries.mul_coeffs": "tracer-hooked; the weight-16 recurrence oracle multiplies with it",
    "report.read_report": "reads reports back for the round-trip tests",
    "spectral.petersson_geometric": "tracer-hooked; one Petersson value, checked against the table",
    "spectral.petersson_ratio_check": "tracer-hooked; the norm-free eigenvalue-recovery check",
    "windows.dot_decay_slope": "tracer-hooked; the decay of the holomorphic transform in k",
    "windows.extract_oscillatory_parts": "tracer-hooked; the two-term fit of w_star",
    "windows.maass_bessel_kernel": "tracer-hooked; the Maass-side kernel at one point",
}


def _uncalled() -> list[str]:
    defined, used = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(key for key, name in defined.items() if name not in used)


def test_uncalled_code_is_on_the_allow_list():
    assert _uncalled() == sorted(_UNCALLED_ALLOWED)


def test_cli_import_loads_no_test_only_package():
    probe = ("import sys, cuspcorr.cli; "
             "print(sorted({'scipy', 'mpmath', 'sympy', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(_SRC.parent)},
                         timeout=60)
    assert out.stdout.strip() == "[]"
