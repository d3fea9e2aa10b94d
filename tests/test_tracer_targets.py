"""Every name that the benchmark's tracer hooks must exist in the package.

`perfbench/tracer.py` wraps each `(module, attribute)` of its `_TARGETS`
with `getattr(module, attribute)` and no default, so deleting or renaming
one of them breaks every traced benchmark run.  This test catches that in
the ordinary suite.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_targets_resolve():
    missing = [f"{mod_name}.{attr}" for mod_name, attr, _ in _load_tracer()._TARGETS
               if not callable(getattr(importlib.import_module(mod_name), attr, None))]
    assert not missing, f"the tracer hooks names the package no longer has: {missing}"


def test_other_names_the_tracer_uses():
    from cuspcorr import arith, quadrature, util
    from cuspcorr.bessel import BesselKernel

    assert callable(BesselKernel.grid)
    fields = {f.name for f in dataclasses.fields(BesselKernel)}
    assert {"series_cutoff", "hankel_cutoff"} <= fields  # read by the grid counter
    assert callable(quadrature.gl_nodes_weights)
    assert callable(util.worker_count)
    assert callable(arith.euler_phi)
