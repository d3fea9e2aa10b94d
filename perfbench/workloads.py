"""The benchmark's workloads: fixed lists of ``cuspcorr`` CLI tasks.

A task is a dict with an ``id`` (unique within the workload), the CLI
``argv`` with ``{out}`` / ``{config}`` / ``{csv}`` placeholders, and, for
``correlate`` tasks, the JSON ``config`` the worker writes before the call.
The workload seed only sets the ``seed`` field of the ``correlate`` configs
that accept one; every other input is fixed.

``tiny=True`` gives the same task lists at small sizes, for the smoke test.
"""

from __future__ import annotations

WORKLOADS = ("expansion", "spectral", "duality", "circle")


def _task(tid: str, argv: list[str], config: dict | None = None, csv: bool = False) -> dict:
    return {"id": tid, "argv": argv, "config": config, "csv": csv}


def _coeffs(weight: int, upto: int) -> dict:
    return _task(f"coeffs-w{weight}-{upto}",
                 ["coeffs", "--weight", str(weight), "--upto", str(upto), "--out", "{out}"])


def _correlate(tid: str, kind: str, config: dict, csv: bool = False) -> dict:
    argv = ["correlate", "--kind", kind, "--config", "{config}", "--out", "{out}"]
    if csv:
        argv += ["--csv", "{csv}"]
    return _task(tid, argv, config, csv)


def expansion(seed: int, tiny: bool = False) -> list[dict]:
    # One large exact-product build per weight, then correlation sums that
    # only read the cached tables.
    upto, X, H, x, M1, M2 = (25_000, 10_000, 1000, 16_384, 6_000, 4_000)
    xs = [1250, 2500, 5000, 10_000]
    if tiny:
        upto, X, H, x, M1, M2 = (2_000, 600, 40, 1_024, 400, 300)
        xs = [100, 200, 400, 800]
    return [
        _coeffs(12, upto),
        _coeffs(16, upto),
        _correlate(f"pair-{X}", "pair", {"X": X, "H": H, "seq": "rademacher", "seed": seed}),
        _correlate(f"triple-{X}", "triple", {"X": X, "H": H, "weights": [12, 16, 12],
                                            "seq": "lambda3", "seed": seed}),
        _correlate(f"wilton-{x}", "wilton", {"weight": 16, "x": x}),
        _correlate(f"gamma-star-{M1}-{M2}", "gamma-star",
                   {"weights": [12, 16], "M1": M1, "M2": M2, "z": 0.5}),
        _correlate(f"scaling-{xs[-1]}", "scaling", {"X_list": xs, "theta": 0.75, "seed": seed},
                   csv=True),
    ]


def spectral(seed: int, tiny: bool = False) -> list[dict]:
    # Kloosterman sums and large Bessel batches; tables only reach n = mmax.
    mmax, cmax, kmax, M, trials, kcmax = (10, 1000, 18, 12, 20, 1000)
    if tiny:
        mmax, cmax, kmax, M, trials, kcmax = (4, 60, 18, 4, 2, 100)
    tasks = [_task(f"petersson-w{k}-{mmax}-{cmax}",
                   ["petersson", "--weight", str(k), "--mmax", str(mmax),
                    "--cmax", str(cmax), "--out", "{out}"])
             for k in (12, 16, 14)]
    tasks.append(_task(f"sieve-{M}-{trials}-{cmax}",
                       ["sieve", "--kmax", str(kmax), "--M", str(M), "--trials", str(trials),
                        "--cmax", str(cmax), "--out", "{out}"]))
    tasks.append(_task(f"kloosterman-{kcmax}",
                       ["kloosterman", "--a", "1", "--b", "1", "--cmax", str(kcmax),
                        "--out", "{out}"]))
    return tasks


def duality(seed: int, tiny: bool = False) -> list[dict]:
    # Quadrature, windows and the Voronoi dual side; many small Bessel grids.
    Ns = (200, 800)
    bcs = ((1, 1), (1, 2), (1, 3), (2, 5))
    grids = ("4:200:200", "2:200:100", "0:10:10")
    if tiny:  # small N means a long dual sum, so the tiny grid keeps N = 200
        Ns, bcs = (200,), ((1, 1), (1, 2))
        grids = ("4:20:8", "2:12:6", "0:2:3")
    tasks = [_task(f"voronoi-w{w}-b{b}-c{c}-N{N}",
                   ["voronoi", "--weight", str(w), "--b", str(b), "--c", str(c),
                    "--N", str(N), "--out", "{out}"])
             for w in (12, 16) for b, c in bcs for N in Ns]
    for kind, params, grid in zip(("wstar", "dot", "tilde"),
                                  ("kappa=12,w=1", "Z=50,alpha=0.5", "Z=50,alpha=0.5"), grids):
        tasks.append(_task(f"transform-{kind}-{grid}",
                           ["transform", "--kind", kind, "--params", params,
                            "--grid", grid, "--out", "{out}"]))
    return tasks


def circle(seed: int, tiny: bool = False) -> list[dict]:
    # Exact Fraction sweep line, the additive detector and the divisor driver.
    Qs, pipe_Qs = (25, 50, 100), (100, 300, 600)
    divisor = ((5_000, 71), (20_000, 141))
    if tiny:
        Qs, pipe_Qs = (10, 20), (20, 40)
        divisor = ((500, 10), (2_000, 20))
    tasks = [_task(f"circle-Q{Q}", ["circle", "--Q", str(Q), "--out", "{out}"]) for Q in Qs]
    tasks += [_correlate(f"pipeline-Q{Q}", "pipeline", {"n": 500, "H": 50, "Hp": 160, "Q": Q})
              for Q in pipe_Qs]
    tasks += [_correlate(f"divisor-{X}-{H}", "divisor",
                         {"X": X, "H": H, "d_max": 1000, "seed": seed})
              for X, H in divisor]
    return tasks


def tasks_for(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return globals()[workload](seed, tiny)
