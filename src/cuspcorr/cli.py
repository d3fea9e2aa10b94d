"""Command-line front end.

Exit codes: 0 success, 1 contract violation (including usage errors),
2 numerical failure (non-convergence or a failed accuracy check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .arith import kloosterman, weil_bound
from .circle import build_cover, l2_bound_ratio, sweep_measures
from .coeffs import make_eigenform
from .correlations import (ExperimentConfig, divisor_main_term, gamma_star_norm,
                           pipeline_fidelity, scaling_study, shifted_pair_correlation,
                           triple_correlation, wilton_sup)
from .errors import ContractError, NumericsError
from .report import ExperimentReport, format_float, write_csv, write_report
from .spectral import large_sieve_ratio, petersson_table
from .util import rademacher
from .voronoi import voronoi_check, voronoi_instance
from .windows import TransformKernel, kuznetsov_transform_dot, kuznetsov_transform_tilde, w_star, bump_window


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cuspcorr",
                                description="desk-scale experiments on eigenform coefficient sums")
    p.add_argument("--version", action="version", version=f"cuspcorr {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="exact eigenform coefficients")
    c.add_argument("--weight", type=int, required=True, choices=(12, 16))
    c.add_argument("--upto", type=int, required=True)
    c.add_argument("--out", required=True)

    k = sub.add_parser("kloosterman", help="Kloosterman sums against the Weil bound")
    k.add_argument("--a", type=int, required=True)
    k.add_argument("--b", type=int, required=True)
    k.add_argument("--cmax", type=int, required=True)
    k.add_argument("--out", required=True)

    ci = sub.add_parser("circle", help="Farey cover and exact L2 error")
    ci.add_argument("--Q", required=True)
    ci.add_argument("--delta-exp", default="1.5", help="delta = Q^(-exp)")
    ci.add_argument("--out", required=True)

    v = sub.add_parser("voronoi", help="two-sided summation identity check")
    v.add_argument("--weight", type=int, required=True, choices=(12, 16))
    v.add_argument("--b", type=int, required=True)
    v.add_argument("--c", type=int, required=True)
    v.add_argument("--N", required=True)
    v.add_argument("--out", required=True)

    t = sub.add_parser("transform", help="window transforms on a parameter grid")
    t.add_argument("--kind", required=True, choices=("wstar", "dot", "tilde"))
    t.add_argument("--params", default="", help="comma list key=value")
    t.add_argument("--grid", required=True, help="lo:hi:count for the swept variable")
    t.add_argument("--out", required=True)

    pe = sub.add_parser("petersson", help="spectral identity residual table")
    pe.add_argument("--weight", type=int, required=True)
    pe.add_argument("--mmax", type=int, required=True)
    pe.add_argument("--cmax", type=int, default=1000)
    pe.add_argument("--out", required=True)

    s = sub.add_parser("sieve", help="large-sieve ratio measurements")
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--cmax", type=int, default=1000)
    s.add_argument("--out", required=True)

    co = sub.add_parser("correlate", help="correlation experiments from a JSON config")
    co.add_argument("--kind", required=True,
                    choices=("pair", "triple", "divisor", "wilton", "gamma-star",
                             "pipeline", "scaling"))
    co.add_argument("--config", required=True)
    co.add_argument("--out", required=True)
    co.add_argument("--csv", default=None)
    return p


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ContractError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ContractError(f"{what} must be finite, got {text!r}")
    return value


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list of integers"}


def _typed(value, kind: type):
    """value as an int, float or str (`kind`), or None if it is not one.
    Integral floats count as integers, and integers as floats."""
    if kind is str:
        return value if isinstance(value, str) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if kind is int:
        return value if isinstance(value, int) else int(value) if value.is_integer() else None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _config(raw: dict, key: str, kind: type, default=_REQUIRED):
    """Config key `key` as an int, float, str or list of ints (`kind`).

    A missing or null key gives `default`; a missing required key, or a
    value of another type, is a ContractError.
    """
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ContractError(f"config needs the key {key!r}")
        return default
    if kind is list:
        out = [_typed(v, int) for v in value] if isinstance(value, list) else [None]
    else:
        out = [_typed(value, kind)]
    if None in out:
        raise ContractError(f"config key {key!r} must be {_KINDS[kind]}, got {value!r}")
    return out if kind is list else out[0]


def _parse_params(raw: str) -> dict:
    out = {}
    if not raw:
        return out
    for piece in raw.split(","):
        if "=" not in piece:
            raise ContractError(f"malformed parameter {piece!r}")
        key, val = piece.split("=", 1)
        try:
            out[key.strip()] = int(val)
        except ValueError:
            out[key.strip()] = _finite(val, f"parameter {key.strip()}")
    return out


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ContractError("grid must be lo:hi:count")
    lo, hi = _finite(parts[0], "grid lo"), _finite(parts[1], "grid hi")
    try:
        count = int(parts[2])
    except ValueError:
        raise ContractError(f"grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise ContractError("grid count must be >= 1")
    return np.linspace(lo, hi, count)


def _cmd_coeffs(args) -> None:
    form = make_eigenform(args.weight, args.upto)
    rows = [{"n": n, "a(n)": str(form.a[n]), "lambda(n)": format_float(float(form.lam[n]))}
            for n in range(1, args.upto + 1)]
    write_csv(args.out, rows, columns=["n", "a(n)", "lambda(n)"])


def _cmd_kloosterman(args) -> None:
    rows = []
    for c in range(1, args.cmax + 1):
        rows.append({"c": c, "S(a,b;c)": kloosterman(args.a, args.b, c),
                     "weil_bound": weil_bound(args.a, args.b, c)})
    write_csv(args.out, rows, columns=["c", "S(a,b;c)", "weil_bound"])


def _cmd_circle(args) -> None:
    Q = _finite(args.Q, "--Q")
    delta = Q ** (-_finite(args.delta_exp, "--delta-exp"))
    cover = build_cover(bump_window(), Q, delta)
    l2, mass = sweep_measures(cover)
    row = {
        "Q": Q, "delta": float(cover.delta), "Lambda": cover.Lambda,
        "intervals": cover.n_intervals, "l2_error": l2,
        "bound_ratio": l2_bound_ratio(cover, l2),
    }
    write_csv(args.out, [row],
              columns=["Q", "delta", "Lambda", "intervals", "l2_error", "bound_ratio"])


def _cmd_voronoi(args) -> None:
    N = _finite(args.N, "--N")
    inst = voronoi_instance(args.weight, args.b, args.c, N)
    res = voronoi_check(inst)
    report = ExperimentReport(
        config={"weight": args.weight, "b": args.b, "c": args.c, "N": N},
        results={
            "lhs": res["lhs"], "rhs": res["rhs"],
            "relative_error": res["relative_error"],
            "n_terms": res["diagnostics"]["n_terms"],
            "tail_margin": res["diagnostics"]["tail_margin"],
        },
    )
    write_report(report, args.out, "json")


def _cmd_transform(args) -> None:
    params = _parse_params(args.params)
    grid = _parse_grid(args.grid)
    if args.kind == "wstar":
        kappa = int(params.pop("kappa", 12))
        w = float(params.pop("w", 1.0))
        _reject_unknown(params)
        key, points = "z", grid.tolist()
        vals = w_star(bump_window(), kappa, grid, w)
    else:
        Z = float(params.pop("Z", 50.0))
        alpha = float(params.pop("alpha", 0.0))
        tau = float(params.pop("tau", 0.0))
        _reject_unknown(params)
        phi = TransformKernel(Z=Z, alpha=alpha, tau=tau)
        if args.kind == "dot":
            key, points = "k", [int(round(x)) for x in grid.tolist()]
            vals = kuznetsov_transform_dot(phi, points)
        else:
            key, points = "t", grid.tolist()
            vals = kuznetsov_transform_tilde(phi, grid)
    write_csv(args.out, [{key: p, "re": v.real, "im": v.imag}
                         for p, v in zip(points, vals.tolist())])


def _cmd_petersson(args) -> None:
    table = petersson_table(args.weight, args.mmax, args.cmax)
    form = make_eigenform(args.weight, args.mmax) if args.weight in (12, 16) else None
    p11 = table[0, 0]
    rows = []
    for m in range(1, args.mmax + 1):
        for n in range(m, args.mmax + 1):
            row = {"m": m, "n": n, "P": table[m - 1, n - 1]}
            row["r1"] = abs(table[m - 1, n - 1] * p11 - table[m - 1, 0] * table[n - 1, 0])
            if form is not None:
                row["r2"] = abs(table[m - 1, n - 1] / p11 - float(form.lam[m] * form.lam[n]))
            else:  # dimension-zero weights have no eigenvalues to compare
                row["r2"] = ""
            rows.append(row)
    write_csv(args.out, rows, columns=["m", "n", "P", "r1", "r2"])


def _cmd_sieve(args) -> None:
    rows = []
    for trial in range(args.trials):
        a = rademacher(args.M + 1, seed=trial)
        res = large_sieve_ratio(args.kmax, a, args.M, args.cmax)
        rows.append({"trial": trial, "lhs": res["lhs"], "bound": res["bound"],
                     "ratio": res["ratio"]})
    write_csv(args.out, rows, columns=["trial", "lhs", "bound", "ratio"])


_CORRELATE_KEYS = {
    "pair": {"X", "H", "Hp", "weights", "seq", "seed"},
    "triple": {"X", "H", "Hp", "weights", "seq", "seed"},
    "divisor": {"X", "H", "Hp", "weights", "seq", "seed", "d_max"},
    "wilton": {"weight", "x", "grid_factor"},
    "gamma-star": {"weights", "M1", "M2", "z", "u1", "u2", "u3"},
    "pipeline": {"n", "H", "Hp", "Q", "delta", "weights"},
    "scaling": {"X_list", "theta", "which", "weights", "seq", "seed"},
}


def _cmd_correlate(args) -> None:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractError(f"{args.config} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ContractError(f"{args.config} must hold a JSON object")
    allowed = _CORRELATE_KEYS[args.kind]
    unknown = set(raw) - allowed
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    seed = _config(raw, "seed", int, 0)
    tables: dict = {}
    if args.kind in ("pair", "triple", "divisor"):
        cfg = ExperimentConfig(
            X=_config(raw, "X", int), H=_config(raw, "H", float),
            Hp=_config(raw, "Hp", float, None),
            weights=tuple(_config(raw, "weights", list, [12, 12, 12])),
            seq=_config(raw, "seq", str, "ones"), seed=seed,
        )
        d_max = _config(raw, "d_max", int, 1000)
        if args.kind == "pair":
            results = shifted_pair_correlation(cfg)
        elif args.kind == "triple":
            results = triple_correlation(cfg)
        else:
            results = divisor_main_term(cfg, d_max)
        config = cfg.echo()
        if args.kind == "divisor":
            config["d_max"] = d_max
    elif args.kind == "wilton":
        weight = _config(raw, "weight", int, 12)
        x = _config(raw, "x", int)
        gf = _config(raw, "grid_factor", int, 4)
        form = make_eigenform(weight, x)
        results = wilton_sup(form, x, gf)
        config = {"weight": weight, "x": x, "grid_factor": gf, "seed": seed}
    elif args.kind == "gamma-star":
        weights = _config(raw, "weights", list, [12, 12])
        if len(weights) != 2:
            raise ContractError(f"gamma-star needs exactly two weights, got {weights}")
        M1, M2 = _config(raw, "M1", int), _config(raw, "M2", int)
        z = _config(raw, "z", float, 0.0)
        f1 = make_eigenform(weights[0], 2 * M1 + 1)
        f2 = make_eigenform(weights[1], 2 * M2 + 1)
        results = gamma_star_norm(f1, f2, M1, M2, z, *(_config(raw, u, float, 0.0)
                                                       for u in ("u1", "u2", "u3")))
        config = {"weights": weights, "M1": M1, "M2": M2, "z": z, "seed": seed}
    elif args.kind == "pipeline":
        results = pipeline_fidelity(
            n=_config(raw, "n", int), H=_config(raw, "H", float),
            Hp=_config(raw, "Hp", float, None), Q=_config(raw, "Q", float, 300.0),
            delta=_config(raw, "delta", float, None),
            weights=tuple(_config(raw, "weights", list, [12, 12])),
        )
        config = {k: raw.get(k) for k in sorted(raw)}
    else:
        results = scaling_study(
            X_list=_config(raw, "X_list", list), theta=_config(raw, "theta", float),
            which=_config(raw, "which", str, "pair"),
            weights=tuple(_config(raw, "weights", list, [12, 12, 12])),
            seq=_config(raw, "seq", str, "ones"), seed=seed,
        )
        config = {k: raw.get(k) for k in sorted(raw)}
        tables = {"points": results.pop("rows")}
    report = ExperimentReport(config=config, results=results, tables=tables,
                              provenance={"seed": seed})
    write_report(report, args.out, "json")
    if args.csv:
        write_report(report, args.csv, "csv")


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "kloosterman": _cmd_kloosterman,
    "circle": _cmd_circle,
    "voronoi": _cmd_voronoi,
    "transform": _cmd_transform,
    "petersson": _cmd_petersson,
    "sieve": _cmd_sieve,
    "correlate": _cmd_correlate,
}


def _reject_unknown(params: dict) -> None:
    if params:
        raise ContractError(f"unknown parameters: {sorted(params)}")


def parse_and_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _DISPATCH[args.command](args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --config or --out: a missing file or directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
