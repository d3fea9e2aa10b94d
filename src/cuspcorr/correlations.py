"""Headline correlation sums and the reconstruction pipeline, instrumented.

Every operation returns plain dictionaries of named scalars (plus optional
per-point tables) so the CLI can serialize them unchanged.  Bound ratios
divide a measured sum by the corresponding analytic envelope with the
epsilon set to zero and the implied constant to one: they are recorded
measurements, never assertions of an asymptotic statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import ramanujan_weighted
from .circle import build_cover, detect_additive
from .coeffs import divisor_sieve, make_eigenform
from .errors import ContractError
from .util import parallel_map, rademacher
from .windows import SmoothWindow, bump_window, mellin_at, plateau_window

EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399235988
_WINDOW = bump_window()  # the shift weight W(h/H) of every experiment


@dataclass
class ExperimentConfig:
    """Shared parameters of the correlation experiments.

    weights are the three forms' weights, each 12 or 16; the pair
    correlation uses the third only through seq "lambda3".  seq selects the test sequence a(n) on [X, 2X]: "ones",
    "rademacher" (with `seed`), or "lambda3" (the third form's eigenvalues).
    """

    X: int
    H: float
    Hp: float | None = None
    weights: tuple[int, int, int] = (12, 12, 12)
    seq: str = "ones"
    seed: int = 0

    def __post_init__(self):
        if self.X < 3:
            raise ContractError("need X >= 3")
        if not (1 <= self.H <= self.X / 3):
            raise ContractError("need 1 <= H <= X/3")
        if self.Hp is None:
            self.Hp = self.X / 3  # the choice that optimizes the final bound
        if not (self.H <= self.Hp <= self.X / 3 + 1e-9):
            raise ContractError("need H <= H' <= X/3")
        if len(self.weights) != 3:
            raise ContractError(f"need exactly three weights, got {list(self.weights)}")
        for w in self.weights:
            if w not in (12, 16):
                raise ContractError("weights must be 12 or 16")

    def echo(self) -> dict:
        return {
            "X": self.X, "H": self.H, "Hp": self.Hp,
            "weights": list(self.weights), "seq": self.seq, "seed": self.seed,
        }

    def sequence(self) -> np.ndarray:
        """a(n) for n = X..2X."""
        size = self.X + 1
        if self.seq == "ones":
            return np.ones(size)
        if self.seq == "rademacher":
            return rademacher(size, self.seed)
        if self.seq == "lambda3":
            form = make_eigenform(self.weights[2], 2 * self.X)
            return form.lam[self.X:2 * self.X + 1].copy()
        raise ContractError(f"unknown sequence spec {self.seq!r}")


def _h_range(H: float) -> np.ndarray:
    lo, hi = _WINDOW.support
    h_lo = max(1, math.ceil(H * lo))
    h_hi = math.floor(H * hi)
    if h_hi < h_lo:
        raise ContractError("no integer shifts in the window support; H too small")
    return np.arange(h_lo, h_hi + 1)


def _shifted_sum(a: np.ndarray, x: np.ndarray, y: np.ndarray, X: int, H: float,
                 hs: np.ndarray) -> float:
    """sum_h W(h/H) sum_{X<=n<=2X} a(n) x(n+h) y(n-h), with a[0] at n = X."""
    per_h = np.empty(len(hs), dtype=np.float64)
    for i, h in enumerate(hs):
        per_h[i] = np.dot(a, x[X + h:2 * X + h + 1] * y[X - h:2 * X - h + 1])
    return float(np.sum(per_h * _WINDOW.value(hs / H)))


def shifted_pair_correlation(cfg: ExperimentConfig, lambda_override: dict | None = None) -> dict:
    """sum_h W(h/H) sum_{X<=n<=2X} a(n) lambda1(n+h) lambda2(n-h).

    lambda_override maps position (1 or 2) to a replacement coefficient
    array indexed by n (test hook).
    """
    X, H = cfg.X, cfg.H
    hs = _h_range(H)
    need = 2 * X + int(hs[-1]) + 1
    lam1 = _lam(cfg.weights[0], need, lambda_override, 1)
    lam2 = _lam(cfg.weights[1], need, lambda_override, 2)
    a = cfg.sequence()
    value = _shifted_sum(a, lam1, lam2, X, H, hs)
    norm_a = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    bound = (X / H) * (math.sqrt(X * H) + X / math.sqrt(H)) * norm_a
    return {
        "value": value,
        "bound": bound,
        "bound_ratio": abs(value) / bound,
        "norm_a": norm_a,
        "h_min": int(hs[0]), "h_max": int(hs[-1]),
    }


def triple_correlation(cfg: ExperimentConfig, lambda_override: dict | None = None) -> dict:
    """sum_h W(h/H) sum_n lambda1(n-h) lambda2(n) lambda3(n+h)."""
    X, H = cfg.X, cfg.H
    hs = _h_range(H)
    need = 2 * X + int(hs[-1]) + 1
    lam1 = _lam(cfg.weights[0], need, lambda_override, 1)
    lam2 = _lam(cfg.weights[1], need, lambda_override, 2)
    lam3 = _lam(cfg.weights[2], need, lambda_override, 3)
    value = _shifted_sum(lam2[X:2 * X + 1], lam3, lam1, X, H, hs)
    bound = min(X * H, X * X / math.sqrt(H))
    return {
        "value": value,
        "bound": bound,
        "bound_ratio": abs(value) / bound,
        "h_min": int(hs[0]), "h_max": int(hs[-1]),
    }


def _lam(weight: int, need: int, override: dict | None, pos: int) -> np.ndarray:
    if override is not None and pos in override:
        arr = np.asarray(override[pos], dtype=np.float64)
        if arr.size < need:
            raise ContractError(f"override array for position {pos} too short")
        return arr
    return make_eigenform(weight, need).lam


def divisor_main_term(cfg: ExperimentConfig, d_max: int, enforce_tail: bool = True) -> dict:
    """Exact tau-correlation against its predicted main term.

    main = H W^(1) sum_n a(n) sum_{d<=d_max} r_d(2n)/d^2 (L_n - 2 log d)^2
    with L_n = log n + 2 gamma.  Expanding the square leaves three
    Ramanujan-sum expansions in d, with weights 1/d^2, 2 log d/d^2 and
    4 log^2 d/d^2, which `ramanujan_weighted` evaluates at m = 2n for all n
    at once.  The same expansion over the next dyadic block d in
    (d_max, 2 d_max] gives an empirical tail proxy; the proxy must stay
    below 1% of the main term.
    """
    if d_max < 1:
        raise ContractError("need d_max >= 1")
    X, H = cfg.X, cfg.H
    hs = _h_range(H)
    tau = divisor_sieve(2 * X + int(hs[-1]) + 1).astype(np.float64)
    a = cfg.sequence()
    exact_lhs = _shifted_sum(a, tau, tau, X, H, hs)

    w_hat_1 = float(mellin_at(_WINDOW, 1.0).real)
    n_arr = np.arange(X, 2 * X + 1, dtype=np.int64)
    L_n = np.log(n_arr.astype(np.float64)) + 2.0 * EULER_GAMMA

    def block(d_lo: int, d_hi: int) -> float:
        d = np.arange(d_lo, d_hi + 1, dtype=np.float64)
        two_log_d = 2.0 * np.log(d)
        s0, s1, s2 = (ramanujan_weighted(np.concatenate((np.zeros(d_lo), w / (d * d))), 2 * n_arr)
                      for w in (np.ones_like(d), two_log_d, two_log_d ** 2))
        return float(np.dot(a, L_n * (L_n * s0 - 2.0 * s1) + s2))

    d_sum = block(1, d_max)
    tail_proxy = abs(block(d_max + 1, 2 * d_max))
    main_term = H * w_hat_1 * d_sum
    if enforce_tail and abs(tail_proxy) * H * w_hat_1 > 0.01 * abs(main_term):
        raise ContractError("d_max too small: tail proxy exceeds 1% of the main term")
    rel_dev = abs(exact_lhs - main_term) / abs(main_term)
    return {
        "exact_lhs": exact_lhs,
        "main_term": main_term,
        "relative_deviation": rel_dev,
        "tail_proxy": tail_proxy * H * w_hat_1,
        "w_hat_1": w_hat_1,
        "d_max": d_max,
    }


def wilton_sup(form, x: int, grid_factor: int = 4) -> dict:
    """sup over the alpha-grid of |sum_{n<=x} lambda(n) e(n alpha)| via FFT.

    The grid is j/L with L the next power of two >= grid_factor * x; the
    returned argmax makes a direct O(x) re-evaluation cheap.
    """
    if grid_factor < 4:
        raise ContractError("need grid_factor >= 4")
    form.require(x)
    L = 1 << int(math.ceil(math.log2(max(2, grid_factor * x))))
    padded = np.zeros(L)
    padded[1:x + 1] = form.lam[1:x + 1]
    spectrum = np.fft.fft(padded)  # bin j holds conj(S(j/L)) for real input
    mags = np.abs(spectrum)
    j = int(np.argmax(mags))
    return {
        "sup": float(mags[j]),
        "argmax_alpha": j / L,
        "grid_size": L,
        "dc_value": float(spectrum[0].real),
    }


def gamma_star_norm(form1, form2, M1: int, M2: int, z: float,
                    u1: float = 0.0, u2: float = 0.0, u3: float = 0.0) -> dict:
    """l2 norm of the twisted additive convolution on b ~ M1 + M2.

    gamma*(b) multiplies the convolution of the two coefficient blocks,
    each twisted by exp(i z sqrt(m)), by unimodular factors and a smooth
    plateau in sqrt(2b) z / Z (equal to 1 on [1/20, 20]), where
    Z = sqrt(2 (M1 + M2)) z; the measured norm is compared against
    (sqrt(M2) + z M2)^2 M1.
    """
    if M1 < 1 or M2 < 1:
        raise ContractError("need M1, M2 >= 1")
    form1.require(2 * M1)
    form2.require(2 * M2)
    Z = math.sqrt(2.0 * (M1 + M2)) * z if z > 0 else 1.0

    def block(form, M, u):
        m = np.arange(M, 2 * M + 1, dtype=np.float64)
        lam = form.lam[M:2 * M + 1]
        return lam * (m / M) ** (-0.25 + 1j * u) * np.exp(1j * z * np.sqrt(m))

    f = block(form1, M1, u1)
    g = block(form2, M2, u2)
    conv = np.convolve(f, g)  # b = M1+M2 .. 2(M1+M2)
    b = np.arange(M1 + M2, 2 * (M1 + M2) + 1, dtype=np.float64)
    if z > 0:
        arg = np.sqrt(2.0 * b) * z / Z
        w2_vals = plateau_window(1.0 / 100.0, 1.0 / 20.0, 20.0, 100.0).value(arg)
        phase = arg ** (-2j * u3)
    else:
        w2_vals = np.ones_like(b)
        phase = np.ones_like(b, dtype=np.complex128)
    gamma = w2_vals * phase * (b / (M1 + M2)) ** (1j * u3) * conv
    norm_sq = float(np.sum(np.abs(gamma) ** 2))
    bound = (math.sqrt(M2) + z * M2) ** 2 * M1
    return {
        "norm_sq": norm_sq,
        "bound": bound,
        "parseval_bound_ratio": norm_sq / bound,
        "conv_norm_sq": float(np.sum(np.abs(conv) ** 2)),
        "Z": Z,
    }


def support_tracking_window(H: float, Hp: float) -> SmoothWindow:
    """Plateau equal to 1 on [H/H', 2H/H'], the image of the shift support.

    This is the redundant localization factor of the reconstruction: it
    must not alter the exact convolution, only bound the dual length.
    """
    r = H / Hp
    return plateau_window(0.45 * r, 0.9 * r, 2.1 * r, 3.2 * r)


def pipeline_fidelity(n: int, H: float, Hp: float | None = None, Q: float = 300.0,
                      delta: float | None = None, weights: tuple[int, int] = (12, 12)) -> dict:
    """Direct shifted sum at a single center against its circle-method
    reconstruction from the two localized coefficient sequences."""
    if Hp is None:
        Hp = H
    if delta is None:
        delta = float(Q) ** -1.5
    if Q < 10:
        raise ContractError("need Q >= 10")
    if len(weights) != 2:
        raise ContractError(f"need exactly two weights, got {list(weights)}")
    hs = _h_range(H)
    h_hi = int(hs[-1])
    if n <= h_hi:
        raise ContractError(f"need n > {h_hi}, the largest shift, so that every n - h >= 1")
    lam1 = make_eigenform(weights[0], n + 2 * h_hi + 4).lam
    lam2 = make_eigenform(weights[1], n).lam
    wh = _WINDOW.value(hs / H)
    e_direct = float(np.sum(lam1[n + hs] * lam2[n - hs] * wh))

    vtrack = support_tracking_window(H, Hp)
    m1 = n + hs
    f = (int(m1[0]), lam1[m1] * wh)
    g_lo = max(1, n - math.floor(3.2 * H))
    g_hi = n - max(1, math.ceil(0.45 * H))
    m2 = np.arange(g_lo, g_hi + 1)
    g = (g_lo, lam2[m2] * vtrack.value((n - m2) / Hp))
    cover = build_cover(_WINDOW, Q, delta)
    e_rec = detect_additive(cover, f, g, n)
    abs_err = abs(e_direct - e_rec)
    s1 = float(np.sum(np.abs(f[1])))
    s2 = float(np.sum(np.abs(g[1])))
    error_scale = s1 * s2 * float(Q) / (math.sqrt(float(cover.delta)) * cover.Lambda)
    return {
        "E_direct": e_direct,
        "E_reconstructed_real": float(e_rec.real),
        "E_reconstructed_imag": float(e_rec.imag),
        "abs_error": abs_err,
        "rel_error": abs_err / (1.0 + abs(e_direct)),
        "error_scale": error_scale,
        "scale_ratio": abs_err / error_scale if error_scale > 0 else 0.0,
        "Q": float(Q), "delta": float(cover.delta), "Lambda": cover.Lambda,
    }


def scaling_study(X_list: list[int], theta: float, which: str = "pair",
                  weights: tuple[int, int, int] = (12, 12, 12), seq: str = "ones",
                  seed: int = 0, lambda_override: dict | None = None) -> dict:
    """Least-squares exponent of log|sum| against log X with H = X^theta.

    Returns the fitted slope, per-point table, and the numerically
    evaluated slope of the corresponding analytic envelope.
    """
    if len(X_list) < 4:
        raise ContractError("need at least 4 scales")
    if sorted(X_list) != list(X_list):
        raise ContractError("X_list must be ascending")
    if which not in ("pair", "triple"):
        raise ContractError("which must be 'pair' or 'triple'")
    configs = [ExperimentConfig(X=X, H=max(1.0, round(X ** theta)), weights=tuple(weights),
                                seq=seq, seed=seed) for X in X_list]
    if lambda_override is None:  # build the largest table up front (thread safety)
        top = X_list[-1]
        for w in set(weights):
            make_eigenform(w, 2 * top + 2 * int(round(top ** theta)) + 2)

    def one(cfg: ExperimentConfig) -> dict:
        res = (shifted_pair_correlation(cfg, lambda_override) if which == "pair"
               else triple_correlation(cfg, lambda_override))
        return {"X": cfg.X, "H": cfg.H, "value": res["value"], "bound": res["bound"]}

    rows = parallel_map(one, configs)
    logs = [(math.log(r["X"]), r["value"], r["bound"]) for r in rows]
    if any(v == 0.0 for _, v, _ in logs):
        return {"degenerate": True, "rows": rows}
    lx = np.array([t[0] for t in logs])
    lv = np.log(np.abs(np.array([t[1] for t in logs])))
    lb = np.log(np.array([t[2] for t in logs]))
    slope, intercept = np.polyfit(lx, lv, 1)
    resid = float(np.sqrt(np.mean((lv - (slope * lx + intercept)) ** 2)))
    bound_slope = float((lb[-1] - lb[0]) / (lx[-1] - lx[0]))
    return {
        "degenerate": False,
        "fitted_slope": float(slope),
        "fit_residual_rms": resid,
        "bound_slope": bound_slope,
        "theta": theta,
        "which": which,
        "rows": rows,
    }
