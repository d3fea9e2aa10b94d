"""Slow direct implementations kept as oracles for the fast paths in src.

The first four were the production paths of the functions they check:
- `detect_additive_fft`: the additive detector by residue-class folds, one
  FFT per modulus, and a 16-node Gauss-Legendre eta-average;
- `sweep_measures_fraction`: the Farey cover's sweep line on exact
  `Fraction` events with a Python sort and compensated heights, with its
  step function and the pointwise `itilde_eval` beside it;
- `divisor_blocks_loop`: the divisor main term and tail proxy by an
  O(X d_max) gcd loop over d;
- `unit_inverses_prefix`: the unit inverses mod c by prefix products and a
  single extended-Euclid inversion;
- `ramanujan_sum_bruteforce`: r_d(n) as the exponential sum it is defined by;
- `sigma_table`: divisor power sums by a plain Python loop;
- `eigenform_recurrence`: the weight-12 and weight-16 eigenforms from
  Ramanujan's recurrence for tau, with no FFT, CRT or eta product;
- `eigenform_identity_check`: the whole table against 1728 Delta =
  E4^3 - E6^2 modulo a prime that no build uses;
- `j_series`, `j_hankel`, `j_integral` and `bessel_j_scalar`: J-Bessel of
  an integer order one value at a time, by the scalar routes and zone
  dispatch that `bessel` had beside `BesselKernel.grid`; between the zones
  and where a monitor rejects, the cosine integral by the superconvergent
  trapezoid rule, the route that Miller's recurrence replaced;
- `hankel_grid_loop`: the Hankel expansion with a fresh array for every
  update of the term, the sums and the divergence mask;
- `voronoi_rhs_sequential`: the Voronoi dual sum one term at a time, two
  Bessel calls per term, with the stop rule checked after each term;
- `kloosterman_block_mod`: S(m,n;c) for a pair array by reducing
  m u + n ubar mod c on the whole (pairs x units) array;
- `geometric_sums_rows`: the Kloosterman-Bessel sums with one Bessel call
  per pair (the threaded map it ran through is a list comprehension here);
- `cos_cosh_kernel_scalar`, `w_star_point`, `dot_point` and `tilde_point`:
  the window transforms one point at a time through `osc_quad`, the
  Maass-side kernel one (x, t) pair at a time.
"""

import functools
import math
from fractions import Fraction
from operator import mul

import numpy as np

from cuspcorr.arith import _unit_inverses, euler_phi, moebius
from cuspcorr.bessel import _HANKEL_MINTERM, _SERIES_CANCEL_LIMIT, _UNDERFLOW_LOG, BesselKernel
from cuspcorr.circle import _as_sequence
from cuspcorr.coeffs import Eigenform, make_eigenform
from cuspcorr.correlations import _WINDOW, EULER_GAMMA
from cuspcorr.errors import ContractError, InsufficientCoefficients, NumericsError
from cuspcorr.qseries import mul_coeffs, mul_mod
from cuspcorr.quadrature import _row_sums, gl_nodes_weights, osc_quad, panel_rule
from cuspcorr.voronoi import _CONSECUTIVE, _QUAD_TOL, _TERM_FLOOR, VoronoiInstance, _phase_table
from cuspcorr.windows import _TRANSFORM_TOL, TWO_PI, SmoothWindow, TransformKernel, mellin_at

_ETA_NODES = 16  # Gauss-Legendre nodes of the eta average in detect_additive_fft


def _fold_twisted(seq_offset: int, seq: np.ndarray, c: int, eta: float) -> np.ndarray:
    """Residue-class fold of f(m) e(eta m) mod c."""
    m = seq_offset + np.arange(seq.size)
    phase = np.exp(2j * math.pi * eta * m)
    folded = np.zeros(c, dtype=np.complex128)
    np.add.at(folded, m % c, seq * phase)
    return folded


def detect_additive_fft(cover, f, g, n: int) -> complex:
    """Circle-method approximation of sum_{m1 + m2 = 2n} f(m1) g(m2).

    f and g are finitely supported sequences given as (offset, values)
    pairs or mappings {m: value}.  For each Farey interval the two twisted
    sums are evaluated at d/c + eta and averaged over eta in [-delta,
    delta] by 16-node Gauss-Legendre quadrature.
    """
    off_f, val_f = _as_sequence(f)
    off_g, val_g = _as_sequence(g)
    if val_f.size == 0 or val_g.size == 0:
        return 0.0 + 0.0j
    delta = float(cover.delta)
    nodes, wts = gl_nodes_weights(-delta, delta, _ETA_NODES)
    total = 0.0 + 0.0j
    target = 2 * n
    for c in sorted(cover.weights):
        w = cover.weights[c]
        dd = np.arange(c)
        units = np.gcd(dd, c) == 1
        # e(-2n d / c) over d
        root = np.exp(-2j * math.pi * ((target % c) * dd % c) / c)
        acc = 0.0 + 0.0j
        for eta, wq in zip(nodes, wts):
            ff = np.fft.ifft(_fold_twisted(off_f, val_f, c, eta)) * c  # sum_r f_r e(rd/c)
            gg = np.fft.ifft(_fold_twisted(off_g, val_g, c, eta)) * c
            inner = np.sum((ff * gg * root)[units])
            acc += wq * inner * np.exp(-2j * math.pi * target * eta)
        total += w * acc
    return complex(total / (2.0 * delta * cover.Lambda))


def _cover_intervals(cover):
    """(center d/c, weight) over all reduced fractions in the cover."""
    for c in sorted(cover.weights):
        w = cover.weights[c]
        if c == 1:
            yield Fraction(1, 1), w
            continue
        for d in range(1, c):
            if math.gcd(d, c) == 1:
                yield Fraction(d, c), w


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _fraction_events(cover) -> list[tuple[Fraction, float]]:
    """Sweep events (position, +-weight) on [0,1], wrap-split."""
    d = cover.delta
    ev: list[tuple[Fraction, float]] = []
    for center, w in _cover_intervals(cover):
        lo = center - d
        hi = center + d
        shift = math.floor(lo)
        lo -= shift
        hi -= shift
        while True:
            if hi <= 1:
                ev.append((lo, w))
                ev.append((hi, -w))
                break
            ev.append((lo, w))
            ev.append((Fraction(1), -w))
            lo = Fraction(0)
            hi -= 1
    return ev


def _fraction_segments(cover):
    """(start, end, height) of each piece of I~ on [0,1], in order, with
    exact rational positions and compensated accumulation of the heights."""
    ev = _fraction_events(cover)
    ev.sort(key=lambda t: t[0])
    unit = cover.height_unit()
    height = _Kahan()
    pos = Fraction(0)
    i = 0
    n = len(ev)
    while i < n:
        p = ev[i][0]
        if p > pos:
            yield pos, p, height.s * unit
            pos = p
        while i < n and ev[i][0] == p:
            height.add(ev[i][1])
            i += 1
    if pos < 1:
        yield pos, Fraction(1), height.s * unit


def sweep_measures_fraction(cover) -> tuple[float, float]:
    """(int |1-I~|^2, int I~) over [0,1] by the Fraction sweep line."""
    l2_terms: list[float] = []
    mass_terms: list[float] = []
    for start, end, v in _fraction_segments(cover):
        seg = float(end - start)
        l2_terms.append((1.0 - v) * (1.0 - v) * seg)
        mass_terms.append(v * seg)
    return math.fsum(l2_terms), math.fsum(mass_terms)


def step_function_fraction(cover) -> tuple[np.ndarray, np.ndarray]:
    """(breakpoints, heights) of I~ on [0,1): heights[i] holds on
    [breakpoints[i], breakpoints[i+1]); float positions, for grid oracles."""
    positions = [0.0]
    heights = []
    for _, end, v in _fraction_segments(cover):
        positions.append(float(end))
        heights.append(v)
    return np.asarray(positions), np.asarray(heights)


def itilde_eval(cover, alpha) -> float:
    """Value at alpha, right-continuous: alpha counts in [d/c - delta, d/c + delta).

    Intervals are wrapped mod 1, matching the 1-periodicity of the
    detection target.  Floats convert to Fraction exactly.
    """
    a = Fraction(alpha)
    a -= math.floor(a)
    d = cover.delta
    total = 0.0
    for c, w in cover.weights.items():
        for k in (-1, 0, 1):
            # d/c in (0,1], fraction index dd satisfies  dd/c - delta <= a + k < dd/c + delta
            lo = (a + k - d) * c   # dd > lo (strict: right-continuous at d/c + delta)
            hi = (a + k + d) * c   # dd <= hi (closed at d/c - delta)
            dd_min = math.floor(lo) + 1
            dd_max = math.floor(hi)
            for dd in range(max(dd_min, 1), min(dd_max, c) + 1):
                if math.gcd(dd, c) == 1:
                    total += w
    return total * cover.height_unit()


def itilde_eval_many(cover, alphas: np.ndarray) -> np.ndarray:
    """Float evaluation on many points via the Fraction step function."""
    pos, hts = step_function_fraction(cover)
    a = np.mod(np.asarray(alphas, dtype=np.float64), 1.0)
    idx = np.searchsorted(pos, a, side="right") - 1
    idx = np.clip(idx, 0, len(hts) - 1)
    return hts[idx]


def divisor_blocks_loop(cfg, d_max: int) -> tuple[float, float]:
    """(main_term, tail_proxy) of `divisor_main_term`, one gcd pass per d,
    with r_d(n) = mu(d/g) phi(d)/phi(d/g), g = gcd(d, n), and mu, phi
    taken from the scalar trial-division functions."""
    X, H = cfg.X, cfg.H
    a = cfg.sequence()
    w_hat_1 = float(mellin_at(_WINDOW, 1.0).real)
    n_arr = np.arange(X, 2 * X + 1, dtype=np.int64)
    two_n = 2 * n_arr
    log_n = np.log(n_arr.astype(np.float64))
    mu = np.array([0] + [moebius(d) for d in range(1, 2 * d_max + 1)], dtype=np.int64)
    phi = np.array([0] + [euler_phi(d) for d in range(1, 2 * d_max + 1)], dtype=np.int64)

    def block(d_lo: int, d_hi: int) -> float:
        pieces = []
        for d in range(d_lo, d_hi + 1):
            g = np.gcd(np.int64(d), two_n)
            dg = d // g
            r = mu[dg] * (phi[d] // phi[dg])
            base = log_n + 2.0 * EULER_GAMMA - 2.0 * math.log(d)
            pieces.append(np.dot(a * r, base * base) / (d * d))
        return math.fsum(pieces)

    main_term = H * w_hat_1 * block(1, d_max)
    tail_proxy = abs(block(d_max + 1, 2 * d_max)) * H * w_hat_1
    return main_term, tail_proxy


def unit_inverses_prefix(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod c (ascending) and their inverses, as int64 arrays, via one
    batched inversion.

    Prefix products of units stay units, so a single extended-Euclid
    inversion of the total product unrolls into all the inverses.
    """
    units = [d for d in range(1, c) if math.gcd(d, c) == 1]
    prefix = [1] * (len(units) + 1)
    for i, u in enumerate(units):
        prefix[i + 1] = (prefix[i] * u) % c
    inv_all = pow(prefix[-1], -1, c)
    inverses = [0] * len(units)
    for i in range(len(units) - 1, -1, -1):
        inverses[i] = (prefix[i] * inv_all) % c
        inv_all = (inv_all * units[i]) % c
    return np.asarray(units, dtype=np.int64), np.asarray(inverses, dtype=np.int64)


def ramanujan_sum_bruteforce(d: int, n: int) -> complex:
    """Direct exponential sum; oracle for the closed form."""
    if d < 1:
        raise ContractError("modulus must be >= 1")
    total = 0.0 + 0.0j
    for a in range(1, d + 1):
        if math.gcd(a, d) == 1:
            total += np.exp(2j * math.pi * ((a * n) % d) / d)
    return total


def sigma_table(power: int, N: int) -> list[int]:
    """sigma_power(n) for n = 0..N-1 (entry 0 unused, set to 0)."""
    s = [0] * N
    for d in range(1, N):
        dp = d ** power
        for m in range(d, N, d):
            s[m] += dp
    return s


@functools.cache
def eigenform_recurrence(weight: int, N: int) -> tuple[int, ...]:
    """a(0..N) of the weight-12 or weight-16 eigenform (a(0) = 0), exact.

    q dDelta/dq = Delta E2 with E2 = 1 - 24 sum sigma_1(n) q^n gives
    (n - 1) tau(n) = -24 sum_{k<n} sigma_1(k) tau(n - k), so tau needs only
    sigma_1 and exact division.  Weight 16 is Delta E4 by schoolbook product,
    E4 = 1 + 240 sum sigma_3(n) q^n.  O(N^2); cached, so one build per
    session serves every shorter slice.
    """
    if weight not in (12, 16):
        raise ContractError("weight must be 12 or 16")
    s1 = sigma_table(1, N + 1)
    tau = [0, 1]
    for n in range(2, N + 1):
        q, r = divmod(-24 * sum(map(mul, s1[1:n], reversed(tau[1:n]))), n - 1)
        assert r == 0, f"the tau recurrence is not integral at n={n}"
        tau.append(q)
    if weight == 12:
        return tuple(tau)
    e4 = [240 * x for x in sigma_table(3, N)]
    e4[0] = 1
    return (0,) + tuple(mul_coeffs(tau[1:], e4, N))


def _sigma_mod(k: int, N: int, q: int) -> np.ndarray:
    """sigma_k(n) mod q for n = 0..N (0 at n = 0).  Each divisor pair
    d m = n is added once, from the loop over t = min(d, m) <= sqrt(N);
    d^k is reduced mod q after each multiplication, so nothing overflows."""
    base = np.arange(N + 1, dtype=np.int64) % q
    power = np.ones(N + 1, dtype=np.int64)
    for _ in range(k):
        power = power * base % q
    sigma = np.zeros(N + 1, dtype=np.int64)
    for t in range(1, math.isqrt(N) + 1):
        sigma[t * t::t] += power[t]  # d = t, m >= t
        sigma[t * (t + 1)::t] += power[t + 1:N // t + 1]  # m = t, d > t
    return sigma % q


def eigenform_identity_check(weight: int, N: int, q: int) -> np.ndarray:
    """The n <= N at which the cached table's a(n) breaks Ramanujan's identity
    1728 Delta = E4^3 - E6^2 mod q (weight 16: 1728 Delta E4 = E4 (E4^3 - E6^2));
    empty when all of a(0..N) pass.

    E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n are
    sieved mod q and multiplied by `mul_mod`.  Divisor sums and this product
    chain share nothing with the build's eta product, so a wrong a(n) escapes
    only if its error is a multiple of q; q should be a prime that no build
    uses, such as 32,749 (every build prime lies above 2^15).
    """
    if weight not in (12, 16):
        raise ContractError("weight must be 12 or 16")
    size = N + 1
    e4 = 240 * _sigma_mod(3, N, q) % q
    e6 = -504 * _sigma_mod(5, N, q) % q
    e4[0] = e6[0] = 1
    cube = mul_mod(mul_mod(e4, e4, q, size), e4, q, size)
    identity = (cube - mul_mod(e6, e6, q, size)) % q
    if weight == 16:
        identity = mul_mod(identity, e4, q, size)
    a = np.array([x % q for x in make_eigenform(weight, N).a[:size]], dtype=np.int64)
    return np.flatnonzero(1728 * a % q != identity)


def j_series(nu: float, x: float) -> tuple[float, bool]:
    """Ascending series with cancellation monitor; (value, trustworthy)."""
    if x == 0.0:
        return (1.0 if nu == 0.0 else 0.0), True
    log_t0 = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_t0 < _UNDERFLOW_LOG:
        return 0.0, True  # below 1e-300: zero at double precision
    t = math.exp(log_t0)
    total = t
    largest = abs(t)
    q = 0.25 * x * x
    m = 0
    while m < 600:
        m += 1
        t = -t * q / (m * (nu + m))
        total += t
        mag = abs(t)
        if mag > largest:
            largest = mag
        if mag < 1e-17 * max(largest, abs(total)) and m > 3:
            ok = largest <= _SERIES_CANCEL_LIMIT * max(abs(total), 1e-280)
            return total, ok
    return total, False


def j_hankel(nu: float, x: float) -> tuple[float, bool]:
    """Hankel asymptotic expansion with smallest-term monitor.

    P = sum (-1)^j a_{2j}/x^{2j}, Q = sum (-1)^j a_{2j+1}/x^{2j+1} with
    a_m = prod_{i<=m} (4 nu^2 - (2i-1)^2) / (m! 8^m); trusted only when
    the terms reach 1e-15 before the asymptotic divergence sets in.
    """
    if x <= 0.0:
        return 0.0, False
    mu = 4.0 * nu * nu
    p_sum = 1.0
    q_sum = (mu - 1.0) / (8.0 * x)
    term = q_sum
    prev = abs(term) if term != 0.0 else 1.0
    min_term = prev
    ok = prev < _HANKEL_MINTERM
    k = 1
    while k < 200 and not ok:
        k += 1
        term = term * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = abs(term)
        if mag >= prev:  # divergence onset: stop before the blow-up
            break
        if k % 2 == 0:
            p_sum += -term if k % 4 == 2 else term
        else:
            q_sum += -term if (k - 1) % 4 == 2 else term
        min_term = min(min_term, mag)
        prev = mag
        if mag < _HANKEL_MINTERM:
            ok = True
    chi = x - (0.5 * nu + 0.25) * math.pi
    value = math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) * p_sum - math.sin(chi) * q_sum)
    return value, ok


def j_integral(nu: int, x: float) -> float:
    """J_nu(x) = (1/pi) int_0^pi cos(nu xi - x sin xi) d xi for an integer
    order, by the trapezoid rule: superconvergent here, because every odd
    derivative of the integrand vanishes at both endpoints."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    m = max(64, int(3.2 * (nu + x)) + 1)
    xi = np.linspace(0.0, math.pi, m + 1)
    f = np.cos(nu * xi - x * np.sin(xi))
    return float((np.sum(f) - 0.5 * (f[0] + f[-1])) / m)


def bessel_j_scalar(nu: float, x: float) -> float:
    """J_nu(x) of an integer order one value at a time: the series or Hankel
    route where its zone and its monitor allow, else the cosine integral."""
    kernel = BesselKernel.of(nu)
    if not x >= 0:  # NaN included
        raise ContractError("argument must be >= 0")
    if x <= kernel.series_cutoff:
        value, ok = j_series(kernel.nu, x)
        if ok:
            return value
    elif x >= kernel.hankel_cutoff:
        value, ok = j_hankel(kernel.nu, x)
        if ok:
            return value
    return j_integral(kernel.nu, x)


def hankel_grid_loop(nu: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Hankel expansion; returns (values, trusted mask)."""
    x = np.maximum(xs, 1e-300)
    mu = 4.0 * nu * nu
    p_sum = np.ones_like(x)
    q_sum = (mu - 1.0) / (8.0 * x)
    term = q_sum.copy()
    prev = np.where(term != 0.0, np.abs(term), 1.0)
    ok = prev < _HANKEL_MINTERM
    active = ~ok
    for k in range(2, 200):
        term = term * ((mu - (2 * k - 1) ** 2) / (k * 8.0)) / x
        mag = np.abs(term)
        diverging = active & (mag >= prev)
        active &= ~diverging
        if k % 2 == 0:
            signed = -term if k % 4 == 2 else term
            p_sum += np.where(active, signed, 0.0)
        else:
            signed = -term if (k - 1) % 4 == 2 else term
            q_sum += np.where(active, signed, 0.0)
        converged = active & (mag < _HANKEL_MINTERM)
        ok |= converged
        active &= ~converged
        prev = np.where(active, mag, prev)
        if not np.any(active):
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    vals = np.sqrt(2.0 / (math.pi * x)) * (np.cos(chi) * p_sum - np.sin(chi) * q_sum)
    return vals, ok


def _dual_integral(kernel: BesselKernel, V: SmoothWindow, A: float, tol: float) -> complex:
    """int V(x) J_nu(A sqrt(x)) dx over supp V, with A-aware paneling."""
    lo, hi = V.support
    cycles = A * (math.sqrt(hi) - math.sqrt(lo)) / (2.0 * math.pi) + 1.0
    panels = max(4, math.ceil(cycles))

    def integrate(n_panels: int):
        xs, ws = panel_rule(lo, hi, n_panels)
        return _row_sums(V(xs) * kernel.grid(A * np.sqrt(xs)), ws)

    first = integrate(panels)
    # one refinement as an error estimate
    second = integrate(2 * panels)
    if abs(second - first) > max(tol, 1e-14 * abs(second)):
        third = integrate(4 * panels)
        if abs(third - second) > max(tol, 1e-13 * abs(third)):
            raise NumericsError(f"dual integral not converged at A={A:g}")
        return complex(third)
    return complex(second)


def _dual_term(inst: VoronoiInstance, kernel: BesselKernel, lam_src: Eigenform,
               table: np.ndarray, bbar: int, n: int) -> complex:
    A = 4.0 * math.pi * math.sqrt(n * inst.N) / inst.c
    integral = _dual_integral(kernel, inst.V, A, _QUAD_TOL)
    phase = np.conj(table[(bbar % inst.c) * n % inst.c])
    return complex(lam_src.lam[n] * phase * integral)


def voronoi_rhs_sequential(inst: VoronoiInstance) -> tuple[complex, dict]:
    """Dual sum; returns (value, diagnostics).

    With rhs_truncation set, exactly that many dual terms are used.
    Otherwise the scan stops after _CONSECUTIVE dual terms fall below the
    term floor relative to the running scale, then continues to twice the
    stopping point as a certified margin (the doubling-stability property
    checks that this margin is already negligible).
    """
    kappa = inst.form.weight
    kernel = BesselKernel.of(kappa - 1)
    bbar = pow(inst.b % inst.c, -1, inst.c) if inst.c > 1 else 0
    prefactor = (inst.N / inst.c) * 2.0 * math.pi * (1j ** kappa)
    table = _phase_table(inst.c)

    lam_src = inst.form

    def ensure(n):
        nonlocal lam_src
        if n > lam_src.length:
            if not lam_src.canonical:
                raise InsufficientCoefficients(
                    f"dual side needs lambda({n}); custom form has {lam_src.length}"
                )
            lam_src = make_eigenform(kappa, max(2 * n, 1024))

    terms: list[complex] = []
    if inst.rhs_truncation is not None:
        ensure(inst.rhs_truncation)
        for n in range(1, inst.rhs_truncation + 1):
            terms.append(_dual_term(inst, kernel, lam_src, table, bbar, n))
        n_stop = inst.rhs_truncation
        tail_margin = float("nan")
    else:
        scale = 0.0
        quiet = 0
        n_stop = None
        n = 0
        hard_cap = 200000
        while n < hard_cap:
            n += 1
            if n_stop is not None and n > 2 * n_stop:
                break
            ensure(n)
            term = _dual_term(inst, kernel, lam_src, table, bbar, n)
            terms.append(term)
            mag = abs(term)
            scale = max(scale, mag)
            if n_stop is None:
                if mag < _TERM_FLOOR * (scale + 1.0):
                    quiet += 1
                    if quiet >= _CONSECUTIVE and n >= 8:
                        n_stop = n
                else:
                    quiet = 0
        if n_stop is None:
            raise NumericsError("dual sum did not decay within the hard cap")
        tail_margin = float(np.sum(np.abs(terms[n_stop:]))) * abs(prefactor)
    total = prefactor * np.sum(np.asarray(terms))
    diag = {
        "n_terms": len(terms),
        "n_stop": n_stop,
        "tail_margin": tail_margin,
        "prefactor": complex(prefactor),
    }
    return complex(total), diag


def kloosterman_block_mod(pairs: np.ndarray, c: int) -> np.ndarray:
    """S(m,n;c) for all (m,n) rows of `pairs`, sharing one unit table."""
    if c == 1:
        return np.ones(len(pairs))
    units, inv = _unit_inverses(c)
    table = np.cos(2.0 * math.pi * np.arange(c) / c)
    res = (pairs[:, 0:1] * units[None, :] + pairs[:, 1:2] * inv[None, :]) % c
    return table[res].sum(axis=1)


def geometric_sums_rows(k: int, pairs: np.ndarray, kl: np.ndarray) -> np.ndarray:
    """sum_{c <= c_max} S(m,n;c)/c J_{k-1}(4 pi sqrt(mn)/c) for each row (m, n)
    of `pairs`, with S read from `kl` (columns c = 1..c_max)."""
    kernel = BesselKernel.of(k - 1)
    sqrt_mn = np.sqrt(pairs[:, 0] * pairs[:, 1]).astype(np.float64)
    cs = np.arange(1, kl.shape[1] + 1)
    rows = [kernel.grid(4.0 * math.pi * s / cs) for s in list(sqrt_mn)]
    jcache = np.vstack(rows)
    sums = np.zeros(len(pairs))
    for ci, c in enumerate(cs):
        sums += kl[:, ci] * jcache[:, ci] / c
    return sums


def cos_cosh_kernel_scalar(x: float, t: float) -> float:
    """int_0^inf cos(x cosh u) cos(2 t u) du via a bent contour (x > 0)."""
    if x <= 0:
        raise ContractError("kernel defined for x > 0")
    # leg 3 becomes negligible once x sinh A >= 40 + pi |t|
    target = (40.0 + math.pi * abs(t)) / x
    A = math.asinh(target)

    def leg1(u):
        return np.exp(1j * x * np.cosh(u)) * np.cos(2.0 * t * u)

    cycles1 = x * math.sinh(A) * A / TWO_PI + 1.0
    i1 = osc_quad(leg1, 0.0, A, cycles=cycles1, tol=1e-12)

    # vertical quarter-turn u = A + i s, s in [0, pi/2]
    s, ws = gl_nodes_weights(0.0, 0.5 * math.pi, 48)
    uu = A + 1j * s
    vals = np.exp(1j * x * np.cosh(uu)) * np.cos(2.0 * t * uu)
    i2 = 1j * np.sum(vals * ws)

    # horizontal leg u = v + i pi/2: cosh -> i sinh v, pure decay
    v_hi = math.asinh(745.0 / x)
    v, wv = gl_nodes_weights(A, max(v_hi, A + 1e-6), 48)
    uu = v + 0.5j * math.pi
    vals = np.exp(-x * np.sinh(v)) * np.cos(2.0 * t * uu)
    i3 = np.sum(vals * wv)

    return float((i1 + i2 + i3).real)


def w_star_point(window: SmoothWindow, kappa: int, z: float, w: float) -> complex:
    """int W(y) J_(kappa-1)(4 pi sqrt(y w + z)) dy for one z (z >= 4|w| > 0)."""
    kernel = BesselKernel.of(kappa - 1)
    lo, hi = window.support

    def integrand(y):
        arg = 4.0 * math.pi * np.sqrt(y * w + z)
        return window(y) * kernel.grid(arg)

    cycles = abs(w) / math.sqrt(0.5 * z) * (hi - lo)
    return complex(osc_quad(integrand, lo, hi, cycles=cycles, tol=_TRANSFORM_TOL))


def dot_point(phi: TransformKernel, k: int) -> complex:
    """4 i^k int phi(x) J_(k-1)(x) dx / x for one even k >= 2."""
    kernel = BesselKernel.of(k - 1)
    lo, hi = phi.support

    def integrand(x):
        return phi(x) * kernel.grid(x) / x

    val = osc_quad(integrand, lo, hi, cycles=phi.x_cycles(), tol=_TRANSFORM_TOL)
    return 4.0 * (1j ** k) * complex(val)


def tilde_point(phi: TransformKernel, t: float) -> complex:
    """8 int phi(x) C(x,t) dx/x for one t, with the scalar cosine kernel C."""
    lo, hi = phi.support

    def integrand(x):
        kern = np.array([cos_cosh_kernel_scalar(float(xx), t) for xx in x])
        return phi(x) * kern / x

    cycles = phi.x_cycles() + (hi - lo) / TWO_PI
    val = osc_quad(integrand, lo, hi, cycles=cycles, tol=_TRANSFORM_TOL)
    return 8.0 * complex(val)
