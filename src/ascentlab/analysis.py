"""Ratio-method machinery for exact coefficient series whose growth mixes
exponential, stretched-exponential and factorial factors.

Everything runs at a configurable decimal precision (mpmath); transforms of
exact integer series divide each exact ratio's rounded numerator by its
rounded denominator, so a last bit can differ from the correct rounding.
The quotient transforms (ratios, EGF ratios, Hadamard quotients) share one
quotient loop, the transforms of consecutive terms one pairwise loop, every
local gradient comes from one helper, and the 4x4 window fits share one
sweep: it builds each index's row once, slices the windows from those
rows, and solves each with a list LU that reproduces mpmath's, bit for
bit. Estimators that assume a growth model take the model parameters
explicitly; nothing is inferred silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import InsufficientTermsError
from .series import (CoefficientSeries, RealSeries, DEFAULT_DPS, to_mpf,
                     working_dps)


@dataclass
class LinearFitWindow:
    """Solution of a 4x4 fit anchored at window center k; residual is the
    largest defect when the solution is substituted back."""

    k: int
    coefficients: list
    residual: object


@dataclass
class EstimatorTrace:
    """An estimator y at the indices ns, with its local gradients against
    log n.

    Indices with domain failures (log of a non-positive value) are skipped
    and recorded rather than aborting the trace.
    """

    ns: list
    y: list
    gradient_ns: list = field(default_factory=list)
    gradients: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    dps: int = DEFAULT_DPS


@dataclass
class InterceptSummary:
    """The three readings of a trace's ordinate intercept: the raw tail value,
    a Neville extrapolation in the stated abscissa, and the trace itself."""

    name: str
    abscissa_power: float
    last_n: int
    last_value: object
    neville: object
    depth: int


def _pairwise(x, f) -> RealSeries:
    """f(n, x_n, x_{n-1}) over consecutive terms, at x's precision; the
    result starts at x's second index."""
    with mpmath.workdps(x.dps):
        out = [f(n, a, b) for n, a, b in zip(x.indices()[1:], x.values[1:], x.values)]
    return RealSeries(out, first_index=x.first_index + 1, dps=x.dps)


def _log_term(n, v):
    """log c_n, at the caller's precision, of a term that must be positive."""
    if v <= 0:
        raise ValueError(f"non-positive term at index {n} has no real log")
    return mpmath.log(v)


def _logs(c, dps) -> RealSeries:
    """log c_n at the working precision, each c_n rounded to it first."""
    d = working_dps(c, dps=dps)
    with mpmath.workdps(d):
        return RealSeries([_log_term(n, mpf(v)) for n, v in zip(c.indices(), c.values)],
                          c.first_index, d)


def _quotients(ns, nums, dens, exact, dps) -> RealSeries:
    """nums_i / dens_i at the indices ns: for exact integers, the reduced
    fraction through `to_mpf` (see the module docstring), else a real one."""
    out = []
    with mpmath.workdps(dps):
        for n, num, den in zip(ns, nums, dens):
            if den == 0:
                raise ValueError(f"zero divisor at index {n}")
            out.append(to_mpf(Fraction(num, den), dps) if exact
                       else mpf(num) / mpf(den))
    return RealSeries(out, first_index=ns[0], dps=dps)


def ratios(c, dps=None) -> RealSeries:
    """r_n = c_n / c_{n-1}; exact rational first when the input is exact."""
    if len(c) < 2:
        raise InsufficientTermsError("need at least two terms for ratios")
    return _quotients(c.indices()[1:], c.values[1:], c.values[:-1],
                      isinstance(c, CoefficientSeries), working_dps(c, dps=dps))


def egf_ratios(c, dps=None) -> RealSeries:
    """Exponential-generating-function ratios r_n = c_n / (n * c_{n-1})."""
    if len(c) < 2:
        raise InsufficientTermsError("need at least two terms for ratios")
    d = working_dps(c, dps=dps)
    ns = c.indices()[1:]
    with mpmath.workdps(d):  # real products round at the working precision
        dens = [n * v for n, v in zip(ns, c.values)]
    return _quotients(ns, c.values[1:], dens, isinstance(c, CoefficientSeries), d)


def linear_intercepts(r: RealSeries) -> RealSeries:
    """l_n = n*r_n - (n-1)*r_{n-1}; cancels an additive c/n correction."""
    if len(r) < 2:
        raise InsufficientTermsError("need at least two terms")
    return _pairwise(r, lambda n, a, b: n * a - (n - 1) * b)


def quadratic_intercepts(l: RealSeries) -> RealSeries:
    """l2_n = (n^2*l_n - (n-1)^2*l_{n-1}) / (2n-1); cancels a pure c/n^2
    correction (applied after linear_intercepts the residual is O(1/n^3))."""
    if len(l) < 2:
        raise InsufficientTermsError("need at least two terms")
    return _pairwise(l, lambda n, a, b:
                     (n * n * a - (n - 1) * (n - 1) * b) / (2 * n - 1))


def intercept_pipeline(r: RealSeries):
    """(l, l2, l3): linear intercepts, quadratic intercepts, and the pairwise
    linear extrapolants of l2."""
    l = linear_intercepts(r)
    l2 = quadratic_intercepts(l)
    l3 = linear_intercepts(l2)
    return l, l2, l3


def _gradients(ns, xs, ys):
    """(ns[1:], dy/dx over consecutive points), at the caller's precision."""
    return ns[1:], [(ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
                    for i in range(1, len(ns))]


def _trace_against_log_n(ns, ys, dps, skipped=()):
    with mpmath.workdps(dps):
        gns, grads = _gradients(ns, [mpmath.log(n) for n in ns], ys)
    return EstimatorTrace(ns=ns, y=ys, gradient_ns=gns, gradients=grads,
                          skipped=list(skipped), dps=dps)


def _log_trace(raw: RealSeries):
    """log(raw) against log(n), skipping non-positive entries."""
    kept, ys, skipped = [], [], []
    with mpmath.workdps(raw.dps):
        for n, v in zip(raw.indices(), raw.values):
            if v <= 0:
                skipped.append((n, "non-positive argument to log"))
                continue
            kept.append(n)
            ys.append(mpmath.log(v))
    return _trace_against_log_n(kept, ys, raw.dps, skipped)


def sigma_estimator_ratio(r: RealSeries) -> EstimatorTrace:
    """log|r_n/r_{n-1} - 1| against log n; local gradients tend to sigma - 2.
    Ratios fall under pure power-law growth, so only exact zeros are skipped."""
    if len(r) < 3:
        raise InsufficientTermsError("need at least three ratio terms")
    return _log_trace(_pairwise(r, lambda n, a, b: abs(a / b - 1)))


def sigma_estimator_root(c, dps=None) -> EstimatorTrace:
    """log(c_n^{1/n}/c_{n-1}^{1/(n-1)} - 1) against log n; gradients tend to
    sigma - 2. Equal to the ratio estimator at leading order. A series
    indexed from 0 starts at n = 2, as c_0^{1/0} is undefined."""
    if len(c) < 3:
        raise InsufficientTermsError("need at least three terms")
    logs = _logs(c, dps)
    if logs.first_index == 0:
        logs = RealSeries(logs.values[1:], first_index=1, dps=logs.dps)
    return _log_trace(_pairwise(
        logs, lambda n, a, b: mpmath.e ** (a / n - b / (n - 1)) - 1))


def sigma_local_gradient_known_mu(r: RealSeries, mu) -> RealSeries:
    """1 + (log|r_n/mu - 1| - log|r_{n-1}/mu - 1|) / (log n - log(n-1));
    tends to sigma when the growth constant mu is known."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    m = to_mpf(mu, r.dps)

    def gradient(n, a, b):
        cur, prev = a / m - 1, b / m - 1
        if prev == 0:
            raise ValueError(f"ratio equals mu exactly at index {n - 1}")
        if cur == 0:
            raise ValueError(f"ratio equals mu exactly at index {n}")
        return 1 + ((mpmath.log(abs(cur)) - mpmath.log(abs(prev)))
                    / (mpmath.log(n) - mpmath.log(n - 1)))

    return _pairwise(r, gradient)


def mu1_estimator(r: RealSeries, mu, sigma) -> RealSeries:
    """(r_n/mu - 1) * n^(1-sigma); limit is sigma * log(mu1).

    The n^g factor of the growth leaks in at order g * n^(-sigma): under
    pure power growth (mu1 = 1) r_n/mu = (n/(n-1))^g, so the estimator reads
    about g * n^(-sigma) rather than 0, e.g. 10/99 ~ 0.101 at n = 100 with
    g = 1 and sigma = 1/2. This bias decays slowly; it is not cancelled here.
    On c_n = C * mu^n * n^g the value is exactly
    ((n/(n-1))^g - 1) * n^(1-sigma); the zero limit of such a mu1 = 1 series
    is read by extrapolation (`extrapolate_intercept`; `analyze` uses the
    abscissa n^(-1/2) for this trace), not from the raw last value.
    """
    if not mu > 0 or not 0 < sigma < 1:
        raise ValueError("need mu > 0 and 0 < sigma < 1")
    out = []
    with mpmath.workdps(r.dps):
        m, s = to_mpf(mu, r.dps), to_mpf(sigma, r.dps)
        for n in r.indices():
            out.append((r.at(n) / m - 1) * mpf(n) ** (1 - s))
    return RealSeries(out, first_index=r.first_index, dps=r.dps)


def _log_model_ratio(c, mu, g, dps) -> RealSeries:
    """log(c_n / (mu^n n^g)) = log c_n - g log n - n log mu, at the working
    precision of `_logs`."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    logs = _logs(c, dps)
    d = logs.dps
    with mpmath.workdps(d):
        logmu, gg = mpmath.log(to_mpf(mu, d)), to_mpf(g, d)
        out = [v - gg * mpmath.log(n) - n * logmu
               for n, v in zip(logs.indices(), logs.values)]
    return RealSeries(out, logs.first_index, d)


def g_estimator(c, mu, sigma, dps=None) -> EstimatorTrace:
    """e_n/sigma against log n, where
    e_n = ((n-1)^sigma log d_n - n^sigma log d_{n-1}) * n^(1-sigma) and
    d_n = c_n / mu^n. Local gradients tend to -g."""
    logd = _log_model_ratio(c, mu, 0, dps)
    d = logd.dps
    s = to_mpf(sigma, d)
    ys = _pairwise(logd, lambda n, a, b: (mpf(n - 1) ** s * a - mpf(n) ** s * b)
                   * mpf(n) ** (1 - s) / s)
    return _trace_against_log_n(list(ys.indices()), ys.values, d)


def mu1_refined(c, mu, sigma, g, dps=None) -> RealSeries:
    """(log f_n - log f_{n-1}) / (n^sigma - (n-1)^sigma) with
    f_n = c_n / (n^g mu^n); limit is log(mu1)."""
    logf = _log_model_ratio(c, mu, g, dps)
    s = to_mpf(sigma, logf.dps)
    return _pairwise(logf, lambda n, a, b: (a - b) / (mpf(n) ** s - mpf(n - 1) ** s))


def _solve_lu(rows, rhs):
    """x with rows * x = rhs, by the arithmetic of mpmath 1.3.0's LU solve
    (`LU_decomp`, `L_solve`, `U_solve`) operation for operation, so each
    entry of x has the same `_mpf_`.

    It works on lists because indexing mpmath's matrix class took half the
    time of a window fit. As there, it runs with 10 guard bits, pivots on the
    first largest |A[k][j]| / sum|A[k][j:]|, and raises ZeroDivisionError on
    a pivot or row sum at most |mnorm(A, 1) * eps|. It also raises one on a
    column that is zero from the pivot down, where mpmath fails with a
    TypeError."""
    n = len(rows)
    with mpmath.workprec(mpmath.mp.prec + 10):
        A, b = [list(row) for row in rows], list(rhs)
        tol = abs(max(mpmath.fsum((row[j] for row in A), absolute=1)
                      for j in range(n)) * mpmath.eps)
        pivots = []
        for j in range(n - 1):
            biggest, p = 0, None
            for k in range(j, n):
                s = mpmath.fsum([abs(a) for a in A[k][j:]])
                if abs(s) <= tol:
                    raise ZeroDivisionError("matrix is numerically singular")
                current = 1 / s * abs(A[k][j])
                if current > biggest:
                    biggest, p = current, k
            if p is None or abs(A[p][j]) <= tol:
                raise ZeroDivisionError("matrix is numerically singular")
            pivots.append(p)
            A[j], A[p] = A[p], A[j]
            top = A[j]
            for row in A[j + 1:]:
                row[j] /= top[j]
                for k in range(j + 1, n):
                    row[k] -= row[j] * top[k]
        if abs(A[-1][-1]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        for j, p in enumerate(pivots):
            b[j], b[p] = b[p], b[j]
        for i in range(1, n):
            for j in range(i):
                b[i] -= A[i][j] * b[j]
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                b[i] -= A[i][j] * b[j]
            b[i] /= A[i][i]
    return b


def _solve_window(rows, rhs, k, name) -> LinearFitWindow:
    """Solve rows * x = rhs for the window name=k, at the caller's precision.
    The residual is the largest |row . x - rhs|, with -rhs rounded first as
    in mpmath's `A * x - b`."""
    try:
        sol = _solve_lu(rows, rhs)
    except ZeroDivisionError as exc:
        raise ValueError(f"singular fit system at window {name}={k}") from exc
    resid = max(abs(mpmath.fdot(row, sol) + -b) for row, b in zip(rows, rhs))
    return LinearFitWindow(k=k, coefficients=sol, residual=resid)


def _window_fits(row_of, ks, lo, hi, name, span, dps):
    """The 4x4 fits centred at each k in ks, on the rows of k-2..k+1, which
    must lie in lo..hi; row_of(n) -> (row, rhs) runs once per index."""
    built, fits = {}, []
    with mpmath.workdps(dps):
        for k in ks:
            if k - 2 < lo or k + 1 > hi:
                raise ValueError(f"window {name}={k} outside {span} range")
            for n in range(k - 2, k + 2):
                if n not in built:
                    built[n] = row_of(n)
            rows, rhs = zip(*(built[n] for n in range(k - 2, k + 2)))
            fits.append(_solve_window(rows, rhs, k, name))
    return fits


def fit_ratio4_sweep(r: RealSeries, sigma, ks=None):
    """Solve r_n = c1 + c2/n^(1-sigma) + c3/n + c4/n^(2-2sigma) on the window
    n = k-2..k+1, for each window centre k in ks (default: every window in
    range), building each index's row once. c1 estimates mu,
    c2 -> mu*sigma*log(mu1), c3 -> mu*g (requires sigma != 1/2),
    c4 -> mu*sigma^2*log^2(mu1)/2."""
    if ks is None:
        ks = range(r.first_index + 2, r.last_index)
    with mpmath.workdps(r.dps):
        s = to_mpf(sigma, r.dps)
        p1, p2 = s - 1, 2 * s - 2

    def row(n):
        nn = mpf(n)
        return [mpf(1), nn ** p1, 1 / nn, nn ** p2], r.at(n)

    return _window_fits(row, ks, r.first_index, r.last_index, "k", "ratio series",
                        r.dps)


def fit_stirling_log_sweep(c, ms=None, dps=None):
    """Solve log c_k = e1*k*log k + e2*k + e3*log k + e4 on k = m-2..m+1, for
    each window centre m in ms (default: every window in range), computing
    each log once. For (alpha*n)!-type growth e1 estimates alpha and e2
    estimates log mu + alpha log alpha - alpha."""
    if ms is None:
        ms = range(c.first_index + 3, c.last_index)
    d = working_dps(c, dps=dps)

    def row(k):
        lk = mpmath.log(k)
        return [k * lk, mpf(k), lk, mpf(1)], _log_term(k, to_mpf(c.at(k), d))

    return _window_fits(row, ms, c.first_index + 1, c.last_index, "m", "series", d)


@dataclass
class FactorialRatioTraces:
    r: RealSeries
    s: RealSeries
    t: RealSeries
    alpha_estimates: list  # (n, 2 * gradient of t against 1/n)


def factorial_ratio_transforms(c, dps=None) -> FactorialRatioTraces:
    """r_n = c_n/c_{n-1}, s_n = r_n/r_{n-1},
    t_n = (n^2 s_n - (n-1)^2 s_{n-1})/(2n-1) ~ 1 + alpha/(2n);
    the gradient of t against 1/n therefore estimates alpha/2."""
    if len(c) < 4:
        raise InsufficientTermsError("need at least four terms")
    r = ratios(c, dps=dps)
    s = ratios(r)
    t = quadratic_intercepts(s)
    with mpmath.workdps(t.dps):
        ns, grads = _gradients(t.indices(), [mpf(1) / n for n in t.indices()],
                               t.values)
        alpha = [(n, 2 * gv) for n, gv in zip(ns, grads)]
    return FactorialRatioTraces(r=r, s=s, t=t, alpha_estimates=alpha)


def hadamard_quotient(a, b, dps=None) -> RealSeries:
    """h_n = a_n / b_n on the overlap of the two index ranges."""
    lo = max(a.first_index, b.first_index)
    hi = min(a.last_index, b.last_index)
    if lo > hi:
        raise ValueError("series do not overlap")
    ns = range(lo, hi + 1)
    exact = isinstance(a, CoefficientSeries) and isinstance(b, CoefficientSeries)
    return _quotients(ns, [a.at(n) for n in ns], [b.at(n) for n in ns], exact,
                      working_dps(a, b, dps=dps))


@dataclass
class ReferenceConstants:
    dps: int
    ascent_growth: object          # 6/pi^2
    ascent_amplitude: object       # 12*sqrt(3)*exp(pi^2/12)/pi^(5/2)
    growth_000_conjecture: object  # 8/(3*pi^2)
    growth_120: object             # largest root of x^3 - 8x^2 + 5x + 1


def reference_constants(dps=DEFAULT_DPS) -> ReferenceConstants:
    with mpmath.workdps(dps):
        pi = mpmath.pi
        ascent_growth = 6 / pi ** 2
        amplitude = 12 * mpmath.sqrt(3) * mpmath.e ** (pi ** 2 / 12) / pi ** mpf(2.5)
        mu000 = 8 / (3 * pi ** 2)
        root = mpmath.findroot(lambda x: x ** 3 - 8 * x ** 2 + 5 * x + 1, mpf(7.3))
    return ReferenceConstants(dps=dps, ascent_growth=ascent_growth,
                              ascent_amplitude=amplitude,
                              growth_000_conjecture=mu000, growth_120=root)


def neville_extrapolate(xs, ys, dps=DEFAULT_DPS):
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal nonzero numbers of abscissae and values")
    with mpmath.workdps(dps):
        tab = [mpf(y) for y in ys]
        xs = [mpf(x) for x in xs]
        m = len(tab)
        for level in range(1, m):
            for i in range(m - level):
                tab[i] = (xs[i] * tab[i + 1]
                          - xs[i + level] * tab[i]) / (xs[i] - xs[i + level])
        return tab[0]


def extrapolate_intercept(series, power=1.0, depth=3, name="trace",
                          dps=None) -> InterceptSummary:
    """Ordinate intercept of a trace via (a) the raw last value and (b) Neville
    extrapolation of the last `depth` points in the abscissa 1/n^power, for a
    RealSeries or a list of (n, value) pairs."""
    dps = working_dps(series, dps=dps)
    if isinstance(series, RealSeries):
        series = list(zip(series.indices(), series.values))
    ns, vals = [n for n, _ in series], [v for _, v in series]
    if not ns:
        raise InsufficientTermsError(f"empty trace {name}")
    depth = min(depth, len(ns))
    with mpmath.workdps(dps):
        xs = [mpf(n) ** mpf(-power) for n in ns[-depth:]]
        ev = neville_extrapolate(xs, vals[-depth:], dps=dps)
    return InterceptSummary(name=name, abscissa_power=power, last_n=ns[-1],
                            last_value=vals[-1], neville=ev, depth=depth)
