"""Differential approximants: fit an inhomogeneous linear ODE with polynomial
coefficients to a power series, read off singularities and exponents, and
extend the series through the implied linear recurrence.

The ODE uses the operator t = z*d/dz:

    sum_{k=0}^{M} Q_k(z) * t^k F(z) = P(z)

Fitting is fraction-free integer elimination (Bareiss), which yields the same
exact rationals as elimination over fractions; root finding and prediction
run at the working precision. Matching the first N coefficients
(N = L + sum(N_k + 1)) consumes N equations; one coefficient of Q_M is pinned
to 1 to fix the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import (AllFitsFailedError, InsufficientTermsError,
                     RankDeficientError, VanishingMultiplierError)
from .series import CoefficientSeries, RealSeries, DEFAULT_DPS


@dataclass(frozen=True)
class DAConfig:
    """Order M, coefficient-polynomial degrees (N_0..N_M), inhomogeneous
    degree L (-1 means P = 0)."""

    order: int
    degrees: tuple
    inhomog_degree: int = -1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.degrees) != self.order + 1:
            raise ValueError("need one degree per Q_0..Q_M")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be non-negative")
        if self.inhomog_degree < -1:
            raise ValueError("inhomogeneous degree must be >= -1")
        object.__setattr__(self, "degrees", tuple(self.degrees))

    @property
    def matched_terms(self):
        """N: how many series coefficients the fit reproduces."""
        return self.inhomog_degree + sum(d + 1 for d in self.degrees)

    def sort_key(self):
        return (self.order, self.degrees, self.inhomog_degree)


@dataclass
class SingularityReport:
    location: object
    exponent: object          # None when flagged
    multiple: bool            # set for z = 0 or non-simple roots
    residual: object


@dataclass
class DifferentialApproximant:
    """Exact rational Q_0..Q_M and P, plus fit bookkeeping."""

    qs: list                 # qs[k][j] = Fraction coefficient of z^j in Q_k
    p: list                  # Fraction coefficients of P (empty when L = -1)
    config: DAConfig
    constant_term: int = 1
    deficiency: int = 0      # free unknowns pinned to zero during the solve
    pinned: str = "q_M_constant"

    @property
    def order(self):
        return len(self.qs) - 1

    def recurrence_row(self, m):
        """Multipliers (A(m), [(j, T_j(m))...]) of the z^m matching equation:
        A(m)*c_m + sum_j T_j(m)*c_{m-j} = p_m where T_j(m) = sum_k q_kj (m-j)^k.

        Each multiplier is one reduced Fraction over the common denominator
        of qs, taken afresh on every call so that edited qs are honoured."""
        return _recurrence_row(*_integer_qs(self.qs), m)


def _integer_qs(qs):
    """(den, nums): the common denominator of qs and the integer numerators
    of every coefficient over it."""
    den = math.lcm(*(v.denominator for q in qs for v in q))
    return den, [[v.numerator * (den // v.denominator) for v in q] for q in qs]


def _recurrence_row(den, nums, m):
    """`DifferentialApproximant.recurrence_row` from `_integer_qs` output."""
    def multiplier(j):
        return Fraction(sum(q[j] * (m - j) ** k
                            for k, q in enumerate(nums) if j < len(q)), den)

    maxdeg = max(len(q) for q in nums) - 1
    return multiplier(0), [(j, multiplier(j)) for j in range(1, maxdeg + 1)]


def _full_coefficients(c: CoefficientSeries, constant_term):
    if c.first_index != 1:
        raise ValueError("series must start at index 1; pass the constant separately")
    return [constant_term] + list(c.values)


def _solve_rational(rows, rhs):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer system.

    Returns (solution, deficiency); free variables are set to zero. Raises on
    inconsistency. Every entry stays an integer minor of the input, so each
    division by the previous pivot is exact; at the end every pivot row has
    the last pivot on its diagonal and each solved unknown is one reduced
    Fraction(rhs, last pivot). Zero tests on minors agree with those on the
    entries of elimination over fractions, so the first nonzero entry of a
    column picks the same pivots.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot = None
        for r in range(pr, nrows):
            if m[r][pc] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        row = m[pr]
        pv = row[pc]
        tail = row[pc:]
        # columns left of pc are never read again, so they are not rescaled
        for r in range(nrows):
            if r == pr:
                continue
            other = m[r]
            f = other[pc]
            if f != 0:
                other[pc:] = [(pv * x - f * y) // prev
                              for x, y in zip(other[pc:], tail)]
            elif pv != prev:
                other[pc:] = [pv * x // prev for x in other[pc:]]
        prev = pv
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    for r in range(pr, nrows):
        if m[r][ncols] != 0:
            raise RankDeficientError("inconsistent fitting system",
                                     deficiency=ncols - len(pivots))
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = Fraction(m[r][ncols], prev)
    return sol, ncols - len(pivots)


def fit_da(c: CoefficientSeries, cfg: DAConfig, constant_term=1) -> DifferentialApproximant:
    """Fit the ODE by exact fraction-free integer elimination.

    The constant coefficient of Q_M is pinned to 1; if that makes the system
    inconsistent the highest-degree coefficient of Q_M is pinned instead.
    Consistent rank-deficient systems succeed with free unknowns set to zero
    (the deficiency is recorded); only inconsistency raises.
    """
    coeffs = _full_coefficients(c, constant_term)
    n_eq = cfg.matched_terms
    if n_eq < 1:
        raise ValueError("configuration matches no coefficients")
    if len(coeffs) < n_eq + 1:
        raise InsufficientTermsError(
            f"need {n_eq + 1} coefficients including the constant, have {len(coeffs)}")
    M = cfg.order
    L = cfg.inhomog_degree
    # unknown layout: q_{0,0..N_0}, ..., q_{M,0..N_M}, p_0..p_L
    offsets = []
    pos = 0
    for d in cfg.degrees:
        offsets.append(pos)
        pos += d + 1
    p_off = pos
    n_unknown = pos + (L + 1)

    def build(pin_index):
        rows, rhs = [], []
        for m in range(n_eq):
            row = [0] * n_unknown
            b = 0
            for k in range(M + 1):
                for j in range(min(cfg.degrees[k], m) + 1):
                    val = (m - j) ** k * coeffs[m - j]
                    col = offsets[k] + j
                    if col == pin_index:
                        b -= val
                    else:
                        row[col] = val
            if 0 <= m <= L:
                row[p_off + m] = -1
            rows.append(row)
            rhs.append(b)
        # drop the pinned column
        rows = [r[:pin_index] + r[pin_index + 1:] for r in rows]
        return rows, rhs

    pin_const = offsets[M]
    pin_high = offsets[M] + cfg.degrees[M]
    for pin_index, pin_name in ((pin_const, "q_M_constant"),
                                (pin_high, "q_M_leading")):
        try:
            rows, rhs = build(pin_index)
            sol, deficiency = _solve_rational(rows, rhs)
        except RankDeficientError:
            if pin_index == pin_high:
                raise
            continue
        full = sol[:pin_index] + [Fraction(1)] + sol[pin_index:]
        qs = [full[offsets[k]: offsets[k] + cfg.degrees[k] + 1] for k in range(M + 1)]
        p = full[p_off:]
        if all(v == 0 for v in qs[M]):
            raise RankDeficientError("fitted Q_M is identically zero",
                                     deficiency=deficiency)
        return DifferentialApproximant(qs=qs, p=p, config=cfg,
                                       constant_term=constant_term,
                                       deficiency=deficiency, pinned=pin_name)
    raise RankDeficientError("no consistent normalization", deficiency=None)


def fit_defects(da: DifferentialApproximant, c: CoefficientSeries) -> list:
    """Exact defects of the matching equations on the first N coefficients;
    all zero for a faithful fit."""
    coeffs = _full_coefficients(c, da.constant_term)
    out = []
    L = da.config.inhomog_degree
    for m in range(da.config.matched_terms):
        a, others = da.recurrence_row(m)
        total = a * coeffs[m]
        for j, t in others:
            if 0 <= m - j:
                total += t * coeffs[m - j]
        total -= da.p[m] if 0 <= m <= L else 0
        out.append(total)
    return out


def _extend_values(da, coeffs, count, exact, dps):
    """Continue the sequence `coeffs` by `count` values using the recurrence."""
    L = da.config.inhomog_degree
    den, nums = _integer_qs(da.qs)
    known = list(coeffs)
    out = []
    start = len(known)
    with mpmath.workdps(dps):
        for m in range(start, start + count):
            a, others = _recurrence_row(den, nums, m)
            if a == 0:
                raise VanishingMultiplierError(
                    f"recurrence multiplier vanishes at index {m}", m, out)
            total = Fraction(da.p[m]) if 0 <= m <= L else Fraction(0)
            if exact:
                for j, t in others:
                    if m - j >= 0:
                        total -= t * Fraction(known[m - j])
                val = total / a
            else:
                acc = mpf(total.numerator) / mpf(total.denominator)
                for j, t in others:
                    if m - j >= 0 and t != 0:
                        prev = known[m - j]
                        if isinstance(prev, Fraction):
                            prev = mpf(prev.numerator) / mpf(prev.denominator)
                        acc -= (mpf(t.numerator) / mpf(t.denominator)) * prev
                val = acc / (mpf(a.numerator) / mpf(a.denominator))
            known.append(val)
            out.append(val)
    return out


def recurrence_extend(da: DifferentialApproximant, c: CoefficientSeries,
                      count: int, dps=DEFAULT_DPS) -> RealSeries:
    """Predict `count` coefficients beyond the series at working precision."""
    coeffs = _full_coefficients(c, da.constant_term)
    vals = _extend_values(da, coeffs, count, exact=False, dps=dps)
    return RealSeries(vals, first_index=c.last_index + 1, dps=dps)


def recurrence_extend_exact(da: DifferentialApproximant, c: CoefficientSeries,
                            count: int) -> list:
    """Exact rational continuation (Fractions)."""
    coeffs = _full_coefficients(c, da.constant_term)
    return _extend_values(da, coeffs, count, exact=True, dps=DEFAULT_DPS)


def _poly_mpf(coeffs, dps, scale=None):
    """Fraction coefficients -> mpf list, divided by a shared scale.

    Polynomials entering a ratio must share one scale or the ratio changes.
    """
    with mpmath.workdps(dps):
        if scale is None:
            scale = max(abs(v) for v in coeffs)
        if scale == 0:
            return [mpf(0) for _ in coeffs]
        return [mpf((v / scale).numerator) / mpf((v / scale).denominator)
                for v in coeffs]


def _polyval(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def singularities(da: DifferentialApproximant, dps=DEFAULT_DPS,
                  root_tol_digits=None) -> list:
    """Roots of Q_M with local exponents from the indicial equation.

    Exponents follow the F ~ C*(1 - z/z_c)^(-gamma) convention: a simple pole
    reports gamma = 1, a square-root branch point gamma = -1/2. Roots at the
    origin and non-simple roots carry the multiplicity flag and no exponent.
    """
    M = da.order
    scale = max(abs(v) for poly in (da.qs[M], da.qs[M - 1]) for v in poly)
    qm = _poly_mpf(da.qs[M], dps, scale=scale)
    while qm and qm[-1] == 0:
        qm.pop()
    if len(qm) <= 1:
        return []
    if root_tol_digits is None:
        root_tol_digits = dps // 2
    with mpmath.workdps(dps):
        tol = mpf(10) ** (-root_tol_digits)
        coeffs_desc = list(reversed(qm))
        roots = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=4 * dps)
        qm1 = _poly_mpf(da.qs[M - 1], dps, scale=scale)
        dqm = [j * qm[j] for j in range(1, len(qm))]
        reports = []
        for z in roots:
            resid = abs(_polyval(qm, z))
            if abs(z) < tol:
                reports.append(SingularityReport(z, None, True, resid))
                continue
            dval = _polyval(dqm, z)
            near_twin = any(abs(z - w) < tol * max(1, abs(z)) for w in roots
                            if w is not z)
            if abs(dval) < tol or near_twin:
                reports.append(SingularityReport(z, None, True, resid))
                continue
            gamma = 1 - M + _polyval(qm1, z) / (z * dval)
            reports.append(SingularityReport(z, gamma, False, resid))
        reports.sort(key=lambda r: (abs(r.location), r.location.real if hasattr(r.location, 'real') else 0))
        return reports


def default_ensemble(budget, orders=(1, 2, 3), inhomog=(-1, 0, 1)) -> list:
    """Near-balanced degree vectors consuming most of `budget` coefficients.

    For each order and inhomogeneous degree the base vector is balanced; a
    second variant lowers the degree of Q_0 by one (all degree gaps <= 2).
    """
    out = []
    for M in orders:
        for L in inhomog:
            base = (budget - L) // (M + 1) - 1
            if base < 2:
                continue
            for drop in (0, 1):
                degs = [base - drop] + [base] * M
                cfg = DAConfig(order=M, degrees=tuple(degs), inhomog_degree=L)
                if 1 <= cfg.matched_terms <= budget and cfg not in out:
                    out.append(cfg)
    return sorted(out, key=DAConfig.sort_key)


@dataclass
class PredictionResult:
    first_index: int
    values: list            # per-index ensemble mean
    agreed_digits: list     # common leading decimal digits among retained values
    spreads: list           # per-index standard deviation
    excluded: list          # (index, config, value) triples dropped as outliers
    configs_used: list
    failures: list = field(default_factory=list)


def _common_digits(lo, hi, cap):
    """Length of the shared leading decimal-digit prefix of lo <= hi."""
    if lo == hi:
        return cap
    if lo <= 0 < hi or hi < 0 <= lo:
        return 0
    a, b = (abs(lo), abs(hi))
    ea = mpmath.floor(mpmath.log10(a))
    eb = mpmath.floor(mpmath.log10(b))
    if ea != eb:
        return 0
    sa = mpmath.nstr(a, cap, strip_zeros=False)
    sb = mpmath.nstr(b, cap, strip_zeros=False)
    da = [ch for ch in sa if ch.isdigit()]
    db = [ch for ch in sb if ch.isdigit()]
    n = 0
    for x, y in zip(da, db):
        if x != y:
            break
        n += 1
    return min(n, cap)


def predict_ensemble(c: CoefficientSeries, cfgs, count, constant_term=1,
                     dps=DEFAULT_DPS, mad_multiplier=3) -> PredictionResult:
    """Extend the series with every approximant that fits, then aggregate
    per index: values beyond `mad_multiplier` median absolute deviations from
    the median are excluded, the mean of the rest is reported together with
    the shared-leading-digits count and the standard deviation."""
    cfgs = sorted(cfgs, key=DAConfig.sort_key)
    fits, failures = [], []
    for cfg in cfgs:
        try:
            da = fit_da(c, cfg, constant_term=constant_term)
            ext = recurrence_extend(da, c, count, dps=dps)
            fits.append((cfg, ext.values))
        except (RankDeficientError, InsufficientTermsError,
                VanishingMultiplierError) as exc:
            failures.append((cfg, str(exc)))
    if len(fits) < 3:
        raise AllFitsFailedError(
            f"only {len(fits)} of {len(cfgs)} approximants fitted; need >= 3")
    means, digits, spreads, excluded = [], [], [], []
    cap = max(dps - 5, 1)
    with mpmath.workdps(dps):
        for i in range(count):
            vals = [(cfg, v[i]) for cfg, v in fits]
            ordered = sorted(v for _, v in vals)
            mid = len(ordered) // 2
            med = (ordered[mid] if len(ordered) % 2
                   else (ordered[mid - 1] + ordered[mid]) / 2)
            devs = sorted(abs(v - med) for _, v in vals)
            mad = (devs[len(devs) // 2] if len(devs) % 2
                   else (devs[len(devs) // 2 - 1] + devs[len(devs) // 2]) / 2)
            kept = []
            for cfg, v in vals:
                off = (abs(v - med) > mad_multiplier * mad if mad > 0
                       else v != med)
                if off:
                    excluded.append((c.last_index + 1 + i, cfg, v))
                else:
                    kept.append(v)
            mean = sum(kept) / len(kept)
            var = sum((v - mean) ** 2 for v in kept) / len(kept)
            means.append(mean)
            spreads.append(mpmath.sqrt(var))
            digits.append(_common_digits(min(kept), max(kept), cap))
    return PredictionResult(first_index=c.last_index + 1, values=means,
                            agreed_digits=digits, spreads=spreads,
                            excluded=excluded,
                            configs_used=[cfg for cfg, _ in fits],
                            failures=failures)
