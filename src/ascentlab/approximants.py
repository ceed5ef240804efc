"""Differential approximants: fit an inhomogeneous linear ODE with polynomial
coefficients to a power series, read off singularities and exponents, and
extend the series through the implied linear recurrence.

The ODE uses the operator t = z*d/dz:

    sum_{k=0}^{M} Q_k(z) * t^k F(z) = P(z)

Fitting is forward fraction-free elimination (Bareiss) and fraction-free back
substitution over the integers, which yields the same exact rationals as
Gauss-Jordan elimination over fractions. Matching the first N coefficients
(N = L + sum(N_k + 1)) consumes N equations; one coefficient of Q_M is pinned
to 1 to fix the scale. The coefficients are those of the series with its
length-0 term `series.LENGTH_ZERO_COUNT` prepended as z^0.

An ensemble fits twins together: two configs of one order M and one
inhomogeneous degree L whose degrees differ by one in exactly one Q_k. Under
the constant pin, the smaller twin's system is the larger one's without its
last equation and without the column of q_{k,N_k}; with that column moved to
the end it is the larger system's leading block, so one forward elimination
serves both. The twin invariant: the shared result is taken only when the
leading block is eliminated on its own rows and both systems are
nonsingular. Each system then has exactly one solution, whatever the column
order or pivots, so both fits are the Fractions that fitting each config
alone gives, with deficiency 0 and the constant pin. Any other twin, and
any config without one, is fitted alone.

The recurrence that extends the series runs on the integer numerators of Q_k
and P over their common denominator, so each predicted term costs one
division, exact or at the working precision; root finding runs at the
working precision.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import (AllFitsFailedError, InsufficientTermsError,
                     RankDeficientError, VanishingMultiplierError)
from .series import (CoefficientSeries, RealSeries, DEFAULT_DPS, LENGTH_ZERO_COUNT,
                     to_mpf)

# Ensemble values more than this many median absolute deviations from the
# per-index median are excluded as outliers.
MAD_MULTIPLIER = 3


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
    deficiency: int = 0      # free unknowns pinned to zero during the solve
    pinned: str = "q_M_constant"

    @property
    def order(self):
        return len(self.qs) - 1


def _integer_recurrence(da):
    """(den, qs, p): the common denominator of Q_0..Q_M and P, and the
    integer numerators of their coefficients over it."""
    polys = da.qs + [da.p]
    den = math.lcm(*(v.denominator for q in polys for v in q))
    nums = [[v.numerator * (den // v.denominator) for v in q] for q in polys]
    return den, nums[:-1], nums[-1]


def _recurrence_row(nums, m):
    """Integer multipliers [A(m), T_1(m), ..., T_J(m)], J = min(m, max deg),
    of the z^m matching equation scaled by the common denominator:

        A(m)*c_m + sum_j T_j(m)*c_{m-j} = P_m,  T_j(m) = sum_k q_kj (m-j)^k

    with A = T_0. `nums` are the Q numerators from `_integer_recurrence`."""
    maxdeg = max(len(q) for q in nums) - 1
    return [sum(q[j] * (m - j) ** k for k, q in enumerate(nums) if j < len(q))
            for j in range(min(maxdeg, m) + 1)]


def _full_coefficients(c: CoefficientSeries):
    if c.first_index != 1:
        raise ValueError("series must start at index 1; the length-0 term is implied")
    return [LENGTH_ZERO_COUNT] + list(c.values)


def _back_substitute(m, pivots, prev, width):
    """Fraction-free back substitution on the pivot rows m[:len(pivots)],
    whose last entry is the right-hand side; `prev` is the last pivot and
    free unknowns among the `width` are zero.

    `prev` is, up to sign, the determinant of the pivot block, so by
    Cramer's rule each X_c = prev * x_c is an integer and

        X_c = (prev * b_r - sum_{c' > c} U[r][c'] * X_c') / U[r][c]

    divides exactly; x_c is the reduced Fraction(X_c, prev).
    """
    scaled = [0] * width
    for r in reversed(range(len(pivots))):
        row = m[r]
        acc = prev * row[-1] - sum(row[c] * scaled[c] for c in pivots[r + 1:])
        scaled[pivots[r]] = acc // row[pivots[r]]
    return [Fraction(v, prev) for v in scaled]


def _solve_rational(rows, rhs, block=0):
    """Solve an integer system exactly by forward Bareiss elimination and
    fraction-free back substitution.

    Returns (solution, deficiency, lead); free unknowns are set to zero.
    Raises on inconsistency. `lead` is the solution of the leading
    block x block system (the first `block` rows and columns, the same
    right-hand side; 0 < block <= min(rows, columns)) when that block was
    eliminated on its own, and None otherwise or when `block` is 0; `_fit`
    reads it as the smaller twin's solution (see the module docstring).

    Elimination runs forward only: each pivot is the first nonzero entry of
    its column at or below the pivot row, and only the rows below it are
    updated (a row with a zero in the pivot column is rescaled). Every
    updated entry is then a minor of the input, the pivot block so far
    bordered by the entry's row and column, so each division by the previous
    pivot is exact (Sylvester's identity).

    The result is that of Gauss-Jordan over fractions with the same pivot
    choice: below each pivot, Gauss-Jordan holds these minors divided by the
    previous pivot, so the same entries are zero. The pivots, the deficiency
    and the inconsistency test therefore agree, and both solutions are the
    unique solution of the pivot block with free unknowns zero.

    The leading block is eliminated on its own when each of its columns
    takes its pivot from its own rows: no row below the block is swapped up.
    Rows below the pivot row never change the rows above them, so the
    block's rows then hold what eliminating the block alone would leave,
    and it is nonsingular with its last pivot at [block-1][block-1]. When
    some column has no nonzero entry in the block's remaining rows, the
    block alone would leave that column without a pivot: it is singular,
    and `lead` is None.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    prev = 1
    own = block > 0
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        pivot = next((r for r in range(pr, nrows) if m[r][pc] != 0), None)
        if pc < block and (pivot is None or pivot >= block):
            own = False
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        row = m[pr]
        pv = row[pc]
        # column pc below the pivot, and every column left of it, is never
        # read again, so only columns right of pc are updated
        tail = row[pc + 1:]
        for other in m[pr + 1:]:
            f = other[pc]
            if f != 0:
                other[pc + 1:] = [(pv * x - f * y) // prev
                                  for x, y in zip(other[pc + 1:], tail)]
            elif pv != prev:
                other[pc + 1:] = [pv * x // prev for x in other[pc + 1:]]
        prev = pv
        pivots.append(pc)
    rank = len(pivots)
    if any(m[r][ncols] != 0 for r in range(rank, nrows)):
        raise RankDeficientError("inconsistent fitting system",
                                 deficiency=ncols - rank)
    lead = (_back_substitute(m, pivots[:block], m[block - 1][block - 1], block)
            if own else None)
    return _back_substitute(m, pivots, prev, ncols), ncols - rank, lead


def _offsets(cfg):
    """Where Q_0..Q_M and P start in the unknowns q_{0,0..N_0}, ...,
    q_{M,0..N_M}, p_0..p_L; the last entry is the number of unknowns."""
    return list(itertools.accumulate([d + 1 for d in cfg.degrees] +
                                     [cfg.inhomog_degree + 1], initial=0))


def _fitting_rows(coeffs, cfg):
    """The N matching equations, one row of integer multipliers over all
    unknowns each."""
    offsets = _offsets(cfg)
    p_off = offsets[cfg.order + 1]
    rows = []
    for m in range(cfg.matched_terms):
        row = [0] * offsets[-1]
        for k, d in enumerate(cfg.degrees):
            for j in range(min(d, m) + 1):
                row[offsets[k] + j] = (m - j) ** k * coeffs[m - j]
        if m <= cfg.inhomog_degree:
            row[p_off + m] = -1
        rows.append(row)
    return rows


def _approximant(cfg, cols, sol, deficiency, pinned):
    """The approximant whose unknowns at `cols` are `sol`; the pinned unknown,
    the one `cols` leaves out, is 1."""
    offsets = _offsets(cfg)
    full = [Fraction(1)] * offsets[-1]
    for j, v in zip(cols, sol):
        full[j] = v
    qs = [full[offsets[k]: offsets[k + 1]] for k in range(cfg.order + 1)]
    return DifferentialApproximant(qs=qs, p=full[offsets[-2]:], config=cfg,
                                   deficiency=deficiency, pinned=pinned)


def _fit(coeffs, cfg, pinned="q_M_constant", twin=None):
    """(fit of `cfg`, fit of `twin` or None) from one `_solve_rational`, with
    the `pinned` coefficient of Q_M, its constant or its leading one, set to
    1 and its column moved to the right-hand side.

    `twin` is (small, k), where `small` is `cfg` with Q_k one degree lower,
    under the constant pin only: the column of q_{k,N_k} is put last, and
    the small fit is built when the twin invariant of the module docstring
    holds. Raises when there are too few coefficients or the system is
    inconsistent."""
    n_eq = cfg.matched_terms
    if len(coeffs) < n_eq + 1:
        raise InsufficientTermsError(
            f"need {n_eq + 1} coefficients including the constant, have {len(coeffs)}")
    offsets = _offsets(cfg)
    pin = offsets[cfg.order] if pinned == "q_M_constant" else offsets[cfg.order + 1] - 1
    cols = [j for j in range(offsets[-1]) if j != pin]
    if twin is not None:
        drop = offsets[twin[1] + 1] - 1     # q_{k,N_k}, which `small` lacks
        cols.remove(drop)
        cols.append(drop)
    rows = _fitting_rows(coeffs, cfg)
    sol, deficiency, lead = _solve_rational([[r[j] for j in cols] for r in rows],
                                            [-r[pin] for r in rows],
                                            len(cols) - 1 if twin is not None else 0)
    fit = _approximant(cfg, cols, sol, deficiency, pinned)
    if deficiency or lead is None:
        return fit, None
    return fit, _approximant(twin[0], [j - (j > drop) for j in cols[:-1]], lead,
                             0, pinned)


def fit_da(c: CoefficientSeries, cfg: DAConfig) -> DifferentialApproximant:
    """Fit the ODE by exact fraction-free integer elimination.

    The constant coefficient of Q_M is pinned to 1; if that makes the system
    inconsistent the highest-degree coefficient of Q_M is pinned instead.
    Consistent rank-deficient systems succeed with free unknowns set to zero
    (the deficiency is recorded); only inconsistency raises.
    """
    coeffs = _full_coefficients(c)
    try:
        return _fit(coeffs, cfg)[0]
    except RankDeficientError:
        return _fit(coeffs, cfg, "q_M_leading")[0]


def _lowered(big, small):
    """k when `small` is `big` with the degree of Q_k one lower, else None."""
    if (big.order, big.inhomog_degree) != (small.order, small.inhomog_degree):
        return None
    gaps = [a - b for a, b in zip(big.degrees, small.degrees)]
    if sorted(gaps) != [0] * (len(gaps) - 1) + [1]:
        return None
    return gaps.index(1)


def _fit_twins(coeffs, big, small, k):
    """(fit of `big`, fit of `small`) from one `_fit`, where `small` is `big`
    with Q_k one degree lower; None unless both fits are shared under the
    twin invariant of the module docstring."""
    try:
        both = _fit(coeffs, big, twin=(small, k))
    except (InsufficientTermsError, RankDeficientError):
        return None
    return both if both[1] is not None else None


def fit_defects(da: DifferentialApproximant, c: CoefficientSeries) -> list:
    """Exact defects of the fit's own matching equations, the rows of
    `_fitting_rows` times its unknowns; all zero for a faithful fit."""
    unknowns = [v for q in da.qs for v in q] + da.p
    return [sum(a * x for a, x in zip(row, unknowns))
            for row in _fitting_rows(_full_coefficients(c), da.config)]


def _extend_values(da, coeffs, count, exact, dps):
    """Continue the sequence `coeffs` by `count` values using the integer
    recurrence: the multiplier terms are subtracted from P_m and the result
    is divided once by A(m), to an exact Fraction or to an mpf at `dps`."""
    _, qs, p = _integer_recurrence(da)
    known = list(coeffs)
    start = len(known)
    with mpmath.workdps(dps):
        for m in range(start, start + count):
            a, *ts = _recurrence_row(qs, m)
            if a == 0:
                raise VanishingMultiplierError(
                    f"recurrence multiplier vanishes at index {m}", m)
            acc = p[m] if m < len(p) else 0
            for j, t in enumerate(ts, 1):
                acc -= t * known[m - j]
            known.append(Fraction(acc, a) if exact else mpf(acc) / a)
    return known[start:]


def recurrence_extend(da: DifferentialApproximant, c: CoefficientSeries,
                      count: int, dps=DEFAULT_DPS) -> RealSeries:
    """Predict `count` coefficients beyond the series at working precision."""
    coeffs = _full_coefficients(c)
    vals = _extend_values(da, coeffs, count, exact=False, dps=dps)
    return RealSeries(vals, first_index=c.last_index + 1, dps=dps)


def recurrence_extend_exact(da: DifferentialApproximant, c: CoefficientSeries,
                            count: int) -> list:
    """Exact rational continuation (Fractions)."""
    coeffs = _full_coefficients(c)
    return _extend_values(da, coeffs, count, exact=True, dps=DEFAULT_DPS)


def _poly_mpf(coeffs, dps, scale):
    """Fraction coefficients -> mpf list, divided by a shared scale.

    Polynomials entering a ratio must share one scale or the ratio changes.
    """
    if scale == 0:
        return [mpf(0) for _ in coeffs]
    return [to_mpf(v / scale, dps) for v in coeffs]


def singularities(da: DifferentialApproximant, dps=DEFAULT_DPS) -> list:
    """Roots of Q_M with local exponents from the indicial equation.

    Exponents follow the F ~ C*(1 - z/z_c)^(-gamma) convention: a simple pole
    reports gamma = 1, a square-root branch point gamma = -1/2. Roots at the
    origin and non-simple roots carry the multiplicity flag and no exponent;
    roots are told apart to dps // 2 digits.
    """
    M = da.order
    scale = max(abs(v) for poly in (da.qs[M], da.qs[M - 1]) for v in poly)
    qm = _poly_mpf(da.qs[M], dps, scale=scale)
    while qm and qm[-1] == 0:
        qm.pop()
    if len(qm) <= 1:
        return []
    with mpmath.workdps(dps):
        tol = mpf(10) ** (-(dps // 2))
        coeffs_desc = list(reversed(qm))
        # Durand-Kerner converges only linearly on a multiple root, in steps
        # that grow with the digits asked for: (1 - 2z)^2 takes 80 steps at
        # dps 30, 250 at dps 100 and 490 at dps 200. polyroots stops once
        # converged, so a larger cap changes no converged result.
        roots = mpmath.polyroots(coeffs_desc, maxsteps=max(200, 4 * dps),
                                 extraprec=4 * dps)
        qm1_desc = list(reversed(_poly_mpf(da.qs[M - 1], dps, scale=scale)))
        dqm_desc = [j * qm[j] for j in range(len(qm) - 1, 0, -1)]
        reports = []
        for z in roots:
            resid = abs(mpmath.polyval(coeffs_desc, z))
            dval = mpmath.polyval(dqm_desc, z)
            near_twin = any(abs(z - w) < tol * max(1, abs(z)) for w in roots
                            if w is not z)
            if abs(z) < tol or abs(dval) < tol or near_twin:
                reports.append(SingularityReport(z, None, True, resid))
                continue
            gamma = 1 - M + mpmath.polyval(qm1_desc, z) / (z * dval)
            reports.append(SingularityReport(z, gamma, False, resid))
        reports.sort(key=lambda r: (abs(r.location), r.location.real))
        return reports


def default_ensemble(budget, orders=(1, 2, 3)) -> list:
    """Near-balanced degree vectors consuming most of `budget` coefficients.

    For each order and inhomogeneous degree the base vector is balanced; a
    second variant lowers the degree of Q_0 by one (all degree gaps <= 2).
    With base >= 2 every config matches 4..budget terms, and distinct orders
    give distinct configs.
    """
    out = []
    for M in orders:
        for L in (-1, 0, 1):
            base = (budget - L) // (M + 1) - 1
            if base < 2:
                continue
            for drop in (0, 1):
                degs = [base - drop] + [base] * M
                out.append(DAConfig(order=M, degrees=tuple(degs), inhomog_degree=L))
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
    if lo <= 0 < hi:
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


def predict_ensemble(c: CoefficientSeries, cfgs, count,
                     dps=DEFAULT_DPS) -> PredictionResult:
    """Extend the series with every approximant that fits, then aggregate
    per index: values beyond MAD_MULTIPLIER median absolute deviations from
    the median are excluded, unless fewer than three values would be left,
    and the mean of the rest is reported together with the
    shared-leading-digits count and the standard deviation. MAD keeps at
    least half of the values, so only ensembles of fewer than five fits can
    keep them all.

    Twins are paired off greedily in sorted order, each config in one pair
    at most, and each pair is fitted from one elimination (`_fit_twins`)
    under the twin invariant of the module docstring. Any other config is
    fitted by `fit_da`, and the result is the same as fitting every config
    alone."""
    cfgs = sorted(cfgs, key=DAConfig.sort_key)
    coeffs = _full_coefficients(c)
    shared, paired = {}, set()
    for i, j in itertools.permutations(range(len(cfgs)), 2):
        k = _lowered(cfgs[i], cfgs[j])
        if k is None or paired & {i, j}:
            continue
        paired |= {i, j}
        both = _fit_twins(coeffs, cfgs[i], cfgs[j], k)
        if both is not None:
            shared[i], shared[j] = both
    fits, failures = [], []
    for i, cfg in enumerate(cfgs):
        try:
            da = shared[i] if i in shared else fit_da(c, cfg)
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
            med = statistics.median(v for _, v in vals)
            mad = statistics.median(abs(v - med) for _, v in vals)
            off = [abs(v - med) > MAD_MULTIPLIER * mad if mad > 0 else v != med
                   for _, v in vals]
            if len(vals) - sum(off) < 3:
                off = [False] * len(vals)  # too few would agree: keep every fit
            kept = [v for (_, v), o in zip(vals, off) if not o]
            excluded += [(c.last_index + 1 + i, cfg, v)
                         for (cfg, v), o in zip(vals, off) if o]
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
