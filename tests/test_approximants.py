"""Differential approximants: exact fits, singularity extraction, series
extension, ensemble aggregation."""

import dataclasses
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from ascentlab import approximants as ap
from ascentlab import dp
from ascentlab import io as aio
from ascentlab.errors import (AllFitsFailedError, InsufficientTermsError,
                              RankDeficientError, VanishingMultiplierError)
from ascentlab.series import CoefficientSeries, to_mpf

mpmath.mp.dps = 60

REF_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "ref"


def catalan_series(n):
    return CoefficientSeries([math.comb(2 * k, k) // (k + 1) for k in range(1, n + 1)])


def _noise(n):
    rng = random.Random(42)
    return CoefficientSeries([rng.randrange(1, 10 ** 6) for _ in range(n)])


def test_config_validation():
    with pytest.raises(ValueError):
        ap.DAConfig(order=0, degrees=(1,))
    with pytest.raises(ValueError):
        ap.DAConfig(order=1, degrees=(1,))
    with pytest.raises(ValueError):
        ap.DAConfig(order=1, degrees=(1, 1), inhomog_degree=-2)
    cfg = ap.DAConfig(order=2, degrees=(3, 3, 3), inhomog_degree=1)
    assert cfg.matched_terms == 1 + 12


@pytest.mark.parametrize("call,message", [
    (lambda: ap.DAConfig(order=1, degrees=(1, -1)), "degrees must be non-negative"),
    (lambda: ap.fit_da(CoefficientSeries([1, 1, 2, 5, 14, 42], first_index=0),
                       ap.DAConfig(order=1, degrees=(1, 1))),
     "series must start at index 1"),
], ids=["negative-degree", "first-index"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_geometric_exact():
    geo = CoefficientSeries([2 ** n for n in range(1, 13)])
    da = ap.fit_da(geo, ap.DAConfig(order=1, degrees=(1, 1)))
    # recovers theta(F)*(1-2z) - 2z*F = 0 under the constant-term pin
    assert da.qs[1] == [Fraction(1), Fraction(-2)]
    assert da.qs[0] == [Fraction(0), Fraction(-2)]
    assert all(v == 0 for v in ap.fit_defects(da, geo))
    sings = ap.singularities(da)
    assert len(sings) == 1
    assert abs(sings[0].location - mpf("0.5")) < mpf(10) ** -50
    assert abs(sings[0].exponent - 1) < mpf(10) ** -50  # simple pole: gamma = 1
    assert ap.recurrence_extend_exact(da, geo, 5) == [2 ** n for n in range(13, 18)]
    ext = ap.recurrence_extend(da, geo, 5)
    assert ext.first_index == 13
    assert all(abs(v - 2 ** n) < mpf(10) ** -40
               for v, n in zip(ext.values, range(13, 18)))


def test_catalan_fit_singularity_and_extension():
    cat = catalan_series(30)
    da = ap.fit_da(cat, ap.DAConfig(order=1, degrees=(8, 8), inhomog_degree=2))
    assert all(v == 0 for v in ap.fit_defects(da, cat))
    best = min(ap.singularities(da), key=lambda s: abs(s.location - mpf("0.25")))
    assert abs(best.location - mpf("0.25")) < mpf(10) ** -8
    assert abs(best.exponent + mpf("0.5")) < mpf(10) ** -6
    true = [math.comb(2 * k, k) // (k + 1) for k in range(31, 41)]
    assert ap.recurrence_extend_exact(da, cat, 10) == true


def test_insufficient_terms():
    cat = catalan_series(10)
    with pytest.raises(InsufficientTermsError):
        ap.fit_da(cat, ap.DAConfig(order=1, degrees=(8, 8), inhomog_degree=2))


def test_random_noise_fit_is_handled():
    noise = _noise(25)
    try:
        da = ap.fit_da(noise, ap.DAConfig(order=2, degrees=(3, 3, 3), inhomog_degree=0))
    except RankDeficientError:
        return  # flagged, no crash
    assert all(v == 0 for v in ap.fit_defects(da, noise))
    ap.singularities(da)  # roots may be spurious; extraction must not crash


def _fraction_gauss_jordan(rows, rhs):
    """Reference solve: Gauss-Jordan over Fractions, pivoting on the first
    nonzero entry of each column, free unknowns zero."""
    nrows, ncols = len(rows), len(rows[0])
    m = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []
    for pc in range(ncols):
        pr = len(pivots)
        pivot = next((r for r in range(pr, nrows) if m[r][pc] != 0), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        m[pr] = [v / m[pr][pc] for v in m[pr]]
        for r in range(nrows):
            if r != pr:
                f = m[r][pc]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
    deficiency = ncols - len(pivots)
    if any(m[r][ncols] != 0 for r in range(len(pivots), nrows)):
        raise RankDeficientError("inconsistent", deficiency=deficiency)
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = m[r][ncols]
    return sol, deficiency


def _outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)[:2]
    except RankDeficientError as exc:
        return "inconsistent", exc.deficiency


@st.composite
def integer_systems(draw, consistent=False):
    """A = B*C of rank <= r with a few entries overwritten, b = A*x, and,
    unless `consistent`, b sometimes perturbed so that the system may be
    inconsistent."""
    small = st.integers(-4, 4)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    b_ = draw(st.lists(st.lists(small, min_size=rank, max_size=rank),
                       min_size=nrows, max_size=nrows))
    c_ = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols),
                       min_size=rank, max_size=rank))
    rows = [[sum(b_[i][k] * c_[k][j] for k in range(rank)) for j in range(ncols)]
            for i in range(nrows)]
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                           st.integers(0, ncols - 1),
                                           st.integers(-9, 9)), max_size=2)):
        rows[i][j] = v
    x = draw(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols))
    rhs = [sum(a * v for a, v in zip(r, x)) for r in rows]
    for i, d in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                        st.integers(-3, 3)),
                              max_size=0 if consistent else 1)):
        rhs[i] += d
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(integer_systems())
def test_integer_solve_matches_fraction_reference(system):
    rows, rhs = system
    got = _outcome(ap._solve_rational, rows, rhs)
    assert got == _outcome(_fraction_gauss_jordan, rows, rhs)
    if got[0] != "inconsistent":
        assert all(isinstance(v, Fraction) for v in got[0])


@settings(max_examples=400, deadline=None)
@given(integer_systems(consistent=True), st.integers(1, 6))
# column 0 of the block is zero and row 2 below it is not: row 2 is swapped
# up, and the block is singular although the whole system is not
@example(([[0, 1, 0], [0, 2, 1], [1, 0, 0]], [1, 2, 3]), 2)
# column 1 is zero below the first pivot in every row: no pivot at all
@example(([[1, 2, 0], [2, 4, 0], [0, 0, 1]], [1, 2, 3]), 2)
def test_leading_block_solution_matches_fraction_reference(system, block):
    # the leading block's solution is declined exactly when the block is
    # singular, which covers a row below the block being swapped up (the
    # block alone would have no pivot in that column); otherwise it is the
    # block's own Gauss-Jordan solution, and the whole system's result is
    # unchanged
    rows, rhs = system
    block = min(block, len(rows), len(rows[0]))
    sol, deficiency, lead = ap._solve_rational(rows, rhs, block)
    assert (sol, deficiency) == _fraction_gauss_jordan(rows, rhs)
    alone = _outcome(_fraction_gauss_jordan, [r[:block] for r in rows[:block]],
                     rhs[:block])
    assert lead == (alone[0] if alone[1] == 0 else None)
    assert ap._solve_rational(rows, rhs)[2] is None


def _big(rng, bits):
    return rng.getrandbits(bits) - (1 << (bits - 1))


def _low_rank(rng, nrows, ncols, rank, bits):
    """B*C of the given rank, entries of about `bits` bits."""
    b_ = [[_big(rng, bits // 2) for _ in range(rank)] for _ in range(nrows)]
    c_ = [[_big(rng, bits // 2) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(b_[i][k] * c_[k][j] for k in range(rank)) for j in range(ncols)]
            for i in range(nrows)]


def test_integer_solve_matches_fraction_reference_at_da_scale():
    # DA-sized systems with entries of a few hundred bits. The full-rank one
    # is zero below a band, so rows with a zero in the pivot column are
    # rescaled; the other two have free unknowns, and the last one a
    # right-hand side outside the column space
    rng = random.Random(14)
    full = [[_big(rng, 256) if i <= j + 3 else 0 for j in range(24)]
            for i in range(26)]
    deficient = _low_rank(rng, 27, 25, 20, 256)
    inconsistent = _low_rank(rng, 26, 24, 19, 256)
    for rows, perturb, deficiency in ((full, 0, 0), (deficient, 0, 5),
                                      (inconsistent, 1, 5)):
        x = [_big(rng, 256) for _ in rows[0]]
        rhs = [sum(a * v for a, v in zip(r, x)) for r in rows]
        rhs[-1] += perturb
        got = _outcome(ap._solve_rational, rows, rhs)
        assert got == _outcome(_fraction_gauss_jordan, rows, rhs)
        assert got[1] == deficiency
        assert (got[0] == "inconsistent") == bool(perturb)


def test_default_ensemble_fits_are_exact_on_000():
    # every member of the CLI's ensemble fits the 000 n=60 reference prefix
    # and reproduces each coefficient it matches
    ref = aio.read_bfile(REF_DIR / "000.b").exact.truncate(60)
    for cfg in ap.default_ensemble(44):
        da = ap.fit_da(ref, cfg)
        assert all(v == 0 for v in ap.fit_defects(da, ref)), cfg


def _fit_000_inhomogeneous():
    ref = aio.read_bfile(REF_DIR / "000.b").exact.truncate(60)
    return ref, ap.fit_da(ref, ap.DAConfig(order=1, degrees=(20, 20), inhomog_degree=1))


def test_fit_defects_detect_a_wrong_fit():
    # equation m reads sum_kj q_kj (m-j)^k c_{m-j} - p_m = defect_m, so a
    # shift of p_k moves defect k alone, and a shift of q_0j moves every
    # defect m >= j by the shift times c_{m-j}
    ref, da = _fit_000_inhomogeneous()
    coeffs = [1] + ref.values
    delta = Fraction(1, 7)
    n_eq = da.config.matched_terms
    for k in range(len(da.p)):
        p = list(da.p)
        p[k] += delta
        wrong = dataclasses.replace(da, p=p)
        assert ap.fit_defects(wrong, ref) == [-delta if m == k else 0 for m in range(n_eq)]
    j = 3
    q0 = list(da.qs[0])
    q0[j] += delta
    wrong = dataclasses.replace(da, qs=[q0] + da.qs[1:])
    assert ap.fit_defects(wrong, ref) == [delta * coeffs[m - j] if m >= j else 0
                                          for m in range(n_eq)]


def _recurrence_defects(da, c):
    """The defects of the z^m equations for m < N as the extension's integer
    recurrence reads them: A(m)*c_m + sum_j T_j(m)*c_{m-j} - P_m over the
    common denominator."""
    coeffs = [1] + c.values
    den, qs, p = ap._integer_recurrence(da)
    return [Fraction(sum(t * coeffs[m - j] for j, t in enumerate(ap._recurrence_row(qs, m)))
                     - (p[m] if m < len(p) else 0), den)
            for m in range(da.config.matched_terms)]


def _shifted_fits(da):
    """`da` with each p_k, and then q_{0,3}, moved by 1/7, as in
    `test_fit_defects_detect_a_wrong_fit`."""
    delta = Fraction(1, 7)
    for k in range(len(da.p)):
        yield dataclasses.replace(da, p=[v + delta * (j == k) for j, v in enumerate(da.p)])
    q0 = [v + delta * (j == 3) for j, v in enumerate(da.qs[0])]
    yield dataclasses.replace(da, qs=[q0] + da.qs[1:])


def test_fit_defects_equal_the_extension_recurrence():
    # fit_defects reads the fitting rows and the extension reads the integer
    # recurrence: both are the z^m matching equation, so they must agree on
    # every matched term, for faithful fits and for wrong ones
    ref, da = _fit_000_inhomogeneous()
    cases = [(ref, fit) for fit in [da, *_shifted_fits(da)]]
    for name in ("ascent", "000", "100", "110", "120"):
        c, cfgs = _ref_case(name)
        cases.append((c, ap.fit_da(c, cfgs[-1])))
    for c, fit in cases:
        assert ap.fit_defects(fit, c) == _recurrence_defects(fit, c), fit.config


def test_real_extension_matches_exact():
    # the two paths share the integer recurrence and differ only in the
    # final division of each term
    ref, da = _fit_000_inhomogeneous()
    real = ap.recurrence_extend(da, ref, 10, dps=60)
    exact = ap.recurrence_extend_exact(da, ref, 10)
    assert real.first_index == 61 and len(exact) == 10
    for r, e in zip(real.values, exact):
        e = to_mpf(e, 60)
        assert abs(r - e) <= abs(e) * mpf(10) ** -55


def test_fit_falls_back_to_leading_pin():
    # sum n! z^n forces Q_1(0) = 0: pinning it to 1 is inconsistent, so the
    # leading coefficient of Q_1 is pinned and the fit is c_m = m c_{m-1}
    fact = CoefficientSeries([math.factorial(n) for n in range(1, 13)])
    da = ap.fit_da(fact, ap.DAConfig(order=1, degrees=(1, 1), inhomog_degree=0))
    assert da.pinned == "q_M_leading" and da.deficiency == 0
    assert da.qs == [[Fraction(-1), Fraction(1)], [Fraction(0), Fraction(1)]]
    assert da.p == [Fraction(-1)]
    assert all(v == 0 for v in ap.fit_defects(da, fact))
    assert ap.recurrence_extend_exact(da, fact, 4) == [math.factorial(n)
                                                       for n in range(13, 17)]


def test_manufactured_exponent_formula():
    # Q_M with known linear factors: roots recovered to high precision and
    # the exponent matches the indicial formula evaluated symbolically
    q2 = [Fraction(1), Fraction(-7, 2), Fraction(3, 2)]  # (1 - 3z)(1 - z/2)
    q1 = [Fraction(2), Fraction(1)]
    da = ap.DifferentialApproximant(
        qs=[[Fraction(1)], q1, q2], p=[],
        config=ap.DAConfig(order=2, degrees=(0, 1, 2)))
    sings = ap.singularities(da)
    assert len(sings) == 2
    for s in sings:
        z = s.location
        q2_prime = mpf("-3.5") + 2 * mpf("1.5") * z
        want = 1 - 2 + (2 + z) / (z * q2_prime)
        assert abs(s.exponent - want) < mpf(10) ** -45
    locs = sorted(abs(s.location) for s in sings)
    assert abs(locs[0] - mpf(1) / 3) < mpf(10) ** -12
    assert abs(locs[1] - 2) < mpf(10) ** -12


def test_multiple_root_flagged():
    q2 = [Fraction(1), Fraction(-4), Fraction(4)]  # (1 - 2z)^2
    da = ap.DifferentialApproximant(
        qs=[[Fraction(1)], [Fraction(1)], q2], p=[],
        config=ap.DAConfig(order=2, degrees=(0, 0, 2)))
    # Durand-Kerner converges only linearly on the double root, in more
    # steps the more digits are asked for
    for dps in (30, 60, 100):
        sings = ap.singularities(da, dps=dps)
        assert sings and all(s.multiple and s.exponent is None for s in sings), dps


def test_origin_root_flagged():
    q1 = [Fraction(0), Fraction(1)]  # z
    da = ap.DifferentialApproximant(
        qs=[[Fraction(1)], q1], p=[],
        config=ap.DAConfig(order=1, degrees=(0, 1)))
    sings = ap.singularities(da)
    assert len(sings) == 1 and sings[0].multiple and sings[0].exponent is None


@pytest.mark.parametrize("qs", [
    [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(0)]],   # Q_M constant
    [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],   # Q_M = Q_{M-1} = 0
], ids=["constant-q-m", "zero-q-m-and-q-m-1"])
def test_singularities_of_degenerate_q_m(qs):
    da = ap.DifferentialApproximant(qs=qs, p=[],
                                    config=ap.DAConfig(order=1, degrees=(1, 1)))
    assert ap.singularities(da) == []


def test_vanishing_multiplier():
    # A(m) = q_{1,0} m + q_{0,0} = m - 3 vanishes at m = 3
    da = ap.DifferentialApproximant(
        qs=[[Fraction(-3), Fraction(1)], [Fraction(1), Fraction(1)]], p=[],
        config=ap.DAConfig(order=1, degrees=(1, 1)))
    tiny = CoefficientSeries([1, 1])
    with pytest.raises(VanishingMultiplierError) as err:
        ap.recurrence_extend(da, tiny, 5)
    assert err.value.index == 3


def test_default_ensemble_shapes():
    cfgs = ap.default_ensemble(30)
    assert len(cfgs) >= 6
    assert all(c.matched_terms <= 30 for c in cfgs)
    assert all(max(c.degrees) - min(c.degrees) <= 2 for c in cfgs)
    assert cfgs == sorted(cfgs, key=ap.DAConfig.sort_key)
    assert len(set(cfgs)) == len(cfgs)


def test_ensemble_prediction_catalan():
    cat = catalan_series(30)
    pred = ap.predict_ensemble(cat, ap.default_ensemble(30), 10)
    true = [math.comb(2 * k, k) // (k + 1) for k in range(31, 41)]
    for v, t, d in zip(pred.values, true, pred.agreed_digits):
        assert abs(v - t) / t < mpf(10) ** -10
        assert d >= 0
    assert pred.agreed_digits[0] >= 12
    assert pred.first_index == 31


def test_ensemble_of_identical_configs_zero_spread():
    geo = CoefficientSeries([2 ** n for n in range(1, 15)])
    cfgs = [ap.DAConfig(order=1, degrees=(1, 1))] * 3
    pred = ap.predict_ensemble(geo, cfgs, 5)
    assert all(s == 0 for s in pred.spreads)
    assert all(abs(v - 2 ** n) < mpf(10) ** -40
               for v, n in zip(pred.values, range(15, 20)))


def test_common_digits_need_one_sign_and_one_decade():
    # agreed digits are a shared leading prefix: none across a sign change
    # or a power of ten, however close the values
    with mpmath.workdps(60):
        assert ap._common_digits(mpf("-1e-30"), mpf("1e-30"), 55) == 0
        assert ap._common_digits(mpf(0), mpf("1.5"), 55) == 0
        assert ap._common_digits(mpf("9.9999999"), mpf("10.000001"), 55) == 0
        assert ap._common_digits(mpf("123.45"), mpf("123.46"), 55) == 4
        assert ap._common_digits(mpf("2.5"), mpf("2.5"), 55) == 55


def test_ensemble_outlier_exclusion():
    # a deliberately corrupted member moves the reported mean by less than
    # the reported spread: the exclusion rule absorbs it
    cat = catalan_series(30)
    cfgs = ap.default_ensemble(28, orders=(1, 2))
    pred_clean = ap.predict_ensemble(cat, cfgs, 6)

    da_bad = ap.fit_da(cat, cfgs[0])
    da_bad.qs[0][1] += Fraction(1, 100)
    bad_vals = ap.recurrence_extend(da_bad, cat, 6).values
    fits = [ap.recurrence_extend(ap.fit_da(cat, cfg), cat, 6).values
            for cfg in cfgs]
    fits.append(bad_vals)

    with mpmath.workdps(60):
        for i in range(6):
            vals = sorted(v[i] for v in fits)
            med = vals[len(vals) // 2]
            devs = sorted(abs(v - med) for v in vals)
            mad = devs[len(devs) // 2]
            kept = [v for v in vals
                    if (abs(v - med) <= 3 * mad if mad > 0 else v == med)]
            assert bad_vals[i] not in kept  # the corrupted value is excluded
            dirty_mean = sum(kept) / len(kept)
            spread = pred_clean.spreads[i]
            assert abs(pred_clean.values[i] - dirty_mean) <= spread


def test_small_ensemble_keeps_every_fit():
    # with three fits, MAD could keep two that happen to agree and claim
    # their agreement; keeping every fit, each claim holds against the true
    # term within one unit of the last claimed digit
    exact = dp.enumerate_120(40)
    cfgs = [ap.DAConfig(order=2, degrees=(6, 6, 6), inhomog_degree=L)
            for L in (-1, 0, 1)]
    pred = ap.predict_ensemble(exact.truncate(30), cfgs, 10)
    assert pred.excluded == []
    with mpmath.workdps(80):
        for n, v, digits in zip(range(31, 41), pred.values, pred.agreed_digits):
            true = exact.at(n)
            assert abs(v - true) <= mpf(10) ** (len(str(true)) - digits), n


def _predict_one_by_one(c, cfgs, count, dps):
    """Reference ensemble: `predict_ensemble` as it reads with each config
    fitted alone by `fit_da`."""
    cfgs = sorted(cfgs, key=ap.DAConfig.sort_key)
    fits, failures = [], []
    for cfg in cfgs:
        try:
            da = ap.fit_da(c, cfg)
            fits.append((cfg, ap.recurrence_extend(da, c, count, dps=dps).values))
        except (RankDeficientError, InsufficientTermsError,
                VanishingMultiplierError) as exc:
            failures.append((cfg, str(exc)))
    means, digits, spreads, excluded = [], [], [], []
    with mpmath.workdps(dps):
        for i in range(count):
            vals = [(cfg, v[i]) for cfg, v in fits]
            med = statistics.median(v for _, v in vals)
            mad = statistics.median(abs(v - med) for _, v in vals)
            off = [abs(v - med) > ap.MAD_MULTIPLIER * mad if mad > 0 else v != med
                   for _, v in vals]
            if len(vals) - sum(off) < 3:
                off = [False] * len(vals)
            kept = [v for (_, v), o in zip(vals, off) if not o]
            excluded += [(c.last_index + 1 + i, cfg, v)
                         for (cfg, v), o in zip(vals, off) if o]
            mean = sum(kept) / len(kept)
            means.append(mean)
            spreads.append(mpmath.sqrt(sum((v - mean) ** 2 for v in kept) / len(kept)))
            digits.append(ap._common_digits(min(kept), max(kept), max(dps - 5, 1)))
    return ap.PredictionResult(first_index=c.last_index + 1, values=means,
                               agreed_digits=digits, spreads=spreads,
                               excluded=excluded,
                               configs_used=[cfg for cfg, _ in fits],
                               failures=failures)


def _ref_prefix(name):
    """The reference series cut at the CLI's term budget, 44."""
    ref = aio.read_bfile(REF_DIR / f"{name}.b").exact
    return ref.truncate(min(ref.last_index, 44))


def _ref_case(name):
    ref = _ref_prefix(name)
    return ref, ap.default_ensemble(ref.last_index)


def _shapes(*shapes):
    """Each degree vector at L = -1, 0 and 1, as `extend --order/--degrees`
    fits its shape and the shape with Q_0 or Q_M one degree lower."""
    return [ap.DAConfig(order=len(d) - 1, degrees=d, inhomog_degree=L)
            for d in shapes for L in (-1, 0, 1)]


_A = ap.DAConfig(order=1, degrees=(5, 5), inhomog_degree=0)
_NOT_ENOUGH = [ap.DAConfig(order=1, degrees=(12, 12), inhomog_degree=0),
               ap.DAConfig(order=1, degrees=(11, 12), inhomog_degree=0)]


# (series, configs, twins fitted together, twins fitted alone, eliminations):
# a shared pair costs one `_solve_rational` call, where fitting its two
# configs alone costs at least two
@pytest.mark.parametrize("case", [
    *[(lambda n=n: _ref_case(n), 9, 0, 9) for n in ("ascent", "000", "100", "110", "120")],
    (lambda: (_ref_prefix("120").truncate(30),
              _shapes((6, 6, 6), (5, 6, 6), (6, 6, 5))), 3, 0, 6),
    (lambda: (_ref_prefix("120").truncate(30), _shapes((6, 6, 6), (6, 6, 5))), 3, 0, 3),
    (lambda: (catalan_series(30), ap.default_ensemble(30)), 2, 7, 23),   # deficient
    # pin-high; its 41 include 8 repeated constant-pin eliminations (a FOUND
    # in CHANGES.md): each declined pair's larger config redoes in fit_da the
    # elimination that _fit_twins found inconsistent
    (lambda: (CoefficientSeries([math.factorial(n) for n in range(1, 25)]),
              ap.default_ensemble(14)), 1, 8, 41),
    (lambda: (CoefficientSeries([2 ** n for n in range(1, 25)]),
              ap.default_ensemble(20)), 0, 9, 27),                      # deficient
    # only the larger twin is deficient: its leading block is nonsingular
    (lambda: (CoefficientSeries([2 ** n for n in range(1, 25)]),
              [ap.DAConfig(order=1, degrees=(2, 2)), ap.DAConfig(order=1, degrees=(1, 2)),
               ap.DAConfig(order=1, degrees=(1, 1), inhomog_degree=0)]),
     0, 1, 4),
    (lambda: (_noise(25), ap.default_ensemble(24) + _NOT_ENOUGH), 9, 1, 10),  # too few terms
    (lambda: (_noise(25), [_A, _A, dataclasses.replace(_A, degrees=(4, 5)), _A]), 1, 0, 3),
], ids=["ascent", "000", "100", "110", "120", "120-order-degrees",
        "120-q-m-lowered", "catalan", "factorial", "geometric",
        "geometric-larger-deficient", "noise", "repeated-config"])
def test_ensemble_equals_fitting_each_config_alone(case, monkeypatch):
    # pairing twins changes no figure: every field of the result is that of
    # fitting each config alone, whether a pair's elimination is shared or
    # declined
    make, together, alone, eliminations = case
    c, cfgs = make()
    outcomes, solves = [], []
    fit_twins, solve = ap._fit_twins, ap._solve_rational

    def recording(*args):
        both = fit_twins(*args)
        outcomes.append(both is not None)
        return both
    monkeypatch.setattr(ap, "_fit_twins", recording)
    want = _predict_one_by_one(c, cfgs, 8, 40)
    monkeypatch.setattr(ap, "_solve_rational",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    assert ap.predict_ensemble(c, cfgs, 8, dps=40) == want
    assert (outcomes.count(True), outcomes.count(False)) == (together, alone)
    assert len(solves) == eliminations


def test_all_fits_failed():
    tiny = CoefficientSeries([1, 2])
    cfgs = [ap.DAConfig(order=1, degrees=(5, 5))] * 4
    with pytest.raises(AllFitsFailedError):
        ap.predict_ensemble(tiny, cfgs, 3)


def test_extension_feeds_analysis():
    # predictions on the ascent series match later exact terms to >= 6 digits
    asc = dp.enumerate_ascent(45)
    head = asc.truncate(40)
    pred = ap.predict_ensemble(head, ap.default_ensemble(38, orders=(1, 2, 3)), 5)
    for i, v in enumerate(pred.values):
        true = mpf(asc.at(41 + i))
        assert abs(v - true) / true < mpf(10) ** -6, i
