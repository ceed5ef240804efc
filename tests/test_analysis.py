"""Series-analysis estimators: exactness, cancellation identities, and
parameter recovery on exact-model synthetic series."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from ascentlab import analysis as an
from ascentlab import dp
from ascentlab.errors import InsufficientTermsError
from ascentlab.series import CoefficientSeries, RealSeries

import synthetic as sy

mpmath.mp.dps = 60

STRETCHED = sy.StretchedFitParams(mu=7.2958969, sigma=0.375, log_mu1=-9.675,
                                  g=2, C=3700)


def test_param_validation():
    with pytest.raises(ValueError):
        sy.StretchedFitParams(mu=-1, sigma=0.5, log_mu1=0, g=0)
    with pytest.raises(ValueError):
        sy.StretchedFitParams(mu=1, sigma=1.5, log_mu1=0, g=0)
    with pytest.raises(ValueError):
        sy.FactorialFitParams(alpha=0, mu=1)


def test_ratios_golden_and_exact():
    asc = dp.enumerate_ascent(6)
    r = an.ratios(asc)
    assert r.first_index == 2 and r.last_index == 6
    assert abs(r.at(6) - mpf(217) / 53) < mpf(10) ** -55
    const = CoefficientSeries([7] * 10)
    assert all(v == 1 for v in an.ratios(const).values)
    geo = CoefficientSeries([3 ** k for k in range(1, 12)])
    assert all(abs(v - 3) < mpf(10) ** -55 for v in an.ratios(geo).values)


def test_ratios_of_factorially_large_values_stay_exact():
    c = CoefficientSeries([math.factorial(3 * n) for n in range(1, 120)])
    r = an.ratios(c)
    n = 100
    expect = mpf(math.factorial(3 * n)) / mpf(math.factorial(3 * n - 3))
    assert abs(r.at(n) / expect - 1) < mpf(10) ** -55


def test_egf_ratios():
    c = CoefficientSeries([math.factorial(k) for k in range(1, 30)])
    r = an.egf_ratios(c)
    assert all(abs(v - 1) < mpf(10) ** -55 for v in r.values)
    c2 = CoefficientSeries([math.factorial(k) * 2 ** k for k in range(1, 30)])
    assert all(abs(v - 2) < mpf(10) ** -55 for v in an.egf_ratios(c2).values)


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        an.ratios(RealSeries([mpf(1), mpf(0), mpf(2)], 1, 60))


def test_linear_intercepts_cancel_1_over_n_exactly():
    mu, g = mpf(3.5), mpf(2)
    r = RealSeries([mu * (1 + g / n) for n in range(2, 40)], 2, 60)
    l = an.linear_intercepts(r)
    assert all(abs(v - mu) < mpf(10) ** -50 for v in l.values)
    const = RealSeries([mpf(4)] * 10, 2, 60)
    assert all(abs(v - 4) < mpf(10) ** -55 for v in an.linear_intercepts(const).values)


def test_quadratic_intercepts_cancel_1_over_n2_exactly():
    mu, h = mpf(3.5), mpf(5)
    l = RealSeries([mu * (1 + h / (n * n)) for n in range(2, 40)], 2, 60)
    l2 = an.quadratic_intercepts(l)
    assert all(abs(v - mu) < mpf(10) ** -50 for v in l2.values)


def test_pipeline_residual_identity():
    # composing l then l2 on mu(1 + g/n + h/n^2) leaves exactly
    # mu*h/((2n-1)(n-1)(n-2)), an O(1/n^3) residue rather than zero
    mu, g, h = mpf(3.5), mpf(2), mpf(5)
    r = RealSeries([mu * (1 + g / n + h / (n * n)) for n in range(2, 60)], 2, 60)
    _, l2, l3 = an.intercept_pipeline(r)
    for n in l2.indices():
        expect = mu * (1 + h / mpf((2 * n - 1) * (n - 1) * (n - 2)))
        assert abs(l2.at(n) - expect) < mpf(10) ** -45
    # and the 000 series pipeline lands on the conjectured growth constant
    c000 = dp.enumerate_000_polynomial(60)
    r000 = an.egf_ratios(c000)
    _, _, l3r = an.intercept_pipeline(r000)
    assert abs(l3r.values[-1] - mpf('0.2702')) < mpf('0.001')


def test_index_discipline():
    c = CoefficientSeries([1, 2, 6, 24, 120, 720], first_index=1)
    r = an.ratios(c)
    assert r.first_index == 2
    assert abs(r.at(4) - 4) < mpf(10) ** -55  # 24/6 sits at absolute index 4
    l = an.linear_intercepts(r)
    assert l.first_index == 3
    l2 = an.quadratic_intercepts(l)
    assert l2.first_index == 4
    # every transform of consecutive terms starts one index after its input
    s = sy.synth_series(STRETCHED, 12, dps=60)
    for first in (0, 2):
        c2 = RealSeries(s.values, first, 60)
        r2 = an.ratios(c2)
        for out in (an.linear_intercepts(r2), an.quadratic_intercepts(r2),
                    an.sigma_local_gradient_known_mu(r2, STRETCHED.mu)):
            assert out.first_index == first + 2 and len(out) == len(r2) - 1
        m = an.mu1_refined(c2, STRETCHED.mu, STRETCHED.sigma, STRETCHED.g)
        assert m.first_index == first + 1 and len(m) == len(c2) - 1
        assert an.sigma_estimator_ratio(r2).ns[0] == first + 2
        assert an.g_estimator(c2, STRETCHED.mu, STRETCHED.sigma).ns[0] == first + 1
    fact = [math.factorial(n) for n in range(12)]
    t2 = an.sigma_estimator_root(CoefficientSeries(fact[2:], first_index=2))
    assert not t2.skipped and t2.ns[0] == 3
    # a series indexed from 0 has no pair at n = 1 (c_0^{1/0}); the trace
    # starts at n = 2 and matches the same values indexed from 1 there on
    t0 = an.sigma_estimator_root(CoefficientSeries(fact, first_index=0))
    t1 = an.sigma_estimator_root(CoefficientSeries(fact[1:], first_index=1))
    assert not t0.skipped and t0.ns[0] == 2
    assert t0.ns == t1.ns and t0.y == t1.y


def test_sigma_estimators_on_synthetic():
    s = sy.synth_series(STRETCHED, 200, dps=60)
    r = an.ratios(s)
    t1 = an.sigma_estimator_ratio(r)
    t2 = an.sigma_estimator_root(s)
    # raw local gradients converge as O(1/n^sigma); extrapolate in that
    # abscissa as the trace is meant to be read
    e1 = an.neville_extrapolate([mpf(n) ** mpf(-0.375) for n in t1.gradient_ns[-6:]],
                                t1.gradients[-6:], 60)
    e2 = an.neville_extrapolate([mpf(n) ** mpf(-0.375) for n in t2.gradient_ns[-6:]],
                                t2.gradients[-6:], 60)
    assert abs(e1 - mpf("-1.625")) < mpf("0.02")
    assert abs(e2 - mpf("-1.625")) < mpf("0.02")
    # leading-order agreement between the two estimators on the same input
    assert abs(t1.gradients[-1] - t2.gradients[-1]) < mpf("0.15")


def test_sigma_estimator_pure_power_gradient():
    # mu1 = 1: the stretched term is absent and r_n/r_{n-1} - 1 = O(1/n^2),
    # so the log-log gradient tends to -2
    p = sy.StretchedFitParams(mu=2, sigma=0.5, log_mu1=0, g=3, C=1)
    s = sy.synth_series(p, 120, dps=60)
    t = an.sigma_estimator_ratio(an.ratios(s))
    assert abs(t.gradients[-1] + 2) < mpf("0.05")


def test_sigma_estimator_skips_domain_failures():
    vals = [mpf(2) * (1 + mpf(1) / n) for n in range(2, 30)]
    vals[10] = vals[9]  # force a non-positive log argument once
    t = an.sigma_estimator_ratio(RealSeries(vals, 2, 60))
    assert t.skipped and t.ns


def test_sigma_known_mu():
    s = sy.synth_series(STRETCHED, 200, dps=60)
    r = an.ratios(s)
    sg = an.sigma_local_gradient_known_mu(r, STRETCHED.mu)
    e = an.extrapolate_intercept(sg, power=0.375, depth=6)
    assert abs(e.neville - mpf("0.375")) < mpf("0.01")
    # exact power correction: r = mu(1 + 1/sqrt(n)) gives sigma = 1/2 exactly
    rr = RealSeries([mpf(2) * (1 + 1 / mpmath.sqrt(n)) for n in range(2, 50)], 2, 60)
    sg2 = an.sigma_local_gradient_known_mu(rr, 2)
    assert abs(sg2.values[-1] - mpf("0.5")) < mpf("0.01")
    # a ratio equal to mu is named by its own index, first or last
    for k, n in ((0, 2), (-1, 49)):
        vals = list(rr.values)
        vals[k] = mpf(2)
        with pytest.raises(ValueError, match=f"ratio equals mu exactly at index {n}$"):
            an.sigma_local_gradient_known_mu(RealSeries(vals, 2, 60), 2)


def test_mu1_estimator():
    s = sy.synth_series(STRETCHED, 300, dps=60)
    r = an.ratios(s)
    m1 = an.mu1_estimator(r, STRETCHED.mu, STRETCHED.sigma)
    target = mpf("0.375") * mpf("-9.675")
    e = an.extrapolate_intercept(m1, power=0.5, depth=10)
    assert abs(e.neville - target) / abs(target) < mpf("0.02")
    # mu1 = 1 series c_n = 2 * 3^n * n: r_n = 3n/(n-1), so the estimator is
    # exactly sqrt(n)/(n-1) (10/99 at n = 100, the g * n^(-sigma) bias that the
    # mu1_estimator docstring states). Its limit, not the raw value at
    # n = 100, is what tends to zero.
    p = sy.StretchedFitParams(mu=3, sigma=0.5, log_mu1=0, g=1, C=2)
    s0 = sy.synth_series(p, 100, dps=60)
    m0 = an.mu1_estimator(an.ratios(s0), 3, 0.5)
    assert all(abs(m0.at(n) - mpmath.sqrt(n) / (n - 1)) < mpf(10) ** -40
               for n in m0.indices())
    e0 = an.extrapolate_intercept(m0, power=0.5, depth=10)
    assert abs(e0.neville) < mpf("0.1")


def test_g_estimator():
    s = sy.synth_series(STRETCHED, 300, dps=60)
    tr = an.g_estimator(s, STRETCHED.mu, STRETCHED.sigma)
    assert abs(tr.gradients[-1] + 2) < mpf("0.1")
    p0 = sy.StretchedFitParams(mu=2, sigma=0.375, log_mu1=-1, g=0, C=1)
    tr0 = an.g_estimator(sy.synth_series(p0, 300, dps=60), 2, 0.375)
    assert abs(tr0.gradients[-1]) < mpf("0.1")


def test_g_estimator_exact_on_model():
    # on c_n = mu^n n^g, log d_n = g log n, so the trace is
    # g ((n-1)^sigma log n - n^sigma log(n-1)) n^(1-sigma) / sigma exactly
    p = sy.StretchedFitParams(mu=STRETCHED.mu, sigma=STRETCHED.sigma, log_mu1=0,
                              g=STRETCHED.g, C=1)
    tr = an.g_estimator(sy.synth_series(p, 120, dps=60), p.mu, p.sigma)
    assert tr.ns == list(range(2, 121)) and tr.dps == 60
    g, s = mpf(p.g), mpf(p.sigma)
    for n, y in zip(tr.ns, tr.y):
        want = (g * ((n - 1) ** s * mpmath.log(n) - mpf(n) ** s * mpmath.log(n - 1))
                * mpf(n) ** (1 - s) / s)
        assert abs(y - want) < mpf(10) ** -40, n


def test_mu1_refined_exact_on_model():
    s = sy.synth_series(STRETCHED, 120, dps=60)
    m = an.mu1_refined(s, STRETCHED.mu, STRETCHED.sigma, STRETCHED.g)
    assert all(abs(v - mpf("-9.675")) < mpf(10) ** -40 for v in m.values)
    p = sy.StretchedFitParams(mu=2, sigma=0.5, log_mu1=0, g=1, C=1)
    m0 = an.mu1_refined(sy.synth_series(p, 60, dps=60), 2, 0.5, 1)
    assert all(abs(v) < mpf(10) ** -40 for v in m0.values)


def test_fit_ratio4():
    sig = mpf("0.375")
    c = [mpf("7.295"), mpf("-26.5"), mpf("-20"), mpf("5")]
    r = RealSeries([c[0] + c[1] * mpf(n) ** (sig - 1) + c[2] / n
                    + c[3] * mpf(n) ** (2 * sig - 2) for n in range(2, 60)], 2, 60)
    w = an.fit_ratio4_sweep(r, 0.375, [30])[0]
    for got, want in zip(w.coefficients, c):
        assert abs(got - want) < mpf(10) ** -35
    assert w.residual < mpf(10) ** -40
    with pytest.raises(ValueError):
        an.fit_ratio4_sweep(r, 0.375, [1])


def test_fit_ratio4_recovers_mu_on_synthetic():
    s = sy.synth_series(STRETCHED, 300, dps=60)
    r = an.ratios(s)
    w = an.fit_ratio4_sweep(r, STRETCHED.sigma, [297])[0]
    assert abs(w.coefficients[0] - mpf("7.2958969")) / mpf("7.2958969") < mpf("0.001")


def test_fit_stirling_log():
    logs = [mpf("0.75") * k * mpmath.log(k) - mpf("1.35") * k
            + 2 * mpmath.log(k) + 1 for k in range(1, 40)]
    c = RealSeries([mpmath.e ** v for v in logs], 1, 60)
    w = an.fit_stirling_log_sweep(c, [20])[0]
    for got, want in zip(w.coefficients, [mpf("0.75"), mpf("-1.35"), mpf(2), mpf(1)]):
        assert abs(got - want) < mpf(10) ** -25


def _reference_solve_window(rows, rhs, k, name):
    """The window solve through mpmath's matrix class and `lu_solve`, as it
    was before the list LU: the reference `an._solve_window` reproduces."""
    A = mpmath.matrix(rows)
    b = mpmath.matrix(rhs)
    try:
        sol = mpmath.lu_solve(A, b)
    except ZeroDivisionError as exc:
        raise ValueError(f"singular fit system at window {name}={k}") from exc
    resid = max(abs(x) for x in (A * sol - b))
    return an.LinearFitWindow(k=k, coefficients=list(sol), residual=resid)


def _ratio_rows(sigma, k):
    """fit_ratio4_sweep's rows for the window k, at the caller's precision."""
    s = mpf(sigma)
    return [[mpf(1), mpf(n) ** (s - 1), 1 / mpf(n), mpf(n) ** (2 * s - 2)]
            for n in range(k - 2, k + 2)]


def _stirling_rows(m):
    """fit_stirling_log_sweep's rows for the window m, at the caller's precision."""
    return [[k * mpmath.log(k), mpf(k), mpmath.log(k), mpf(1)]
            for k in range(m - 2, m + 2)]


def _bits(w):
    return w.k, [x._mpf_ for x in w.coefficients], w.residual._mpf_


def _outcome(solve, rows, rhs):
    try:
        return _bits(solve(rows, rhs, 7, "k"))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def fit_windows(draw):
    """(dps, rows, rhs): ratio rows at sigma in (0, 1), near-singular ratio
    rows at sigma = 1/2 +- 10^-e, Stirling rows, or small-integer rows (whose
    pivot candidates often tie), with right-hand sides spread over up to 50
    decimal orders."""
    dps = draw(st.integers(30, 100))
    shape = draw(st.sampled_from(["ratio", "near-singular", "stirling", "integer"]))
    spread = draw(st.integers(0, 50))
    terms = draw(st.lists(st.tuples(st.integers(-10 ** dps, 10 ** dps),
                                    st.integers(0, spread)), min_size=4, max_size=4))
    with mpmath.workdps(dps):
        if shape == "ratio":
            rows = _ratio_rows(draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
                               draw(st.integers(4, 2000)))
        elif shape == "near-singular":
            tiny = mpf(10) ** -draw(st.integers(1, dps + 10))
            rows = _ratio_rows(mpf(1) / 2 + draw(st.sampled_from([-1, 1])) * tiny,
                               draw(st.integers(4, 2000)))
        elif shape == "stirling":
            rows = _stirling_rows(draw(st.integers(3, 5000)))
        else:
            rows = [[mpf(draw(st.integers(-3, 3))) for _ in range(4)] for _ in range(4)]
        rhs = [mpf(m) / 10 ** dps * mpf(10) ** e for m, e in terms]
    return dps, rows, rhs


@settings(max_examples=300, deadline=None)
@given(fit_windows())
def test_window_solve_matches_mpmath_lu_solve(window):
    """Every coefficient and the residual keep their `_mpf_`; a singular
    window raises the same ValueError on both paths."""
    dps, rows, rhs = window
    with mpmath.workdps(dps):
        want = _outcome(_reference_solve_window, rows, rhs)
        if want[0] is TypeError:  # mpmath trips on a column zero from the pivot down
            want = (ValueError, "singular fit system at window k=7")
        assert _outcome(an._solve_window, rows, rhs) == want


@pytest.mark.parametrize("dps,sign", [(30, 1), (30, -1), (60, 1), (60, -1), (100, 1)])
def test_near_singular_window_raises_on_both_paths(dps, sign):
    """sigma one ulp or so from 1/2, where columns 3 and 4 agree to the
    working precision."""
    with mpmath.workdps(dps):
        rows = _ratio_rows(mpf(1) / 2 + sign * mpf(10) ** -(dps + 1), 50)
        rhs = [mpf(n) for n in range(1, 5)]
        want = (ValueError, "singular fit system at window k=7")
        assert _outcome(_reference_solve_window, rows, rhs) == want
        assert _outcome(an._solve_window, rows, rhs) == want


def test_sweeps_equal_their_single_windows(monkeypatch):
    """Each sweep window equals the sweep of that window alone and the
    matrix solve of the rows built as in the fits, bit for bit."""
    sigma = STRETCHED.sigma
    r = an.ratios(sy.synth_series(STRETCHED, 40, dps=60))
    for ks in (None, range(10, 20)):
        fits = an.fit_ratio4_sweep(r, sigma, ks)
        assert [w.k for w in fits] == list(ks or range(4, 40))
        with mpmath.workdps(r.dps):
            for w in fits:
                rows = _ratio_rows(mpf(sigma), w.k)
                rhs = [r.at(n) for n in range(w.k - 2, w.k + 2)]
                assert _bits(w) == _bits(an.fit_ratio4_sweep(r, sigma, [w.k])[0]) \
                    == _bits(_reference_solve_window(rows, rhs, w.k, "k"))
    c = CoefficientSeries([math.factorial(2 * k) * 3 ** k for k in range(1, 40)])
    for sub in (c, CoefficientSeries(c.values[10:25], 11)):
        fits = an.fit_stirling_log_sweep(sub)
        assert [w.k for w in fits] == list(range(sub.first_index + 3, sub.last_index))
        with mpmath.workdps(60):
            for w in fits:
                rhs = [mpmath.log(mpf(c.at(k))) for k in range(w.k - 2, w.k + 2)]
                assert _bits(w) == _bits(an.fit_stirling_log_sweep(c, [w.k])[0]) \
                    == _bits(_reference_solve_window(_stirling_rows(w.k), rhs, w.k, "m"))
    calls = []
    log = mpmath.log
    monkeypatch.setattr(mpmath, "log", lambda x: calls.append(x) or log(x))
    an.fit_stirling_log_sweep(c)
    assert len(calls) == 2 * (len(c) - 1)  # log k and log c_k for k = 2..39


def test_factorial_transforms_and_alpha():
    fp = sy.FactorialFitParams(alpha=0.75, mu=0.68, g=0, C=1)
    s = sy.synth_series(fp, 300, dps=60)
    tr = an.factorial_ratio_transforms(s)
    n, alpha = tr.alpha_estimates[-1]
    assert n == 300 and abs(alpha - mpf("0.75")) < mpf("0.01")
    w = an.fit_stirling_log_sweep(s, [298])[0]
    assert abs(w.coefficients[0] - mpf("0.75")) < mpf("0.01")
    assert abs(w.coefficients[1] - (mpmath.log(mpf("0.68"))
               + mpf("0.75") * mpmath.log(mpf("0.75")) - mpf("0.75"))) < mpf("0.05")
    # pure n!: s_n tends to 1 + 1/n, alpha -> 1
    fac = CoefficientSeries([math.factorial(k) for k in range(1, 200)])
    trf = an.factorial_ratio_transforms(fac)
    assert abs(trf.alpha_estimates[-1][1] - 1) < mpf("0.01")


def test_hadamard_quotient():
    a = CoefficientSeries([2 ** k for k in range(1, 10)])
    assert all(v == 1 for v in an.hadamard_quotient(a, a).values)
    b = CoefficientSeries([3 ** k for k in range(1, 12)])
    h = an.hadamard_quotient(a, b)
    assert h.first_index == 1 and h.last_index == 9
    with pytest.raises(ValueError):
        an.hadamard_quotient(a, CoefficientSeries([1] * 3, first_index=30))


QUOTIENTS = {"ratios": lambda a, b: an.ratios(a),
             "egf_ratios": lambda a, b: an.egf_ratios(a),
             "hadamard_quotient": an.hadamard_quotient}


def _as_real(c, dps):
    with mpmath.workdps(dps):
        return RealSeries([mpf(v) for v in c.values], c.first_index, dps)


@pytest.mark.parametrize("name", QUOTIENTS)
def test_quotients_exact_and_real_inputs_agree(name):
    transform, dps = QUOTIENTS[name], 60
    # values far wider than dps digits, so the real inputs are rounded
    a = CoefficientSeries([math.factorial(2 * k) + k for k in range(1, 40)])
    b = CoefficientSeries([3 ** k - 1 for k in range(1, 40)])
    exact = transform(a, b)
    real = transform(_as_real(a, dps), _as_real(b, dps))
    assert real.indices() == exact.indices() and real.dps == exact.dps == dps
    tol = mpf(10) ** -(dps - 5)
    assert all(abs(x - y) <= tol * abs(x) for x, y in zip(exact.values, real.values))
    z = CoefficientSeries([5, 0, 7, 9])
    for zz in (z, _as_real(z, dps)):
        with pytest.raises(ValueError, match="zero divisor"):
            transform(zz, zz)


def test_reference_constants():
    c = an.reference_constants(60)
    assert str(c.growth_120)[:15] == "7.2958969432397"
    assert abs(c.growth_000_conjecture - mpf("0.2701898")) < mpf("1e-7")
    x = c.growth_120
    assert abs(x ** 3 - 8 * x ** 2 + 5 * x + 1) < mpf(10) ** -55
    assert abs(c.ascent_growth - 6 / mpmath.pi ** 2) < mpf(10) ** -55


def test_precision_monotonicity():
    c = dp.enumerate_000_polynomial(40)
    r30 = an.egf_ratios(c, dps=30)
    r60 = an.egf_ratios(c, dps=60)
    for n in r30.indices():
        assert abs(r30.at(n) - r60.at(n)) < mpf(10) ** -28
    assert r30.dps == 30 and r60.dps == 60
    # derived series inherit the minimum input precision
    assert an.linear_intercepts(r30).dps == 30
    s = sy.synth_series(STRETCHED, 12, dps=40)
    r = an.ratios(s)
    assert r.dps == 40
    assert an.quadratic_intercepts(r).dps == 40
    assert an.sigma_local_gradient_known_mu(r, STRETCHED.mu).dps == 40
    assert an.sigma_estimator_ratio(r).dps == 40
    assert an.sigma_estimator_root(s).dps == 40
    assert an.g_estimator(s, STRETCHED.mu, STRETCHED.sigma).dps == 40
    assert an.mu1_refined(s, STRETCHED.mu, STRETCHED.sigma, STRETCHED.g).dps == 40
    # an explicit precision overrides the input's, for the log transforms too
    assert an.sigma_estimator_root(s, dps=30).dps == 30
    assert an.mu1_refined(s, STRETCHED.mu, STRETCHED.sigma, STRETCHED.g, dps=30).dps == 30
    # a list trace is extrapolated at the precision it is given
    trace = list(zip(r.indices(), r.values))
    with mpmath.workdps(40):
        want = an.neville_extrapolate([1 / mpf(n) for n in r.indices()][-3:],
                                      r.values[-3:], 40)
    assert an.extrapolate_intercept(trace, dps=40).neville == want


def test_synth_requires_enough_terms():
    with pytest.raises(ValueError):
        sy.synth_series(STRETCHED, 3)


SHORT = CoefficientSeries([1, 2, 5])
R10 = an.ratios(CoefficientSeries([2 ** n * n for n in range(1, 11)]))


@pytest.mark.parametrize("call,error,message", [
    (lambda: an.sigma_estimator_root(CoefficientSeries([1, 2, 0, 5])), ValueError,
     "non-positive term at index 3 has no real log"),
    (lambda: an.ratios(CoefficientSeries([1])), InsufficientTermsError, "two terms"),
    (lambda: an.egf_ratios(CoefficientSeries([1])), InsufficientTermsError, "two terms"),
    (lambda: an.quadratic_intercepts(RealSeries([mpf(1)], 2)), InsufficientTermsError,
     "two terms"),
    (lambda: an.sigma_estimator_ratio(an.ratios(SHORT)), InsufficientTermsError,
     "three ratio terms"),
    (lambda: an.sigma_estimator_root(CoefficientSeries([1, 2])), InsufficientTermsError,
     "three terms"),
    (lambda: an.sigma_local_gradient_known_mu(R10, 0), ValueError, "mu must be positive"),
    (lambda: an.mu1_estimator(R10, 2, 1), ValueError, "0 < sigma < 1"),
    (lambda: an.g_estimator(CoefficientSeries([1, 2, 5, 15]), -2, 0.5), ValueError,
     "mu must be positive"),
    (lambda: an.mu1_refined(CoefficientSeries([1, 2, 5, 15]), 0, 0.5, 1), ValueError,
     "mu must be positive"),
    # at sigma = 1/2 the columns n^(2*sigma-2) and 1/n coincide
    (lambda: an.fit_ratio4_sweep(R10, 0.5, [6]), ValueError, "singular fit system at window k=6"),
    # at sigma = 0 the column n^(sigma-1) is 1/n, at sigma = 1 the column of ones
    (lambda: an.fit_ratio4_sweep(R10, 0, [6]), ValueError, "singular fit system at window k=6"),
    (lambda: an.fit_ratio4_sweep(R10, 1, [6]), ValueError, "singular fit system at window k=6"),
    (lambda: an.fit_stirling_log_sweep(CoefficientSeries([1, 2, 5, 15, 53]), [3]),
     ValueError, "window m=3 outside series range"),
    (lambda: an.factorial_ratio_transforms(SHORT), InsufficientTermsError, "four terms"),
    (lambda: sy.synth_series({"mu": 2}, 10), TypeError, "params must be"),
    (lambda: an.neville_extrapolate([1, 2], [mpf(1)]), ValueError,
     "equal nonzero numbers"),
    (lambda: an.extrapolate_intercept([], name="l2"), InsufficientTermsError,
     "empty trace l2"),
], ids=["log-of-zero", "ratios", "egf-ratios", "quadratic-intercepts",
        "sigma-ratio", "sigma-root", "sigma-known-mu", "mu1-estimator", "g-estimator",
        "mu1-refined", "singular-window", "singular-window-sigma0",
        "singular-window-sigma1", "stirling-window", "factorial-transforms",
        "synth-params", "neville-lengths", "empty-trace"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
