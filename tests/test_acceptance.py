"""Acceptance suite: twelve desk-scale criteria with pinned tolerances.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to watch).
Expensive series are computed once in module-scoped fixtures; their wall
times back the runtime criteria. The two criterion 4 series run at once, in
two worker processes where the machine has two cores, and the raw sweeps
that check the canonical 120 engine at n=50 and the marked 110 engine at
n=30 run in the same pool.

Criterion 5's first clause (grouping the exponential-000 cache by
(n,a,l,|S|) gives 100% single-valued groups) is implemented faithfully and
expected to fail: the underlying swap argument needs i < l, so elements of
S above l are pinned, and f(3,1,0,{1})=35 != 37=f(3,1,0,{0}) — both values
brute-force-verified. It is marked xfail(strict) with the measured fraction
printed; see the bijection-pair clause for what is actually provable.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

import mpmath
import pytest
from mpmath import mpf

from ascentlab import analysis as an
from ascentlab import approximants as ap
from ascentlab import cli
from ascentlab import dp
from ascentlab import io as aio
from ascentlab import sequences as sq
from ascentlab import verify as ver
from ascentlab.series import CoefficientSeries, RealSeries, LENGTH_ZERO_COUNT

import synthetic as sy

mpmath.mp.dps = 60

TIMINGS = {}


def _timed(key, fn, *args, **kwargs):
    t0 = time.time()
    out = fn(*args, **kwargs)
    TIMINGS[key] = time.time() - t0
    return out


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def brute12():
    t0 = time.time()
    out = {p: sq.brute_force_avoiders(p, 12) for p in ("000", "100", "110")}
    out["120"] = sq.brute_force_avoiders("120", 14)
    TIMINGS["brute12"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def dp_small(brute12):
    t0 = time.time()
    out = {
        "000-poly": dp.enumerate_000_polynomial(12),
        "000-exp": dp.enumerate_000_exponential(12),
        "100": dp.enumerate_100(12),
        "110": dp.enumerate_110(12),
        "120": dp.enumerate_120(14),
    }
    TIMINGS["dp_small"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def criterion4_series():
    """100 n=300 and 000 n=200, computed at once in a process pool, then
    the raw 120 sweep at n=50 (about 30 s and 700 MB), which follows the
    shorter of the two, and the raw 110 sweep at n=30 (about 15 s and
    600 MB). Jobs are submitted longest first; each run is timed from its
    submit to its result."""
    jobs = {"c100_300": (dp.enumerate_100, 300),
            "poly200": (dp.enumerate_000_polynomial, 200),
            "raw120_50": (dp.enumerate_120_exponential, 50),
            "raw110_30": (dp.enumerate_110_exponential, 30)}
    out = {}
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        t0 = time.time()
        futures = {pool.submit(fn, n): key for key, (fn, n) in jobs.items()}
        for fut in as_completed(futures):
            TIMINGS[futures[fut]] = time.time() - t0
            out[futures[fut]] = fut.result()
    return out


@pytest.fixture(scope="module")
def c000_200(criterion4_series):
    return criterion4_series["poly200"]


@pytest.fixture(scope="module")
def c100_300(criterion4_series):
    return criterion4_series["c100_300"]


@pytest.fixture(scope="module")
def c120_50():
    return _timed("c120_50", dp.enumerate_120, 50)


@pytest.fixture(scope="module")
def ascent_200():
    return dp.enumerate_ascent(200)


def test_criterion_1_oracle_equivalence(brute12, dp_small):
    ok = (dp_small["000-poly"].values == brute12["000"].values
          and dp_small["000-exp"].values == brute12["000"].values
          and dp_small["100"].values == brute12["100"].values
          and dp_small["110"].values == brute12["110"].values
          and dp_small["120"].values == brute12["120"].values)
    elapsed = TIMINGS["brute12"] + TIMINGS["dp_small"]
    ok = ok and elapsed <= 600
    _report(1, ok, f"DP == brute force through n=12 (120: n=14); {elapsed:.0f}s <= 600s")


def test_criterion_2_paper_golden_values():
    asc = dp.enumerate_ascent(6)
    ok = ([LENGTH_ZERO_COUNT] + asc.values == [1, 1, 2, 5, 15, 53, 217]
          and asc.at(5) == 53
          and dp.enumerate_000_polynomial(7).values == [1, 2, 4, 10, 27, 83, 277]
          and [dp.suffix_count("120", n, 4, 0, {0, 1, 2, 4}) for n in range(6)]
          == [1, 6, 32, 160, 778, 3747])
    _report(2, ok, "ascent 1,1,2,5,15,53,217; a_5=53; 000 prefix; 120 state trace")


def test_criterion_3_closed_forms():
    catalan = lambda k: math.comb(2 * k, k) // (k + 1)
    ok = True
    for pat in ("001", "010", "011", "012"):
        ok &= sq.brute_force_avoiders(pat, 12).values == \
            [2 ** (k - 1) for k in range(1, 13)]
    ok &= sq.brute_force_avoiders("102", 12).values == \
        [(3 ** (k - 1) + 1) // 2 for k in range(1, 13)]
    for pat in ("101", "021"):
        ok &= sq.brute_force_avoiders(pat, 12).values == \
            [catalan(k) for k in range(1, 13)]
    _report(3, ok, "2^(k-1), (3^(k-1)+1)/2 and Catalan forms exact to n=12")


def test_criterion_4_polynomial_vs_exponential(c000_200, c100_300):
    t0 = time.time()
    exp28 = dp.enumerate_000_exponential(28)
    TIMINGS["exp28"] = time.time() - t0
    ok = exp28.values == c000_200.values[:28]
    ok_t_poly = TIMINGS["poly200"] <= 300
    ok_t_100 = TIMINGS["c100_300"] <= 600
    ok = ok and ok_t_poly and ok_t_100 and len(c000_200) == 200 and len(c100_300) == 300
    _report(4, ok, f"poly==exp to n=28; poly n=200 in {TIMINGS['poly200']:.0f}s<=300s; "
                   f"100-DP n=300 in {TIMINGS['c100_300']:.0f}s<=600s")


def test_marked_110_equals_raw_sweep_through_30(criterion4_series):
    # the marked engine against the raw sweep, each term through n=30
    assert dp.enumerate_110(30).values == criterion4_series["raw110_30"].values


def test_canonical_120_equals_raw_sweep_through_50(criterion4_series, c120_50):
    # the sorted-gap map rests on a conjecture (dp._canonical_120); the
    # canonical engine against the raw sweep, each term through n=50, the
    # depth criterion 11 reads
    assert c120_50.values == criterion4_series["raw120_50"].values


def test_deep_series_lower_bounds_and_supermultiplicativity(criterion4_series, c120_50):
    # criterion 7's invariants on the deep series computed above
    c000, c100 = criterion4_series["poly200"], criterion4_series["c100_300"]
    c110 = criterion4_series["raw110_30"]
    assert all(c000.at(2 * n) >= math.factorial(n) for n in range(1, 101))
    assert all(c100.at(2 * n) >= math.factorial(n) for n in range(1, 151))
    assert all(c110.at(3 * n) >= math.factorial(n) for n in range(1, 11))
    assert all(c120_50.at(m + n) >= c120_50.at(m) * c120_50.at(n)
               for m in range(1, 50) for n in range(1, 51 - m))


@pytest.mark.xfail(strict=True, reason="spec overstatement: the swap lemma "
                   "requires i < l, so the cache is provably not 100% "
                   "cardinality-collapsed; f(3,1,0,{1})=35 vs f(3,1,0,{0})=37")
def test_criterion_5_cache_repetition_full_collapse():
    _, cache = dp.enumerate_with_cache("000", 18)
    rep = dp.cache_repetition_report(cache)
    print(f"ACCEPTANCE criterion 5 (100%-collapse clause): measured "
          f"single-valued fraction {rep.single_valued_fraction:.4f} at n_terms=18")
    _report("5-collapse", rep.single_valued_fraction == 1.0,
            f"fraction {rep.single_valued_fraction:.4f} != 1.0")


@pytest.fixture(scope="module")
def cache000_15():
    return dp.enumerate_with_cache("000", 15)[1]


def test_criterion_5_bijection_lemma_pairs(cache000_15):
    ok, checked = ver.bijection_lemma_pairs_equal(cache000_15)
    _report(5, ok, f"all {checked} provable swap pairs (i < l) value-equal at n<=14")


def test_criterion_5_grouping_above_l(cache000_15):
    # what the swap lemma does collapse: below l only |S & [0, l]| matters,
    # while S above l stays exact
    def above_l_exact(key):
        n, a, l, S = key
        return (n, a, l, S >> (l + 1), (S & ((1 << (l + 1)) - 1)).bit_count())

    rep = dp.cache_repetition_report(cache000_15, group_by=above_l_exact)
    _report(5, rep.single_valued_fraction == 1.0,
            f"(n,a,l,S above l,|S & [0,l]|) single-valued: {len(rep.groups)} groups "
            f"for {rep.total_keys} keys, fraction {rep.single_valued_fraction:.4f}")


def test_criterion_6_weak_sequence_theorem():
    w120 = sq.brute_force_avoiders("120", 10, weak=True)
    w201 = sq.brute_force_avoiders("201", 10, weak=True)
    ok = w120.values == w201.values
    for k in range(1, 9):
        for s in sq.weak_ascent_sequences(k):
            m = sq.weak_reverse_complement(s)
            ok = ok and sq.weak_reverse_complement(m) == tuple(s)
            ok = ok and sq.ascent_count(m) == sq.ascent_count(s)
            ok = ok and sq.is_weak_ascent_sequence(m)
            ok = ok and (sq.contains_pattern(s, (1, 2, 0))
                         == sq.contains_pattern(m, (2, 0, 1)))
            if not ok:
                break
    _report(6, ok, "w_k(120)=w_k(201) for k<=10; reverse-complement involution, "
                   "ascent-preserving, 120<->201 on all weak sequences <=8")


def test_criterion_7_supermultiplicativity_and_lower_bounds(brute12):
    c120 = brute12["120"]
    ok = all(c120.at(m + n) >= c120.at(m) * c120.at(n)
             for m in range(1, 14) for n in range(1, 15 - m))
    c000, c100, c110 = brute12["000"], brute12["100"], brute12["110"]
    ok &= all(c000.at(2 * n) >= math.factorial(n) for n in range(1, 7))
    ok &= all(c100.at(2 * n) >= math.factorial(n) for n in range(1, 7))
    ok &= all(c110.at(3 * n) >= math.factorial(n) for n in range(1, 5))
    _report(7, ok, "c_{m+n} >= c_m*c_n for 120 (m+n<=14); n! lower bounds for "
                   "000/100 at 2n (n<=6) and 110 at 3n (n<=4)")


def test_criterion_8_synthetic_estimator_recovery():
    p = sy.StretchedFitParams(mu=7.2958969, sigma=0.375, log_mu1=-9.675, g=2, C=3700)
    s = sy.synth_series(p, 300, dps=60)
    r = an.ratios(s)
    w = an.fit_ratio4_sweep(r, p.sigma, [297])[0]
    mu_rel = abs(w.coefficients[0] - mpf("7.2958969")) / mpf("7.2958969")
    ok = mu_rel < mpf("0.001")
    tr = an.g_estimator(s, p.mu, p.sigma)
    g_est = -tr.gradients[-1]
    ok &= abs(g_est - 2) < mpf("0.1")
    m = an.mu1_refined(s, p.mu, p.sigma, p.g)
    ok &= abs(m.values[-1] - mpf("-9.675")) / mpf("9.675") < mpf("0.01")
    fp = sy.FactorialFitParams(alpha=0.75, mu=0.68, g=0, C=1)
    fs = sy.synth_series(fp, 300, dps=60)
    tr2 = an.factorial_ratio_transforms(fs)
    alpha = tr2.alpha_estimates[-1][1]
    ok &= abs(alpha - mpf("0.75")) < mpf("0.01")
    w2 = an.fit_stirling_log_sweep(fs, [298])[0]
    ok &= abs(w2.coefficients[0] - mpf("0.75")) < mpf("0.01")
    _report(8, ok, f"stretched: mu rel err {mpmath.nstr(mu_rel, 2)} < 0.1%, "
                   f"g={mpmath.nstr(g_est, 4)}=2±0.1, log mu1 within 1%; "
                   f"factorial: alpha={mpmath.nstr(alpha, 4)}=0.75±0.01, "
                   f"Stirling e1 within 0.01")


def test_criterion_9_000_analysis_desk_scale(c000_200, ascent_200):
    r = an.egf_ratios(c000_200)
    _, l2, l3 = an.intercept_pipeline(r)
    mu_hat = an.extrapolate_intercept(l3, power=1, depth=3).neville
    ok = mpf("0.2700") <= mu_hat <= mpf("0.2704")
    h = an.hadamard_quotient(c000_200, ascent_200)
    hr = an.ratios(h)
    _, hl2, _ = an.intercept_pipeline(hr)
    lam = an.extrapolate_intercept(hl2, power=2, depth=3).neville
    ok &= mpf("0.435") <= lam <= mpf("0.455")
    _report(9, ok, f"egf l2/l3 mu extrapolant {mpmath.nstr(mu_hat, 7)} in "
                   f"[0.2700,0.2704]; Hadamard lambda {mpmath.nstr(lam, 6)} in "
                   f"[0.435,0.455] (8/(3pi^2)=0.2701898, lambda->4/9)")


def test_criterion_10_differential_approximants():
    cat = CoefficientSeries([math.comb(2 * k, k) // (k + 1) for k in range(1, 31)])
    da = ap.fit_da(cat, ap.DAConfig(order=1, degrees=(8, 8), inhomog_degree=2))
    best = min(ap.singularities(da), key=lambda s: abs(s.location - mpf("0.25")))
    ok = abs(best.location - mpf("0.25")) < mpf("1e-8")
    ok &= abs(best.exponent + mpf("0.5")) < mpf("1e-6")
    pred = ap.predict_ensemble(cat, ap.default_ensemble(30), 10)
    true = [math.comb(2 * k, k) // (k + 1) for k in range(31, 41)]
    worst = max(abs(v - t) / t for v, t in zip(pred.values, true))
    ok &= worst < mpf("1e-10")
    geo = CoefficientSeries([2 ** n for n in range(1, 16)])
    dag = ap.fit_da(geo, ap.DAConfig(order=1, degrees=(1, 1)))
    ok &= ap.recurrence_extend_exact(dag, geo, 8) == [2 ** n for n in range(16, 24)]
    _report(10, ok, f"Catalan z_c within 1e-8, exponent -0.5 within 1e-6, "
                    f"10 predicted terms worst rel err {mpmath.nstr(worst, 2)} "
                    f"< 1e-10; geometric continuation exact")


def test_criterion_11_120_growth_constant(c120_50):
    root = an.reference_constants(60).growth_120
    ok = str(root)[:15] == "7.2958969432397"
    pred = ap.predict_ensemble(c120_50, ap.default_ensemble(48, orders=(2, 3)), 50)
    # the fit consumes predicted terms only while the ensemble still agrees
    # to >= 8 digits; 4-point fits amplify tail noise far beyond the ratio
    # plots the raw extension remains useful for
    keep = 0
    for d in pred.agreed_digits:
        if d < 8:
            break
        keep += 1
    vals = [mpf(v) for v in c120_50.values] + list(pred.values[:keep])
    full = RealSeries(vals, first_index=1, dps=60)
    r = an.ratios(full)
    fits = an.fit_ratio4_sweep(r, 0.375, ks=range(full.last_index - 3,
                                                  full.last_index))
    c1s = [w.coefficients[0] for w in fits]
    ok &= all(mpf("7.2") <= v <= mpf("7.4") for v in c1s)
    ok &= len(pred.values) == 50 and keep >= 10
    _report(11, ok, f"cubic root 7.2958969432397 to 13 digits; extension kept "
                    f"{keep} of 50 predicted terms (agreed>=8 digits); largest "
                    f"ratfit windows c1={[mpmath.nstr(v, 6) for v in c1s]} "
                    f"all in [7.2,7.4]")


def test_criterion_12_determinism(tmp_path):
    # byte-identical artifacts across repeat runs at desk scale for every
    # artifact-producing path (the criteria preamble substitutes desk-scale
    # prefixes for the paper-scale computations)
    ok = True
    for pattern, algo, terms in (("000", "dp-poly", 40), ("000", "dp-exp", 15),
                                 ("100", "dp", 40), ("110", "dp", 15),
                                 ("120", "dp", 20), ("none", "dp", 40),
                                 ("120", "brute", 10)):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{pattern}-{algo}-{tag}.bf"
            assert cli.main(["enumerate", "--pattern", pattern, "--algo", algo,
                             "--terms", str(terms), "--output", str(out)]) == 0
            pair.append(out.read_bytes())
        ok &= pair[0] == pair[1]

    src = tmp_path / "c120.bf"
    aio.write_bfile(src, dp.enumerate_120(30))
    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"an-{tag}.csv"
        assert cli.main(["analyze", "--input", str(src), "--model", "stretched",
                         "--sigma", "0.375", "--mu", "7.2958969", "--g", "2",
                         "--output", str(out)]) == 0
        pair.append(out.read_bytes() + (tmp_path / f"an-{tag}.csv.summary.txt").read_bytes())
    ok &= pair[0] == pair[1]

    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"ext-{tag}.bf"
        assert cli.main(["extend", "--input", str(src), "--predict", "10",
                         "--output", str(out)]) == 0
        pair.append(out.read_bytes() + (tmp_path / f"ext-{tag}.bf.diag.json").read_bytes())
    ok &= pair[0] == pair[1]

    # engine re-runs are value-identical
    ok &= dp.enumerate_000_polynomial(60).values == dp.enumerate_000_polynomial(60).values
    ok &= dp.enumerate_100(60).values == dp.enumerate_100(60).values
    ok &= dp.enumerate_120(25).values == dp.enumerate_120(25).values
    _report(12, ok, "byte-identical b-files/CSVs/extensions across repeat runs; "
                    "engine re-runs value-identical")
