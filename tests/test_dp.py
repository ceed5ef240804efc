"""Dynamic-programming enumerators: golden values, oracle equivalence,
engine cross-checks, cache analysis."""

import pytest

from ascentlab import dp, sequences as sq
from ascentlab.errors import CapExceededError

import safeguards as sg


def test_ascent_indicator():
    assert dp.ascent_indicator(0, 1) == 1
    assert dp.ascent_indicator(1, 1) == 0
    assert dp.ascent_indicator(-1, 0) == 1  # erased letters sit below everything


def test_renumber_remove():
    assert dp.renumber_remove(dp.bitset({0, 2}), 1) == dp.bitset({0, 1})
    assert dp.renumber_remove(0, 5) == 0
    assert dp.renumber_remove(dp.bitset({0, 1, 3}), 2) == dp.bitset({0, 1, 2})


def test_renumber_floor():
    assert dp.renumber_floor(dp.bitset({0, 1, 3}), 2) == dp.bitset({1})
    assert dp.renumber_floor(dp.bitset({0, 1, 3}), 0) == dp.bitset({0, 1, 3})
    assert dp.renumber_floor(dp.bitset({0}), 1) == 0


def test_largest_below():
    assert dp.largest_below(dp.bitset({0, 2, 5}), 4) == 2
    assert dp.largest_below(0, 3) == 0
    assert dp.largest_below(dp.bitset({0, 1}), 0) == 0


def test_ascent_series_golden():
    s = dp.enumerate_ascent(6)
    assert s.values == [1, 2, 5, 15, 53, 217]
    assert s.at(5) == 53  # f(4, 0, 0)
    assert s.at(1) == 1


def test_ascent_series_matches_product_generating_function():
    # independent check: A(t) = sum_n prod_{i=1..n} (1 - (1-t)^i), exact
    # integer polynomial arithmetic truncated at degree N
    N = 40

    def poly_mul(a, b):
        out = [0] * min(len(a) + len(b) - 1, N + 1)
        for i, ai in enumerate(a):
            if ai == 0 or i > N:
                continue
            for j, bj in enumerate(b):
                if i + j > N:
                    break
                out[i + j] += ai * bj
        return out

    one_minus_t = [1, -1]
    total = [1] + [0] * N          # n = 0 contributes 1
    power = [1]                    # (1-t)^0
    term = [1]                     # prod so far for current n
    for i in range(1, N + 1):
        power = poly_mul(power, one_minus_t)
        factor = [1 - power[0]] + [-v for v in power[1:]]
        term = poly_mul(term, factor)
        for d, v in enumerate(term):
            total[d] += v
    s = dp.enumerate_ascent(N)
    assert total[1:N + 1] == s.values


def test_oracle_equivalence_small():
    for pat, fn in (("000", dp.enumerate_000_polynomial),
                    ("000", dp.enumerate_000_exponential),
                    ("100", dp.enumerate_100),
                    ("110", dp.enumerate_110),
                    ("120", dp.enumerate_120)):
        assert fn(11).values == sq.brute_force_avoiders(pat, 11).values, pat


def test_golden_000_prefix():
    assert dp.enumerate_000_polynomial(7).values == [1, 2, 4, 10, 27, 83, 277]
    assert dp.enumerate_000_exponential(7).values == [1, 2, 4, 10, 27, 83, 277]


def test_memo_engine_matches_forward():
    for variant in ("000", "110", "120"):
        series, cache = dp.enumerate_with_cache(variant, 12)
        assert series.values == dp._forward_series(variant, 12).values
        assert len(cache.data) > 0


def test_poly_equals_exponential_000():
    n = 22
    assert (dp.enumerate_000_polynomial(n).values
            == dp.enumerate_000_exponential(n).values)


def test_golden_120_state_trace():
    trace = [dp.suffix_count("120", n, 4, 0, {0, 1, 2, 4}) for n in range(6)]
    assert trace == [1, 6, 32, 160, 778, 3747]
    for alt in ({0, 1, 3, 4}, {0, 2, 3, 4}):
        assert [dp.suffix_count("120", n, 4, 0, alt) for n in range(6)] == trace


def test_against_direct_state_safeguards():
    # independent machines with raw value-set states; beyond the oracle cap
    assert dp.enumerate_100(21).values == sg.direct_count_100(21)
    assert dp.enumerate_110(16).values == sg.direct_count_110(16)
    assert dp.enumerate_000_polynomial(18).values == sg.direct_count_000(18)
    assert dp.enumerate_120(16).values == sg.direct_count_120(16)


def test_series_strictly_increasing():
    for fn in (dp.enumerate_ascent, dp.enumerate_000_polynomial,
               dp.enumerate_100, dp.enumerate_110, dp.enumerate_120):
        v = fn(12).values
        assert all(b > a for a, b in zip(v[1:], v[2:]))


def test_determinism_repeat_runs():
    for fn in (dp.enumerate_000_polynomial, dp.enumerate_100, dp.enumerate_120):
        assert fn(14).values == fn(14).values


def test_caps(monkeypatch):
    with pytest.raises(CapExceededError):
        dp.enumerate_000_exponential(31)
    with pytest.raises(CapExceededError):
        dp.enumerate_110(37)
    with pytest.raises(CapExceededError):
        dp.enumerate_120(61)
    # override proceeds with a warning and still computes correct values
    monkeypatch.setitem(dp._SET_CAPS, "110", 6)
    with pytest.raises(CapExceededError):
        dp.enumerate_110(8)
    with pytest.warns(UserWarning):
        s = dp.enumerate_110(8, allow_over_cap=True)
    assert s.values == sq.brute_force_avoiders("110", 8).values


def test_pack_limits():
    assert dp._unpack(dp._pack(0b101, -2, 253)) == (-2, 253, 0b101)
    assert dp._unpack(dp._pack(1, 253, -2)) == (253, -2, 1)
    for a, l in ((254, 0), (0, 254), (-3, 0), (0, -3)):
        with pytest.raises(ValueError):
            dp._pack(1, a, l)
    # a caller-given state whose descendants would overflow a field
    with pytest.raises(ValueError):
        dp.suffix_count("110", 2, 253, 0, 1)
    assert dp.suffix_count("110", 1, 253, 0, 1) == 255
    # letter 0 repeats (254 continuations), letters 1..253 rise (255 each)
    assert dp.suffix_count("110", 2, 252, 0, 1) == 254 + 253 * 255


def test_sweep_rejects_unpackable_runs(monkeypatch):
    def no_sweep(key):
        raise AssertionError("sweep started")
    monkeypatch.setitem(dp._RULES, "120", no_sweep)
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="key fields"):
        dp.enumerate_120(300, allow_over_cap=True)
    # the longest packable run does reach the sweep
    with pytest.raises(AssertionError, match="sweep started"):
        dp._forward_series("120", dp._FIELD_TOP)


def test_dispatch():
    assert dp.enumerate_avoiders("000", 6, algorithm="dp-poly").values == \
        dp.enumerate_000_polynomial(6).values
    assert dp.enumerate_avoiders("100", 6).values == dp.enumerate_100(6).values
    with pytest.raises(ValueError):
        dp.enumerate_avoiders("110", 6, algorithm="dp-poly")
    with pytest.raises(ValueError):
        dp.enumerate_avoiders("100", 6, algorithm="dp-exp")
    with pytest.raises(ValueError):
        dp.enumerate_avoiders("201", 6)
    assert dp.enumerate_avoiders("none", 6).values == dp.enumerate_ascent(6).values
    assert dp.enumerate_avoiders((1, 2, 0), 8).values == dp.enumerate_120(8).values


def test_cache_repetition_report_000():
    _, cache = dp.enumerate_with_cache("000", 14)
    rep = dp.cache_repetition_report(cache)
    # the cardinality projection collapses most groups but provably not all:
    # elements of S above l cannot be bubbled down (see the i < l condition),
    # e.g. f(3,1,0,{1}) = 35 != 37 = f(3,1,0,{0})
    assert 0.85 < rep.single_valued_fraction < 1.0
    assert dp.suffix_count("000", 3, 1, 0, {1}) == 35
    assert dp.suffix_count("000", 3, 1, 0, {0}) == 37
    bad = rep.multi_valued_groups()
    assert (3, 1, 0, 1) in bad


def test_cache_repetition_ordering_across_variants():
    _, c000 = dp.enumerate_with_cache("000", 14)
    _, c110 = dp.enumerate_with_cache("110", 14)
    _, c120 = dp.enumerate_with_cache("120", 14)
    f000 = dp.cache_repetition_report(c000).single_valued_fraction
    f110 = dp.cache_repetition_report(c110).single_valued_fraction
    f120 = dp.cache_repetition_report(c120).single_valued_fraction
    assert f110 < f120 < f000


def test_cache_repetition_empty_cache():
    with pytest.raises(ValueError):
        dp.cache_repetition_report(dp.MemoCache("000"))


def test_bijection_lemma_pairs():
    from ascentlab.verify import bijection_lemma_pairs_equal
    _, cache = dp.enumerate_with_cache("000", 14)
    ok, checked = bijection_lemma_pairs_equal(cache, 14)
    assert ok and checked > 500
