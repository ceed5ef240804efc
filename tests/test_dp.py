"""Dynamic-programming enumerators: golden values, oracle equivalence,
engine cross-checks, cache analysis."""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import dp, sequences as sq
from ascentlab.errors import CapExceededError

import safeguards as sg


def _children(rule, S, a, l):
    """(a, l, S) of each child of state (a, l, S), indexed by the next letter."""
    key = dp._pack(S, a, l)
    return [dp._unpack(rule(key, i)) for i in range(a + 2)]


def test_ascent_indicator():
    # a letter above the previous one adds an ascent; with S = {0} the 120
    # rule erases nothing, so a child's a is a + [l < i]
    assert _children(dp._rule_120, 1, 0, 0)[1][0] == 1   # l = 0, i = 1: rises
    assert _children(dp._rule_120, 1, 1, 1)[1][0] == 1   # l = 1, i = 1: stays
    # erased letters sit below everything: 0 0 under 000 leaves l = -1, and
    # the next letter 0 rises above it
    assert _children(dp._rule_000, 1, 0, 0)[0] == (-1, -1, 0)
    assert _children(dp._rule_000, 0, -1, -1)[0] == (0, 0, 1)


def test_renumber_remove():
    # 000: a repeated letter i is erased and the values above it close the
    # gap; the child is (a + [l<i] - 1, i - 1, S without i, renumbered)
    assert (_children(dp._rule_000, dp.bitset({0, 1, 2}), 1, 0)[1]
            == (1, 0, dp.bitset({0, 1})))
    assert _children(dp._rule_000, dp.bitset({5}), 4, 0)[5] == (4, 4, 0)
    assert (_children(dp._rule_000, dp.bitset({0, 1, 2, 3}), 2, 0)[2]
            == (2, 1, dp.bitset({0, 1, 2})))


def test_renumber_floor():
    # 110: a repeated letter i kills every value below it and becomes 0; the
    # child is (a + [l<i] - i, 0, S >> i)
    assert (_children(dp._rule_110, dp.bitset({0, 1, 2, 3}), 2, 0)[2]
            == (1, 0, dp.bitset({0, 1})))
    assert (_children(dp._rule_110, dp.bitset({0, 1, 3}), 2, 0)[0]
            == (2, 0, dp.bitset({0, 1, 3})))
    assert _children(dp._rule_110, dp.bitset({0, 1}), 0, 0)[1] == (0, 0, 1)


def test_largest_below():
    # 120: every value below s, the largest value of S under the letter i
    # (0 if none), dies, so the child's last letter is i - s
    S = dp.bitset({0, 2, 5})
    kids = _children(dp._rule_120, S, 5, 0)
    assert [i - l for i, (_, l, _) in enumerate(kids)] == [0, 0, 0, 2, 2, 2, 5]
    assert kids[4] == (4, 2, dp.bitset({0, 2, 3}))
    assert kids[0] == (5, 0, S)
    assert _children(dp._rule_120, 1, 2, 0)[3] == (3, 3, dp.bitset({0, 3}))
    # a Python int key reads s exactly at any width: 2**54 - 1 rounds up to
    # 2**54 as a float64, which would read s = 54
    assert _children(dp._rule_120, dp.bitset(range(54)), 53, 0)[54] == (1, 1, dp.bitset({0, 1}))
    # a uint64 key reads s at a letter past 63 too, where no uint64 mask
    # (1 << i) - 1 exists
    key = dp._pack(dp.bitset({0, 3, 40}), 80, 5)
    assert int(dp._rule_120(np.array([key], dtype=np.uint64), 70)[0]) == dp._rule_120(key, 70)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(dp._RULES)), st.integers(0, 2 ** dp._S_BITS - 1),
       st.integers(-1, dp._S_BITS - 2), st.data())
def test_rules_agree_on_int_and_array_keys(variant, S, a, data):
    # a uint64 key array must give the Python-int children exactly: a mixed
    # int64/uint64 operation would promote to float64 and round keys above
    # 2**53. Letters stay below _S_BITS, so every child fits the sweep key.
    l = data.draw(st.integers(-2, a + 1))
    others = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=3))
    pos = data.draw(st.integers(0, len(others)))
    rule, key = dp._RULES[variant], dp._pack(S, a, l)
    keys = np.array(others[:pos] + [key] + others[pos:], dtype=np.uint64)
    values = {v for v in range(dp._S_BITS) if S >> v & 1}
    for i in range(a + 2):
        kids = rule(keys, i)
        assert kids.dtype == np.uint64
        kid = rule(key, i)
        assert int(kids[pos]) == kid, (variant, i)
        if variant == "120":
            # l' = i - s, s the largest value of S below i, or 0
            assert dp._unpack(kid)[1] == i - max({v for v in values if v < i} | {0})


def test_sweep_key_guard():
    def step(rule, S, a, l):
        keys = np.array([dp._pack(S, a, l)], dtype=np.uint64)
        keys, weights = dp._sweep_step(rule, keys, np.array([1], dtype=object), 60)
        return np.sort(keys), weights

    # 110 (a=47, l=0, S={0}): the new letter 48 would set bit 48 of S
    with pytest.raises(ValueError, match="bit 48"):
        step(dp._single(dp._rule_110), 1, 47, 0)
    # one letter fewer sets at most bit 47; the layer equals the scalar rule's
    keys, weights = step(dp._single(dp._rule_110), 1, 46, 0)
    want = sorted(dp._pack(S, a, l) for a, l, S in _children(dp._rule_110, 1, 46, 0))
    assert keys.tolist() == want and weights.tolist() == [1] * 48
    # 120 (a=50, S={0}): letter 48 has nothing below it in S but 0, so its
    # child sets bit 48
    with pytest.raises(ValueError, match="bit 48"):
        step(dp._single(dp._rule_120), 1, 50, 0)
    # with 10 in S every child sets at most bit 41, so letters up to 51 pass:
    # the guard is on the bit set, not on a or on the letter
    keys, _ = step(dp._single(dp._rule_120), dp.bitset({0, 10}), 50, 0)
    assert len(keys) == 52 and int((keys & 0xFF).max()) - 2 == 41
    # marked 110 (a=47, l=0, no marks): marking the new letter 48 sets bit 48
    with pytest.raises(ValueError, match="bit 48"):
        step(dp._rule_110_marked, 1, 47, 0)
    # at a=46 the marks reach bit 47: letters 1..47 each give an erased and
    # a marked child, and erasing 1 gives the floor child again
    keys, _ = step(dp._rule_110_marked, 1, 46, 0)
    assert len(keys) == 2 * 47 and int((keys >> 16).max()) == 1 | 1 << 47


def test_ascent_series_golden():
    s = dp.enumerate_ascent(6)
    assert s.values == [1, 2, 5, 15, 53, 217]
    assert s.at(5) == 53  # f(4, 0, 0)
    assert s.at(1) == 1


def test_ascent_series_matches_product_generating_function():
    # independent check: A(t) = sum_n prod_{i=1..n} (1 - (1-t)^i), exact
    # integer polynomial arithmetic truncated at degree N
    N = 200

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


LAYERED = (dp.enumerate_ascent, dp.enumerate_000_polynomial, dp.enumerate_100)
PREFIX_N = 40


@functools.cache
def _full_run(engine, n_terms):
    return engine(n_terms).values


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAYERED), st.integers(1, PREFIX_N))
def test_layered_prefix_consistency(engine, n):
    # slice bounds depend on n_terms, so a short run exercises other edges
    assert engine(n).values == _full_run(engine, PREFIX_N)[:n]


RECURRENCE_N = 30


@functools.cache
def _recurrence_100():
    """Series through RECURRENCE_N from the four range sums of
    enumerate_100's docstring, read one state at a time into a dict; a = -1
    holds no states."""
    memo = {}

    def f(n, a, l, m):
        if a < 0:
            return 0
        if n == 0:
            return 1
        key = (n, a, l, m)
        if key not in memo:
            k = n - 1
            memo[key] = (sum(f(k, a - 1, i - 1, m - 1) for i in range(min(l, m - 1) + 1))
                         + sum(f(k, a, i - 1, m - 1) for i in range(l + 1, m))
                         + sum(f(k, a + 1, i, i) for i in range(max(m, l + 1), a + 2))
                         + (f(k, a, m, m) if l == m else 0))
        return memo[key]

    return [f(n - 1, 0, 0, 0) for n in range(1, RECURRENCE_N + 1)]


@functools.cache
def _recurrence_000():
    """Series through RECURRENCE_N from the four range sums of
    enumerate_000_polynomial's docstring, read one state at a time into a
    dict; a = -2 admits no letters."""
    memo = {}

    def f(n, a, l, K):
        if n == 0:
            return 1
        if a == -2:
            return 0
        key = (n, a, l, K)
        if key not in memo:
            k = n - 1
            memo[key] = (sum(f(k, a - 1, i - 1, K - 1) for i in range(min(l, K - 1) + 1))
                         + sum(f(k, a, i - 1, K - 1) for i in range(l + 1, K))
                         + sum(f(k, a, i, K + 1) for i in range(K, min(l, a + 1) + 1))
                         + sum(f(k, a + 1, i, K + 1) for i in range(max(K, l + 1), a + 2)))
        return memo[key]

    return [f(n - 1, 0, 0, 1) for n in range(1, RECURRENCE_N + 1)]


def test_100_matches_its_recurrence():
    series = _recurrence_100()
    for n in range(1, RECURRENCE_N + 1):
        assert dp.enumerate_100(n).values == series[:n], n


def test_000_matches_its_recurrence():
    series = _recurrence_000()
    for n in range(1, RECURRENCE_N + 1):
        assert dp.enumerate_000_polynomial(n).values == series[:n], n


def test_layered_engines_switch_to_exact_ints_past_the_word_bound(monkeypatch):
    # a limit of 0 makes the layer exact before step 1, 2**20 early, 2**40
    # mid-run and the real limit late; an int64 value past 2**63 would wrap
    # silently and change the series
    checks = []
    past = dp._past_word_bound

    def recording(arrays, n_terms):
        checks.append(past(arrays, n_terms))
        return checks[-1]

    monkeypatch.setattr(dp, "_past_word_bound", recording)
    for engine, want in ((dp.enumerate_000_polynomial, _recurrence_000()),
                         (dp.enumerate_100, _recurrence_100())):
        switched = []
        for limit in (0, 2 ** 20, 2 ** 40, dp._WORD_LIMIT):
            monkeypatch.setattr(dp, "_WORD_LIMIT", limit)
            checks.clear()
            assert engine(RECURRENCE_N).values == want, (engine.__name__, limit)
            # one check per step; the layer turns exact once and stays so
            assert len(checks) == RECURRENCE_N - 1 and checks.count(True) == 1
            switched.append(checks.index(True) + 1)
        assert switched[0] == 1, engine.__name__
        assert switched == sorted(set(switched)) and switched[-1] < RECURRENCE_N - 1


SETSTATE_PREFIX_N = {dp.enumerate_000_exponential: 20, dp.enumerate_110: 26,
                     dp.enumerate_110_exponential: 20, dp.enumerate_120: 30,
                     dp.enumerate_120_exponential: 30}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(SETSTATE_PREFIX_N)), st.data())
def test_setstate_prefix_consistency(engine, data):
    # the last count comes from the layer before it, sum w * (a+2), so every
    # n takes that path at a different depth; the marked 110 sweep drops
    # the states with more marks than letters left, so every n prunes
    # differently
    N = SETSTATE_PREFIX_N[engine]
    n = data.draw(st.integers(1, N))
    assert engine(n).values == _full_run(engine, N)[:n]


def test_oracle_equivalence_small():
    for pat, fn in (("000", dp.enumerate_000_polynomial),
                    ("000", dp.enumerate_000_exponential),
                    ("100", dp.enumerate_100),
                    ("110", dp.enumerate_110),
                    ("110", dp.enumerate_110_exponential),
                    ("120", dp.enumerate_120),
                    ("120", dp.enumerate_120_exponential)):
        assert fn(11).values == sq.brute_force_avoiders(pat, 11).values, pat


@pytest.mark.parametrize("pat", ["000", "100", "110", "120"])
def test_oracle_equivalence_at_the_oracle_cap(pat):
    want = sq.brute_force_avoiders(pat, sq.ORACLE_CAP).values
    algos = [algo for p, algo in dp.ENGINES if p == pat]
    assert "dp" in algos
    for algo in algos:
        got = dp.enumerate_avoiders(pat, sq.ORACLE_CAP, algorithm=algo).values
        assert got == want, (pat, algo)


def test_golden_000_prefix():
    assert dp.enumerate_000_polynomial(7).values == [1, 2, 4, 10, 27, 83, 277]
    assert dp.enumerate_000_exponential(7).values == [1, 2, 4, 10, 27, 83, 277]


def test_memo_hits_count_cached_child_reads():
    for variant in ("000", "110", "120"):
        _, cache = dp.enumerate_with_cache(variant, 10)
        # each lookup of a non-base state is one hit or one miss: the nine
        # roots with n >= 1 and the a+2 children of each stored state with n >= 2
        lookups = 9 + sum(a + 2 for n, a, _, _ in cache.data if n >= 2)
        assert cache.hits + cache.misses == lookups, variant
        assert cache.misses == len(cache.data) and cache.hits > 0
        hits = cache.hits
        dp.suffix_count(variant, 9, 0, 0, 1, cache=cache)
        assert cache.hits == hits + 1
    # a cache holds one variant's counts and is not read for another's
    with pytest.raises(ValueError, match="cache belongs to variant '000'"):
        dp.suffix_count("110", 3, 0, 0, 1, cache=dp.MemoCache("000"))


def test_memo_engine_matches_forward():
    for variant in ("000", "110", "120"):
        series, cache = dp.enumerate_with_cache(variant, 12)
        assert series.values == dp._forward_series(dp._single(dp._RULES[variant]), 12).values
        assert len(cache.data) > 0


def test_poly_equals_exponential_000():
    n = 22
    assert (dp.enumerate_000_polynomial(n).values
            == dp.enumerate_000_exponential(n).values)


def _raw_layers(variant, n_terms):
    """Every layer of keys the raw sweep builds in a run of n_terms."""
    keys = np.array([dp._pack(1, 0, 0)], dtype=np.uint64)
    weights = np.array([1], dtype=object)
    layers = [keys]
    for _ in range(n_terms - 2):
        keys, weights = dp._sweep_step(dp._single(dp._RULES[variant]), keys, weights, n_terms)
        layers.append(keys)
    return np.concatenate(layers)


def _sorted_gaps_120(key):
    """Reference canonical key, one state at a time: the gaps of
    T = S ∩ [l, a+1] in ascending order upwards from l, and 0 kept in S."""
    a, l, S = dp._unpack(key)
    T = [v for v in range(l, S.bit_length()) if S >> v & 1]
    gaps = sorted(hi - lo for lo, hi in zip(T, T[1:]))
    return dp._pack(dp.bitset([0, *accumulate(gaps, initial=l)]), a, l)


def test_120_states_hold_only_zero_below_l():
    # proved in dp._canonical_120: S ∩ [0, l) = {0} whenever l > 0
    keys = _raw_layers("120", 20)
    l = (keys & 0xFF) - 2
    below = keys >> 16 & ((np.uint64(1) << l) - 1)
    assert int(l.max()) < 20 and (below == (l > 0)).all()


def test_canonical_120_map():
    keys = _raw_layers("120", 20)
    canon = dp._canonical_120(keys)
    assert canon.tolist() == [_sorted_gaps_120(k) for k in keys.tolist()]
    assert (dp._canonical_120(canon) == canon).all()
    for key, c in zip(keys.tolist(), canon.tolist()):
        (a, l, S), (ca, cl, cS) = dp._unpack(key), dp._unpack(c)
        assert (ca, cl, cS.bit_length()) == (a, l, S.bit_length())
        assert (cS >> l).bit_count() == (S >> l).bit_count()
    assert len(set(canon.tolist())) < len(keys) / 2
    # the conjecture, state by state: memo-cache keys with one canonical
    # form hold one count
    _, cache = dp.enumerate_with_cache("120", 16)
    rep = dp.cache_repetition_report(cache, group_by=lambda k: (
        k[0], int(dp._canonical_120(np.array([dp._pack(k[3], k[1], k[2])],
                                             dtype=np.uint64))[0])))
    assert rep.single_valued_fraction == 1.0 and len(rep.groups) < len(cache)


@st.composite
def _wide_120_key(draw):
    """A key with S ∩ [0, l) = {0} and T anywhere below bit _S_BITS."""
    l = draw(st.integers(0, dp._S_BITS - 1))
    above = draw(st.integers(0, 2 ** (dp._S_BITS - 1 - l) - 1))
    S = 1 | (above << 1 | 1) << l
    return dp._pack(S, draw(st.integers(max(0, S.bit_length() - 2), dp._FIELD_TOP)), l)


@settings(max_examples=100, deadline=None)
@given(st.lists(_wide_120_key(), min_size=1, max_size=4))
def test_canonical_120_map_on_wide_keys(keys):
    # rows with gaps up to bit 47 and unequal gap counts in one array
    canon = dp._canonical_120(np.array(keys, dtype=np.uint64))
    assert canon.tolist() == [_sorted_gaps_120(k) for k in keys]


def _dict_step(rule, layer, canonical=None):
    """Reference sweep step on a {key: weight} dict: every child of every
    parent from the scalar rule, equal keys summed, then mapped by
    `canonical` and summed again."""
    kids = {}
    for key, w in layer.items():
        for i in range(key >> 8 & 0xFF):
            kid = rule(key, i)
            kids[kid] = kids.get(kid, 0) + w
    if canonical is None:
        return kids
    out = {}
    for key, w in kids.items():
        c = canonical(key)
        out[c] = out.get(c, 0) + w
    return out


# sweep -> (variant, canonical map of the engine, reference map)
SWEEPS = {"000": ("000", None, None), "110": ("110", None, None),
          "120": ("120", None, None),
          "120-canonical": ("120", dp._canonical_120, _sorted_gaps_120)}


@functools.cache
def _dict_layers(sweep, n_terms=14):
    """Every parent layer of a sweep of n_terms, built by `_dict_step`."""
    variant, _, reference = SWEEPS[sweep]
    layers = [{dp._pack(1, 0, 0): 1}]
    while len(layers) < n_terms - 2:
        layers.append(_dict_step(dp._RULES[variant], layers[-1], reference))
    return layers


@pytest.mark.parametrize("sweep", SWEEPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sweep_step_matches_dict_step(sweep, data):
    # the whole next layer, not only its mass: the same distinct keys with
    # the same summed weights, sorted by a, for int64 and exact weights
    variant, canonical, reference = SWEEPS[sweep]
    rule = dp._RULES[variant]
    for layer in _dict_layers(sweep):
        # parents sorted by a only, in no set order within an a
        keys = sorted(layer, key=lambda k: k >> 8 & 0xFF)
        for dtype, top in ((np.int64, 2 ** 40), (object, 2 ** 100)):
            drawn = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=16))
            weights = [drawn[j % len(drawn)] for j in range(len(keys))]
            got_k, got_w = dp._sweep_step(dp._single(rule), np.array(keys, dtype=np.uint64),
                                          np.array(weights, dtype=dtype), 0, canonical)
            assert got_k.dtype == np.uint64 and got_w.dtype == np.dtype(dtype)
            a2 = (got_k >> 8 & 0xFF).tolist()
            assert a2 == sorted(a2)
            want = _dict_step(rule, dict(zip(keys, weights)), reference)
            assert len(got_k) == len(want)
            assert dict(zip(got_k.tolist(), got_w.tolist())) == want


def _marked_children(a, l, M, left):
    """Children (a, l, M) of a marked 110 state by the transitions of
    enumerate_110's docstring, M a frozenset of marks; those with more marks
    than `left` are dropped."""
    kids = []
    for i in range(a + 2):
        up = int(l < i)
        if i == 0:
            kids.append((a, 0, M))
        elif i not in M:
            kids.append((a + up - 1, i - 1, frozenset(m - (m > i) for m in M)))
            kids.append((a + up, i, M | {i}))
        elif i == min(M):
            kids.append((a + up - i, 0, frozenset(m - i for m in M if m != i)))
    return [k for k in kids if len(k[2]) <= left]


def _marked_l_map(a, l, M):
    """l moved down to the largest of 0, min M and the unmarked values at or
    below it."""
    return a, max(p for p in range(l + 1) if p == 0 or p not in M or p == min(M)), M


def _marked_key(a, l, M):
    return dp._pack(dp.bitset({0, *M}), a, l)


@pytest.mark.parametrize("l_map", [False, True])
def test_marked_110_step_matches_the_transitions(l_map):
    # every layer of a run of 14, stepped by the sweep and by the
    # transitions one state at a time, as distinct keys and summed weights
    n_terms = 14
    layer = {(0, 0, frozenset()): 1}
    for step in range(2, n_terms + 1):
        left = n_terms - step
        packed = {_marked_key(*st): w for st, w in layer.items()}
        keys = sorted(packed, key=lambda k: k >> 8 & 0xFF)
        got_k, got_w = dp._sweep_step(dp._rule_110_marked, np.array(keys, dtype=np.uint64),
                                      np.array([packed[k] for k in keys], dtype=np.int64),
                                      left, dp._canonical_110 if l_map else None)
        new = {}
        for st, w in layer.items():
            for kid in _marked_children(*st, left):
                kid = _marked_l_map(*kid) if l_map else kid
                new[kid] = new.get(kid, 0) + w
        layer = new
        assert dict(zip(got_k.tolist(), got_w.tolist())) == {
            _marked_key(*st): w for st, w in layer.items()}, step
    # the last layer holds only unmarked states, and they count length 14
    assert all(not M for _, _, M in layer)
    assert sum(layer.values()) == dp.enumerate_110_exponential(n_terms).values[-1]


def test_marked_110_l_map():
    # the map keeps a and M, moves l down only, is idempotent, and lands on
    # 0, min M or an unmarked value
    keys = []
    for a in range(-1, 8):
        for M in range(1 << (a + 1)):
            S = 1 | M << 1           # marks within [1, a+1]
            keys += [dp._pack(S, a, l) for l in range(a + 2)]
    keys = np.array(keys, dtype=np.uint64)
    canon = dp._canonical_110(keys)
    assert (dp._canonical_110(canon) == canon).all()
    for key, c in zip(keys.tolist(), canon.tolist()):
        (a, l, S), (ca, cl, cS) = dp._unpack(key), dp._unpack(c)
        M = frozenset(v for v in range(1, S.bit_length()) if S >> v & 1)
        assert (ca, cl, cS) == (a, _marked_l_map(a, l, M)[1], S)


def test_marked_110_with_and_without_the_l_map():
    # the map is proved sound (dp.enumerate_110); the sweep without it
    # gives the same series through n=32
    n = 32
    plain = dp._forward_series(dp._rule_110_marked, n, None, dp._no_marks, fanout=2)
    assert plain.values == dp.enumerate_110(n).values


def test_weights_switch_to_exact_ints_past_the_word_bound(monkeypatch):
    engines = {dp.enumerate_000_exponential: 16, dp.enumerate_110: 16,
               dp.enumerate_110_exponential: 16, dp.enumerate_120: 24,
               dp.enumerate_120_exponential: 24}
    want = {engine: engine(n).values for engine, n in engines.items()}
    dtypes = []
    step = dp._sweep_step

    def recording_step(rule, keys, weights, *args):
        dtypes.append(weights.dtype)
        return step(rule, keys, weights, *args)

    monkeypatch.setattr(dp, "_sweep_step", recording_step)
    monkeypatch.setattr(dp, "_WORD_LIMIT", 1000)
    for engine, n in engines.items():
        dtypes.clear()
        assert engine(n).values == want[engine], engine.__name__
        # int64 until the bound first fails, exact ints from then on
        k = dtypes.index(object)
        assert 0 < k < len(dtypes) - 1
        assert set(dtypes[:k]) == {np.dtype(np.int64)} and set(dtypes[k:]) == {np.dtype(object)}


def test_golden_120_state_trace():
    trace = [dp.suffix_count("120", n, 4, 0, {0, 1, 2, 4}) for n in range(6)]
    assert trace == [1, 6, 32, 160, 778, 3747]
    for alt in ({0, 1, 3, 4}, {0, 2, 3, 4}):
        assert [dp.suffix_count("120", n, 4, 0, alt) for n in range(6)] == trace


def test_against_direct_state_safeguards():
    # independent machines with raw value-set states; beyond the oracle cap.
    # Each count runs once, in a two-process pool, longest first (100 n=21
    # takes about 23 s, 000 n=18 about 9 s, the other two under 1 s)
    counts = {"100": (sg.direct_count_100, 21), "000": (sg.direct_count_000, 18),
              "110": (sg.direct_count_110, 16), "120": (sg.direct_count_120, 16)}
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {key: pool.submit(fn, n) for key, (fn, n) in counts.items()}
        want = {key: fut.result() for key, fut in futures.items()}
    assert dp.enumerate_100(21).values == want["100"]
    assert dp.enumerate_110(16).values == want["110"]
    assert dp.enumerate_110_exponential(16).values == want["110"]
    assert dp.enumerate_000_polynomial(18).values == want["000"]
    assert dp.enumerate_120(16).values == want["120"]
    assert dp.enumerate_120_exponential(16).values == want["120"]


def test_series_strictly_increasing():
    for fn in (dp.enumerate_ascent, dp.enumerate_000_polynomial,
               dp.enumerate_100, dp.enumerate_110, dp.enumerate_120):
        v = fn(12).values
        assert all(b > a for a, b in zip(v[1:], v[2:]))


def test_determinism_repeat_runs():
    for fn in (dp.enumerate_000_polynomial, dp.enumerate_100, dp.enumerate_120):
        assert fn(14).values == fn(14).values


def test_caps(monkeypatch):
    # every capped engine raises one past its own cap, naming itself, before
    # any sweep starts, and reaches the sweep at its cap
    assert set(dp.CAPS) <= set(dp.ENGINES.values())

    def no_sweep(*args):
        raise AssertionError("sweep started")
    with monkeypatch.context() as m:
        m.setattr(dp, "_sweep_step", no_sweep)
        for name, cap in dp.CAPS.items():
            with pytest.raises(CapExceededError, match=f"^{name} capped at {cap} terms"):
                getattr(dp, name)(cap + 1)
            with pytest.raises(AssertionError, match="sweep started"):
                getattr(dp, name)(cap)
    # override proceeds with a warning and still computes correct values
    monkeypatch.setitem(dp.CAPS, "enumerate_110", 6)
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


def test_length_guards():
    # every engine and the oracle reject an empty run instead of returning [1]
    for pattern, algo in dp.ENGINES:
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            dp.enumerate_avoiders(pattern, 0, algorithm=algo)
    with pytest.raises(ValueError, match="n_terms must be >= 1"):
        sq.brute_force_avoiders("120", 0)
    # a negative suffix length raises before any work
    for variant in ("000", "110", "120"):
        with pytest.raises(ValueError, match="suffix length"):
            dp.suffix_count(variant, -1, 0, 0, 1)


def test_sweep_rejects_unpackable_runs(monkeypatch):
    def no_sweep(key, i):
        raise AssertionError("sweep started")
    monkeypatch.setitem(dp._RULES, "120", no_sweep)
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="key fields"):
        dp.enumerate_120(300, allow_over_cap=True)
    # the longest packable run does reach the sweep
    with pytest.raises(AssertionError, match="sweep started"):
        dp._forward_series(dp._single(dp._RULES["120"]), dp._FIELD_TOP)


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
    assert dp.enumerate_avoiders("120", 8).values == dp.enumerate_120(8).values


def test_cache_repetition_report_000():
    _, cache = dp.enumerate_with_cache("000", 14)
    rep = dp.cache_repetition_report(cache)
    # the cardinality projection collapses most groups but provably not all:
    # elements of S above l cannot be bubbled down (see the i < l condition),
    # e.g. f(3,1,0,{1}) = 35 != 37 = f(3,1,0,{0})
    assert 0.85 < rep.single_valued_fraction < 1.0
    assert dp.suffix_count("000", 3, 1, 0, {1}) == 35
    assert dp.suffix_count("000", 3, 1, 0, {0}) == 37
    assert len(rep.groups[3, 1, 0, 1]) > 1


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
    ok, checked = bijection_lemma_pairs_equal(cache)
    assert ok and checked > 500


def test_bijection_lemma_pairs_detect_a_wrong_value():
    from ascentlab.verify import bijection_lemma_pairs_equal
    _, cache = dp.enumerate_with_cache("000", 8)
    # the first key with a partner holds a value one too large
    key = next((n, a, l, S) for (n, a, l, S) in cache.data
               if any((S >> i) & 1 and not (S >> (i + 1)) & 1 for i in range(max(l, 0))))
    cache.data[key] += 1
    ok, checked = bijection_lemma_pairs_equal(cache)
    assert not ok and checked >= 1
