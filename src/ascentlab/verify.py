"""Cross-check suite behind the `verify` command: desk-scale consistency
checks between the enumerators, the brute-force oracles (forward sweeps
over avoiding prefixes, `sequences.brute_force_avoiders`), closed forms, and
the structural lemmas. Each distinct engine of `dp.ENGINES` is run, through
`dp.enumerate_avoiders`, and checked once, under its first key (000's
layered engine as "dp", not again as "dp-poly"); every check that needs its
series reads a prefix of that one run. Three engines transform set states,
and each is checked against the raw sweep of its pattern: the polynomial
000 engine (S reduced to its size), the marked 110 engine (new values
guessed to repeat or erased) and the canonical 120 engine (the gaps of S
sorted, a merge that rests on a conjecture). The ascent series is checked
against the Fishburn generating function. The weak reverse-complement
involution is checked on the weak ascent sequences of each length up to 7
as one array, with containment read at every index triple
(`sequences.contains_pattern_rows`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import dp, sequences as sq


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


MAX_N_RANGE = range(4, 15)
CACHE_TERMS = 12  # terms of the memoized 000 and 110 runs of the cache checks


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def run_checks(max_n=10) -> list:
    """Run the suite; max_n bounds the exhaustive enumerations. A max_n
    outside MAX_N_RANGE (4..14) raises ValueError instead of being clamped."""
    if max_n not in MAX_N_RANGE:
        raise ValueError(f"max_n must be in {MAX_N_RANGE.start}..{MAX_N_RANGE.stop - 1}, "
                         f"got {max_n}")
    results = []

    def check(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    # each engine runs once, under its first key, at 12 terms or more
    # (factorial-lower-bounds reads 12); every check reads a prefix of it
    n_pe = min(max_n + 6, 20)
    first_key = {}
    for key, name in dp.ENGINES.items():
        first_key.setdefault(name, key)
    run = {(pat, algo): dp.enumerate_avoiders(pat, max(n_pe, 12), algorithm=algo).values
           for pat, algo in first_key.values()}

    asc = run["none", "dp"][:6]
    check("golden-ascent-series", asc == [1, 2, 5, 15, 53, 217], f"got {asc}")
    check("closed-form-ascent", run["none", "dp"][:max_n] == _fishburn(max_n),
          f"n={max_n}")

    got000 = run["000", "dp"][:7]
    check("golden-000-prefix", got000 == [1, 2, 4, 10, 27, 83, 277], f"got {got000}")

    trace = [dp.suffix_count("120", n, 4, 0, {0, 1, 2, 4}) for n in range(6)]
    check("golden-120-state-trace", trace == [1, 6, 32, 160, 778, 3747], f"got {trace}")

    oracle = {}
    for (pat, algo), series in run.items():
        if pat == "none":
            continue  # no pattern to avoid; golden-ascent-series covers it
        if pat not in oracle:
            oracle[pat] = sq.brute_force_avoiders(pat, max_n).values
        got, want = series[:max_n], oracle[pat]
        first_bad = next((i + 1 for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        check(f"oracle-equivalence-{pat}-{algo}", got == want,
              "" if got == want else f"first mismatch at n={first_bad}")

    forms = dict.fromkeys(("001", "010", "011", "012"), lambda k: 2 ** (k - 1))
    forms.update({"102": lambda k: (3 ** (k - 1) + 1) // 2, "101": _catalan, "021": _catalan})
    for pat, form in forms.items():
        got = sq.brute_force_avoiders(pat, max_n).values
        want = [form(k) for k in range(1, max_n + 1)]
        check(f"closed-form-{pat}", got == want)

    check("poly-equals-exponential-000",
          run["000", "dp"][:n_pe] == run["000", "dp-exp"][:n_pe], f"n={n_pe}")
    # the sorted-gap map of the canonical 120 engine is a conjecture
    # (dp._canonical_120), so its series is checked against the raw sweep
    check("canonical-equals-raw-120",
          run["120", "dp"][:n_pe] == run["120", "dp-exp"][:n_pe], f"n={n_pe}")
    # the marked 110 engine rests on a proved transform (dp.enumerate_110);
    # the raw sweep checks its code
    check("marked-equals-raw-110",
          run["110", "dp"][:n_pe] == run["110", "dp-exp"][:n_pe], f"n={n_pe}")

    n_weak = min(max_n, 9)
    w120 = sq.brute_force_avoiders("120", n_weak, weak=True).values
    w201 = sq.brute_force_avoiders("201", n_weak, weak=True).values
    check("weak-theorem-120-vs-201", w120 == w201, f"n={n_weak}")

    n_inv = min(max_n - 2, 7)
    check("reverse-complement-involution",
          all(_involution_holds(k) for k in range(1, n_inv + 1)), f"lengths <= {n_inv}")

    # c[k - 1] counts length k
    c000, c100, c110, c120 = (run[pat, "dp"] for pat in ("000", "100", "110", "120"))
    ok_lb = all(c000[2 * n - 1] >= math.factorial(n) and c100[2 * n - 1] >= math.factorial(n)
                for n in range(1, min(max_n // 2, 6) + 1))
    ok_lb = ok_lb and all(c110[3 * n - 1] >= math.factorial(n) for n in range(1, 5))
    check("factorial-lower-bounds", ok_lb)

    ok_sm = all(c120[m + n - 1] >= c120[m - 1] * c120[n - 1]
                for m in range(1, max_n) for n in range(1, max_n - m + 1))
    check("supermultiplicativity-120", ok_sm)

    _, cache000 = dp.enumerate_with_cache("000", CACHE_TERMS)
    rep = dp.cache_repetition_report(cache000)
    ok_pairs, n_pairs = bijection_lemma_pairs_equal(cache000)
    check("bijection-lemma-pairs", ok_pairs, f"{n_pairs} pairs checked")
    _, cache110 = dp.enumerate_with_cache("110", CACHE_TERMS)
    rep110 = dp.cache_repetition_report(cache110)
    check("cache-repetition-ordering",
          rep110.single_valued_fraction < rep.single_valued_fraction,
          f"000 fraction {rep.single_valued_fraction:.3f}, "
          f"110 fraction {rep110.single_valued_fraction:.3f}")
    return results


def _fishburn(n_terms):
    """Coefficients 1..n_terms of sum_{k>=0} prod_{i=1}^{k} (1 - (1-x)^i),
    the generating function of the Fishburn numbers, which count ascent
    sequences (Zagier 2001; Bousquet-Mélou, Claesson, Dukes and Kitaev
    2010). The product for k has no term below x^k, so k <= n_terms."""
    total = [0] * (n_terms + 1)
    power = [1] + [0] * n_terms     # (1-x)^i
    product = [1] + [0] * n_terms   # prod_{j<=i} (1 - (1-x)^j)
    for _ in range(n_terms):
        power = [p - q for p, q in zip(power, [0] + power)]
        factor = [int(d == 0) - p for d, p in enumerate(power)]
        product = [sum(product[j] * factor[d - j] for j in range(d + 1))
                   for d in range(n_terms + 1)]
        total = [t + p for t, p in zip(total, product)]
    return total[1:]


def _involution_holds(k):
    """Whether the weak reverse-complement map, on the weak ascent
    sequences of length k as one array, is an involution that keeps the
    ascent count, maps to weak ascent sequences, and sends each sequence
    that contains 120 to an image that contains 201 and back."""
    # letters lie below k <= 7, so one byte holds each letter and its image
    s = np.fromiter(chain.from_iterable(sq.weak_ascent_sequences(k)), dtype=np.int8).reshape(-1, k)
    image = _reverse_complement(s)
    ascents = (s[:, 1:] > s[:, :-1]).sum(axis=1)
    image_ascents = (image[:, 1:] > image[:, :-1]).sum(axis=1)
    return bool((_reverse_complement(image) == s).all()
                and (image_ascents == ascents).all()
                and (image.max(axis=1) <= image_ascents).all()
                and (sq.contains_pattern_rows(s, (1, 2, 0))
                     == sq.contains_pattern_rows(image, (2, 0, 1))).all())


def _reverse_complement(rows):
    """`sequences.weak_reverse_complement` of each row of an array."""
    return (rows.max(axis=1, keepdims=True) + rows.min(axis=1, keepdims=True) - rows)[:, ::-1]


def bijection_lemma_pairs_equal(cache):
    """For every cached key and every i in S with i < l and i+1 not in S,
    the key with i replaced by i+1 must hold the same value."""
    checked = 0
    for (n, a, l, S) in list(cache.data):
        for i in range(max(l, 0)):
            if (S >> i) & 1 and not (S >> (i + 1)) & 1:
                partner = (S & ~(1 << i)) | (1 << (i + 1))
                checked += 1
                if (dp.suffix_count(cache.variant, n, a, l, partner, cache=cache)
                        != cache.data[(n, a, l, S)]):
                    return False, checked
    return True, checked


def compare_series_file(loaded, pattern):
    """Recompute the exact prefix of a series file with the pattern's "dp"
    engine, under its cap (a longer file raises CapExceededError); return
    the first mismatching index or None."""
    n = loaded.n_exact
    computed = dp.enumerate_avoiders(pattern, n)
    return next((k for k in range(1, n + 1) if computed.at(k) != loaded.exact.at(k)), None)
