"""Core combinatorics: definitions, pattern containment, oracles."""

import math
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import sequences as sq
from ascentlab.errors import CapExceededError
from ascentlab.series import CoefficientSeries


def _cmp(a, b):
    return (a > b) - (a < b)


def pattern_occurrences(seq, pattern):
    """Number of occurrences (index sets) of pattern in seq: the reference
    that `contains_pattern` is checked against. Exhaustive; meant for short
    sequences."""
    count = 0
    for idxs in combinations(range(len(seq)), len(pattern)):
        if all(_cmp(seq[i], seq[j]) == _cmp(pattern[a], pattern[b])
               for (a, i), (b, j) in combinations(enumerate(idxs), 2)):
            count += 1
    return count


def direct_sum_concat(c1, c2):
    """c1 followed by c2 shifted up by max(c1).

    Both inputs must be ascent sequences; the result is one, and it avoids any
    sum-indecomposable pattern both inputs avoid.
    """
    if not sq.is_ascent_sequence(c1) or not sq.is_ascent_sequence(c2):
        raise ValueError("direct_sum_concat requires ascent sequences")
    if not c1:
        return tuple(c2)
    if not c2:
        return tuple(c1)
    shift = max(c1)
    return tuple(c1) + tuple(v + shift for v in c2)


def test_ascent_count_examples():
    assert sq.ascent_count((0, 1, 2, 2)) == 2
    assert sq.ascent_count(()) == 0
    assert sq.ascent_count((5,)) == 0
    assert sq.ascent_count((0, 1, 0, 2, 3, 1, 0, 2)) == 4


def test_is_ascent_sequence_examples():
    assert sq.is_ascent_sequence((0, 1, 0, 2, 3, 1, 0, 2))
    assert not sq.is_ascent_sequence((0, 1, 2, 2, 4, 3))  # 4 > asc(0122)+1
    assert sq.is_ascent_sequence((0,))
    assert sq.is_ascent_sequence(())
    assert not sq.is_ascent_sequence((1,))


def test_weak_ascent_examples():
    assert sq.is_weak_ascent_sequence(())
    assert sq.is_weak_ascent_sequence((0, 1))
    assert not sq.is_weak_ascent_sequence((1, 0))
    assert sq.is_weak_ascent_sequence((0, 0, 0))
    # the definition constrains only the whole word, not prefixes
    assert sq.is_weak_ascent_sequence((1, 0, 1))
    assert sq.is_weak_ascent_sequence((0, 2, 0, 1))


def test_weak_ascent_sequences_match_definition():
    # a (weak) ascent sequence of length k has at most k-1 ascents, so every
    # letter lies below k; product() yields the words in lexicographic order
    for generate, defined in ((sq.weak_ascent_sequences, sq.is_weak_ascent_sequence),
                              (sq.ascent_sequences, sq.is_ascent_sequence)):
        for k in range(0, 7):
            want = [s for s in product(range(k), repeat=k) if defined(s)]
            assert list(generate(k)) == want, (generate.__name__, k)


def test_every_ascent_sequence_is_weak():
    for k in range(0, 10):
        for s in sq.ascent_sequences(k):
            assert sq.is_weak_ascent_sequence(s), s


def test_pattern_validation():
    for good in ("000", "100", "110", "120", "201", "0123", "010"):
        sq.parse_pattern(good)
    with pytest.raises(ValueError):
        sq.parse_pattern("130")
    with pytest.raises(ValueError):
        sq.parse_pattern("02")


def test_contains_pattern_examples():
    assert sq.contains_pattern((0, 1, 0, 2, 3, 1), (0, 0, 1))
    assert pattern_occurrences((0, 1, 0, 2, 3, 1), (0, 0, 1)) == 3
    assert sq.contains_pattern((0, 0, 0), (0, 0, 0))
    assert not sq.contains_pattern((0, 1, 2), (0, 0, 0))
    assert sq.contains_pattern((0, 1, 1, 0), (1, 1, 0))
    assert not sq.contains_pattern((0, 1), (0, 1, 2))
    assert sq.contains_pattern((), ())


def test_contains_pattern_monotone_under_supersequence():
    rng = random.Random(7)
    patterns = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (2, 0, 1)]
    for _ in range(300):
        k = rng.randrange(3, 10)
        s = tuple(rng.randrange(0, 4) for _ in range(k))
        keep = sorted(rng.sample(range(k), rng.randrange(3, k + 1)))
        sub = tuple(s[i] for i in keep)
        for p in patterns:
            if sq.contains_pattern(sub, p):
                assert sq.contains_pattern(s, p)


def _dense(word):
    """Rank-normalise a word so its distinct letters form 0..r."""
    ranks = {v: i for i, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=8),
       st.lists(st.integers(0, 3), max_size=4))
def test_contains_pattern_matches_occurrence_count(seq, word):
    seq, pattern = tuple(seq), _dense(word)
    assert sq.contains_pattern(seq, pattern) == (pattern_occurrences(seq, pattern) > 0)


def test_weak_reverse_complement():
    assert sq.weak_reverse_complement((0, 1, 0)) == (1, 0, 1)
    assert sq.weak_reverse_complement((3, 3, 3)) == (3, 3, 3)
    with pytest.raises(ValueError):
        sq.weak_reverse_complement(())


def test_weak_reverse_complement_involution_properties():
    for k in range(1, 8):
        for s in sq.weak_ascent_sequences(k):
            m = sq.weak_reverse_complement(s)
            assert sq.weak_reverse_complement(m) == tuple(s)
            assert sq.ascent_count(m) == sq.ascent_count(s)
            assert max(m) == max(s) and min(m) == min(s)
            assert sq.is_weak_ascent_sequence(m)
            assert (sq.contains_pattern(s, (1, 2, 0))
                    == sq.contains_pattern(m, (2, 0, 1)))


def test_direct_sum_concat():
    assert direct_sum_concat((0,), (0,)) == (0, 0)
    assert direct_sum_concat((0, 1), (0, 1)) == (0, 1, 1, 2)
    with pytest.raises(ValueError):
        direct_sum_concat((1, 0), (0,))


def test_direct_sum_preserves_avoidance_of_120():
    # sum-indecomposable pattern: avoidance of both parts carries to the sum
    pat = (1, 2, 0)
    pool = {k: [s for s in sq.ascent_sequences(k)
                if not sq.contains_pattern(s, pat)] for k in range(1, 6)}
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            if k1 + k2 > 8:
                continue
            for c1 in pool[k1]:
                for c2 in pool[k2]:
                    out = direct_sum_concat(c1, c2)
                    assert sq.is_ascent_sequence(out)
                    assert not sq.contains_pattern(out, pat), (c1, c2)


def test_brute_force_golden_prefixes():
    assert sq.brute_force_avoiders("000", 7).values == [1, 2, 4, 10, 27, 83, 277]
    s = sq.brute_force_avoiders("001", 10)
    assert s.values == [2 ** (k - 1) for k in range(1, 11)]
    # closed-form index convention fixed by the oracle: (3^(k-1)+1)/2
    assert sq.brute_force_avoiders("102", 6).at(5) == 41
    assert sq.brute_force_avoiders("101", 6).at(5) == 42  # Catalan C_5


def test_brute_force_closed_forms():
    catalan = lambda n: math.comb(2 * n, n) // (n + 1)
    for pat in ("001", "010", "011", "012"):
        assert sq.brute_force_avoiders(pat, 10).values == \
            [2 ** (k - 1) for k in range(1, 11)]
    assert sq.brute_force_avoiders("102", 10).values == \
        [(3 ** (k - 1) + 1) // 2 for k in range(1, 11)]
    for pat in ("101", "021"):
        assert sq.brute_force_avoiders(pat, 10).values == \
            [catalan(k) for k in range(1, 11)]


def test_brute_force_length_guard_and_single_term():
    # the forward-sweep oracles serve length-3 patterns only; a length-1 run
    # is the single sequence 0 (or, weak, the single letter 0)
    for bad in ("0", "01", "0120", (1, 0, 2, 0)):
        with pytest.raises(ValueError, match="length-3 patterns only"):
            sq.brute_force_avoiders(bad, 5)
    for pat in ("000", "120", "201"):
        assert sq.brute_force_avoiders(pat, 1).values == [1]
        assert sq.brute_force_avoiders(pat, 1, weak=True).values == [1]


LENGTH3_PATTERNS = sorted({_dense(w) for w in product(range(3), repeat=3)})


def test_oracle_matches_definition_every_length3_pattern():
    # the bit-set forward-sweep kernels against plain filtering of every
    # (weak) ascent sequence by contains_pattern
    assert len(LENGTH3_PATTERNS) == 13
    strong = {k: list(sq.ascent_sequences(k)) for k in range(1, 9)}
    weak = {k: list(sq.weak_ascent_sequences(k)) for k in range(1, 8)}
    for p in LENGTH3_PATTERNS:
        want = [sum(1 for s in strong[k] if not sq.contains_pattern(s, p))
                for k in range(1, 9)]
        assert sq.brute_force_avoiders(p, 8).values == want, p
        want = [sum(1 for s in weak[k] if not sq.contains_pattern(s, p))
                for k in range(1, 8)]
        assert sq.brute_force_avoiders(p, 7, weak=True).values == want, p


def test_blocked_letters_match_definition():
    # appending x to a prefix with letter set `seen` blocks z for good iff
    # some u in `seen` makes (u, x, z) an occurrence of the pattern
    width = 5
    for p in LENGTH3_PATTERNS:
        blocks = sq._BlockedLetters(p, width)
        for seen in range(1 << width):
            us = [u for u in range(width) if seen >> u & 1]
            for x in range(width):
                want = sum(1 << z for z in range(width)
                           if any(sq.contains_pattern((u, x, z), p) for u in us))
                assert blocks[seen, x] == want, (p, seen, x)


def test_blocked_letters_match_definition_at_width_7():
    # the masks' top-bit edges (letters above x, above the least u) reach
    # the table's top letter at width 7
    width = 7
    for p in LENGTH3_PATTERNS:
        blocks = sq._BlockedLetters(p, width)
        for seen in range(1 << width):
            us = [u for u in range(width) if seen >> u & 1]
            for x in range(width):
                want = sum(1 << z for z in range(width)
                           if any(sq.contains_pattern((u, x, z), p) for u in us))
                assert blocks[seen, x] == want, (p, seen, x)


def test_contains_pattern_rows_matches_definition():
    # the array form against contains_pattern on every ascent sequence of
    # length <= 8 and every weak ascent sequence of length <= 7, one array
    # per family and length; the rows of weak length 7 are what verify's
    # involution check tests for 120 and 201
    groups = [list(sq.ascent_sequences(k)) for k in range(1, 9)]
    groups += [list(sq.weak_ascent_sequences(k)) for k in range(1, 8)]
    assert sum(map(len, groups)) == 20938
    for p in LENGTH3_PATTERNS:
        for seqs in groups:
            got = sq.contains_pattern_rows(np.array(seqs, dtype=np.int64), p)
            assert got.tolist() == [sq.contains_pattern(s, p) for s in seqs], p


def test_blocked_letters_reject_letters_outside_width():
    blocks = sq._BlockedLetters((1, 2, 0), 3)
    # after 0 1, the letter 2 blocks 0 for 120
    assert blocks[0b011, 2] == 0b001
    with pytest.raises(ValueError, match="outside the table's width 3"):
        blocks[0b011, 3]


def test_weak_counts_match_definition():
    # unrestricted weak ascent sequences by the definition, length 3: exactly
    # 000, 001, 010, 011, 012, 101
    seqs = sorted(sq.weak_ascent_sequences(3))
    assert seqs == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 1)]


def test_weak_theorem_small():
    w120 = sq.brute_force_avoiders("120", 8, weak=True).values
    w201 = sq.brute_force_avoiders("201", 8, weak=True).values
    assert w120 == w201


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        sq.brute_force_avoiders("000", 16)
    with pytest.warns(UserWarning):
        s = sq.brute_force_avoiders("001", 16, allow_over_cap=True)
    assert s.at(16) == 2 ** 15


@pytest.mark.parametrize("call,error,message", [
    (lambda: sq.parse_pattern((0, -1, 1)), ValueError, "non-negative"),
    (lambda: CoefficientSeries([1, 2, 5]).at(4), IndexError, r"index 4 outside \[1, 3\]"),
    (lambda: CoefficientSeries([1, 2, 5], first_index=2).truncate(1), IndexError,
     "below first index 2"),
], ids=["negative-letter", "index-past-end", "truncate-below-start"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_supermultiplicativity_small():
    for pat in ("120", "201"):
        c = sq.brute_force_avoiders(pat, 12).values
        for m in range(1, 12):
            for n in range(1, 12 - m + 1):
                assert c[m + n - 1] >= c[m - 1] * c[n - 1]
