"""Dynamic-programming enumerators for ascent sequences and the four
pattern-avoiding families 000, 100, 110, 120, all with exact integers.

The numpy engines (layered 000 and 100, the set-state sweep) count in
int64 while an exact bound proves it safe, and in exact Python ints from
the first step where it might not: one word rule, stated at `_WORD_LIMIT`.

Two engine styles:

* Layered sweeps (ascent, 100, polynomial 000): per-length layers of state
  slices. A step builds each new slice a from the prefix sums of old slices
  a-1, a and a+1 in a few whole-slice operations (list comprehensions of
  Python ints for ascent, numpy gathers for 000), so no Python loop runs
  over a slice's entries or columns. 100 keeps per-m blocks instead, in
  which old slices a-1 and a are adjacent columns, so a step is plain
  slicing of each old block's row prefix sums. 000 and 100 take those sums
  in place and drop each old slice or block once read, so a step holds
  about one layer, and they follow the word bound (`_past_word_bound`).
  Used where hundreds of terms are wanted.
* Set-state engines (exponential 000, 110, 120): states carry a bit-set of
  letter values. Each pattern has one transition rule from a packed state
  key (see `_pack`) and a next letter to the child's key, for a Python int
  or a uint64 array alike; only `_top_bit` dispatches on the key type. One
  forward sweep, `_forward_series`, applies a sweep rule to a whole layer of
  uint64 keys per letter and sums equal children by sort and `reduceat`,
  once within each letter and once across the letters. A sweep rule gives,
  per letter, its children and a keep mask: one child, always kept, for the
  rules above (`_single`), and up to two for the marked 110 rule
  (`_rule_110_marked`), which drops the children that can no longer count.
  The sweep has two hooks. An optional canonical map over uint64 keys,
  applied to the distinct children of each step, which are then summed
  again, folds states with equal counts into one (`_canonical_120`, the
  sorted-gap form of 120 states; `_canonical_110`, the l map of marked 110
  states). An optional accepting test picks the states that count (all of
  them if none is given). Under the word rule, weights are int64 while the
  next layer's mass provably stays below `_WORD_LIMIT`. A memoized recursion
  through the same rule, one letter at a time and keyed by (n, a, l, S) with
  S unbounded, produces an introspectable value cache;
  `cache_repetition_report` groups its values by (n, a, l, |S|) or by a
  caller's projection of the key.

`ENGINES` maps each (pattern, algorithm) pair to its engine, and `CAPS`
gives each set-state engine, by name, the term cap that it checks; no other
table here names the engines. The CLI and the dispatcher read `ENGINES`,
and `verify` runs each of its engines once. "dp" names the fastest engine
of a pattern: the layered sweeps for ascent, 000 and 100, the marked-repeat
sweep for 110, and the canonical sweep for 120. "dp-poly" is the layered
000 engine again, and "dp-exp" the raw set-state sweep of 000, 110 and 120,
which serves as the independent cross-check of the 000, 110 and 120 "dp"
engines.

State conventions: `a` is the prior ascent count, `l` the previous letter;
value erasures can drive either to -1, which needs no special handling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import check_cap
from .series import CoefficientSeries


def bitset(values) -> int:
    s = 0
    for v in values:
        s |= 1 << v
    return s


# The one word bound. The set-state sweep and the layered 000 and 100
# engines count in int64 while an exact bound, taken before each step from
# the values held, proves that every value the step forms lies below this in
# absolute value. From the first step where it might not, they count in
# exact Python ints in object arrays, and stay there for the rest of the
# run; new arrays take the dtype of the layer they are built from.
_WORD_LIMIT = 2 ** 63


# ---------------------------------------------------------------------------
# layered engines
# ---------------------------------------------------------------------------

def _past_word_bound(arrays, n_terms):
    """Whether the next step of a layered 000 or 100 engine might form a
    value of _WORD_LIMIT or more in absolute value. The entries are counts,
    and each engine's docstring proves that a step forms only values below
    4 * (n_terms + 4) * M in absolute value, M the largest entry of the
    arrays. Object arrays are exact already, so for them this is false."""
    if arrays[0].dtype == object:
        return False
    top = max(int(g.max()) for g in arrays if g.size)
    return 4 * (n_terms + 4) * top >= _WORD_LIMIT


def _to_exact(arrays):
    """Make a list of int64 arrays exact Python ints in place, one array at
    a time, so that at most one int64 array is held beside the new ones."""
    for i, g in enumerate(arrays):
        arrays[i] = g.astype(object)


def enumerate_ascent(n_terms: int) -> CoefficientSeries:
    """Counts of ascent sequences of lengths 1..n_terms.

    f(n, a, l) = sum_{i=0}^{a+1} f(n-1, a + [l<i], i), f(0,.,.) = 1;
    the count at length n is f(n-1, 0, 0). With c and u the prefix sums of
    rows a and a+1 of the previous layer, f(n, a, l) = c[l] + u[a+1] - u[l],
    so a step is one `accumulate` per row and one `zip` per new row.

    The layer stays in lists of exact ints: an int64 phase under the word
    bound of the 000 and 100 engines would cover too little of the work.
    At n=200 only 11% of the entries read (156828 of 1373498) fall in the 8
    steps whose layer maximum M keeps 4(N+4)M below _WORD_LIMIT.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # layer[a][l] for l = 0..a+1
    layer = [[1] * (a + 2) for a in range(n_terms)]
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        cs = [list(accumulate(row)) for row in layer[:d + 2]]
        layer = []
        for a in range(d + 1):
            up = cs[a + 1]
            top = up[a + 1]
            # zip ends at l = a+1, the last l of row a, where top - u is 0
            layer.append([c + (top - u) for c, u in zip(cs[a], up)])
        terms.append(layer[0][0])
    return CoefficientSeries(terms, first_index=1)


def enumerate_100(n_terms: int) -> CoefficientSeries:
    """Counts of 100-avoiding ascent sequences, O(n^4) states.

    State (a, l, m) where m is the largest value seen. Letter i < m erases a
    value: child (a+[l<i]-1, i-1, m-1); letter i >= m: child (a+[l<i], i, i).
    Grouping the i-sum by child slice leaves four contiguous ranges:

    f(n,a,l,m) = sum_{i=0}^{min(l,m-1)} f(n-1, a-1, i-1, m-1)
               + sum_{i=l+1}^{m-1}      f(n-1, a,   i-1, m-1)
               + sum_{i=max(m,l+1)}^{a+1} f(n-1, a+1, i, i)
               + [l=m] f(n-1, a, m, m)

    Block m holds the entries l < m as an array [l+1, a-m+1], a = m-1..d-2
    (block 0 has an all-zero column a = -1, which holds no states), and the
    diagonal l = m of every block is one array D[m, a+1], a <= d. A step
    from depth d+1 to d reads old block columns up to a = d-1 for the new
    diagonal and up to d-2 for the new blocks, so no block column past its
    depth minus 2 is ever read, and none is stored.

    Let cs be the row prefix sums of old block m-1, all m rows of which are
    read (its last row holds the column totals), and t[m, a+2] the sum of
    f(n-1, a+1, j, j) over j = m..a+1, one reversed cumsum over the strict
    upper triangle of the old D. Row 0 of new block m is
    c[a] = cs[m-1, a] + t[m, a+2], and row l+1 >= 1 is
    cs[l, a-1] - cs[l, a] + c[a]: old columns a-1 and a are adjacent, so a
    new block is plain slicing with no gather. The diagonal is
    cs[m-1, a-1] + t[m+1, a+2] + f(n-1, a, m, m), whole-array over D but
    for the totals cs[m-1] of each block. Each old block is prefix-summed
    in place and dropped once read, so a step holds about one layer.

    Word bound (`_past_word_bound`): every entry is a count, so with M the
    largest entry of the old blocks and D and N = n_terms, a step forms
    only values below 4(N+4)M in absolute value. An old block has m <= N
    rows and D has at most N+1 columns, so cs and t lie in [0, (N+1)M];
    each partial sum of a new diagonal entry (D + t + cs) is at most
    (2N+3)M, c is at most (2N+2)M, and a row l+1 >= 1 is a difference in
    [-(N+1)M, (N+1)M] plus c, so it lies in [-(N+1)M, (3N+3)M].
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    d = n_terms - 1
    blocks = [np.ones((m + 1, d - m), dtype=np.int64) for m in range(d + 1)]
    D = np.triu(np.ones((d + 2, d + 2), dtype=np.int64))
    blocks[0][0, :1] = D[:, 0] = 0   # a = -1 holds no states
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        if _past_word_bound([D, *blocks], n_terms):
            D = D.astype(object)
            _to_exact(blocks)
        t = np.cumsum(np.triu(D, 1)[::-1], axis=0)[::-1]
        D = D[:d + 2, :d + 2] + t[1:, 1:]
        old, blocks = blocks, [np.concatenate(([0], t[0, 2:d + 1]))[None, :]]
        for m in range(1, d + 2):
            cs, old[m - 1] = old[m - 1], None
            np.cumsum(cs, axis=0, out=cs)
            D[m, m:] += cs[-1]
            if m < d:
                c = cs[-1, 1:-1] + t[m, m + 1:d + 1]
                g = np.empty((m + 1, d - m), dtype=D.dtype)
                g[0] = c
                np.subtract(cs[:, :-2], cs[:, 1:-1], out=g[1:])
                g[1:] += c
                blocks.append(g)
        terms.append(int(D[0, 1]))
    return CoefficientSeries(terms, first_index=1)


def enumerate_000_polynomial(n_terms: int) -> CoefficientSeries:
    """Counts of 000-avoiding ascent sequences with the set of once-seen
    values compressed to its cardinality K, O(n^4) states.

    Canonically S = {0..K-1}, so letter i repeats iff i < K. Erasures shift a
    and l exactly as in the exponential recursion. Slices extend to a = -2
    because erasing value 0 at a = 0 is legal; a = -2 admits no letters.

    f(n,a,l,K) = sum_{i=0}^{min(l,K-1)} f(n-1, a-1, i-1, K-1)
               + sum_{i=l+1}^{K-1}      f(n-1, a,   i-1, K-1)
               + sum_{i=K}^{min(l,a+1)} f(n-1, a,   i,   K+1)
               + sum_{i=max(K,l+1)}^{a+1} f(n-1, a+1, i, K+1)

    Slice a, at index a+2 of a list, is an (a+4) x (a+3) array [l+2, K]
    whose row 0 is zero. A step prefix-sums each old slice down its rows in
    place; with P, Q and U those of slices a-1, a and a+1 (row r sums the
    entries with l+2 <= r, and a gather at K = 0 reads column -1 only from
    the zero row), an entry with l < K reads
        P[l+1, K-1] - Q[l+1, K-1] + (Q[K, K-1] + U[a+3, K+1] - U[K+1, K+1])
    and one with l >= K reads
        Q[l+2, K+1] - U[l+2, K+1] + (P[K, K-1] + U[a+3, K+1] - Q[K+1, K+1]),
    each a gather plus a per-column constant, so a new slice takes two
    gathers over its two triangles. Old slice a-1 is dropped once new slice
    a is built, so a step holds about one layer.

    Word bound (`_past_word_bound`): every entry is a count, so with M the
    largest entry of the old layer and N = n_terms, a step forms only
    values below 4(N+4)M in absolute value. A slice has a+3 <= N+2 nonzero
    rows, so P, Q and U lie in [0, (N+2)M]; each partial sum of c_up or
    c_lo lies in [-(N+2)M, 2(N+2)M], and so does the constant itself, and
    a gathered difference in [-(N+2)M, (N+2)M] plus its constant lies in
    [-3(N+2)M, 3(N+2)M].
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    layer = [np.ones((a + 4, a + 3), dtype=np.int64) for a in range(-2, n_terms)]
    for g in layer:
        g[0] = 0
    # (K, l+1) for l < K, column by column, and (l+1, K) for l >= K, row by
    # row, so that each slice's entries are a prefix
    up_k, up_r = np.tril_indices(n_terms + 1)
    lo_r, lo_k = np.tril_indices(n_terms + 1, -1)
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        if _past_word_bound(layer, n_terms):
            _to_exact(layer)
        old, layer = layer, [np.zeros((2, 1), dtype=layer[0].dtype)]
        # each old slice is summed as it is first read: summing all up front
        # holds the same data but measured a higher peak RSS
        for g in old[:2]:
            np.cumsum(g, axis=0, out=g)
        for a in range(-1, d + 1):
            w = a + 3
            P, Q, U = old[a + 1:a + 4]
            np.cumsum(U, axis=0, out=U)
            i = np.arange(w)
            top = U[w, 1:]                      # U[a+3, K+1], K = 0..a+2
            c_up = Q[i, i - 1] + top - U[i + 1, i + 1]
            c_lo = P[i[:-1], i[:-1] - 1] + top[:-1] - Q[i[1:], i[1:]]
            g = np.zeros((w + 1, w), dtype=P.dtype)
            k = w * (w + 1) // 2
            r, K = up_r[:k], up_k[:k]
            g[r + 1, K] = P[r, K - 1] - Q[r, K - 1] + c_up[K]
            k = w * (w - 1) // 2
            r, K = lo_r[:k], lo_k[:k]
            g[r + 1, K] = Q[r + 1, K + 1] - U[r + 1, K + 1] + c_lo[K]
            layer.append(g)
            old[a + 1] = None
        terms.append(int(layer[2][2, 1]))
    return CoefficientSeries(terms, first_index=1)


# ---------------------------------------------------------------------------
# set-state engines: packed keys and transition rules
# ---------------------------------------------------------------------------

# Largest a or l a key can hold: a+2 and l+2 each take one byte.
_FIELD_TOP = 0xFF - 2
# Bits of S a uint64 sweep key can hold above the two byte fields.
_S_BITS = 48


def _pack(S, a, l):
    """Key of state (a, l, S): S << 16 | (a+2) << 8 | (l+2).

    The rules below read and write this layout directly; a and l range over
    -2.._FIELD_TOP, and a value outside that range raises instead of
    spilling into the neighbouring field. S is unbounded in a Python-int
    key and takes _S_BITS bits in a uint64 sweep key.
    """
    if not (-2 <= a <= _FIELD_TOP and -2 <= l <= _FIELD_TOP):
        raise ValueError(f"state a={a}, l={l} does not fit the key fields "
                         f"(-2..{_FIELD_TOP})")
    return S << 16 | (a + 2) << 8 | (l + 2)


def _unpack(key):
    """(a, l, S) of a packed key."""
    return (key >> 8 & 0xFF) - 2, (key & 0xFF) - 2, key >> 16


def _top_bit(x):
    """Index of the top set bit of x > 0: a Python int's `bit_length() - 1`,
    and for a uint64 array with entries below 2**53, which float64 holds
    exactly, each entry's frexp exponent e (2**(e-1) <= x < 2**e) less 1."""
    return (x.bit_length() - 1 if isinstance(x, int)
            else np.frexp(x.astype(np.float64))[1].astype(np.uint64) - 1)


# A rule maps a key and a next letter i (0 <= i <= a+1) to the child's key.
# Only `_top_bit` branches, on the key type, and intermediates stay >= 0, so
# one rule serves a Python-int key and a uint64 key array alike. up = [l < i]
# adds an ascent (256 in the a field): l+2 <= i+1 iff i + 257 - (l+2) >= 256.

def _rule_000(key, i):
    """Child of a 000 state. A letter i in S is now proscribed: erase it,
    closing the gap in S, and a, l shift down."""
    S = key >> 16
    bit = S >> i & 1
    up = (i + 257 - (key & 0xFF)) >> 8
    low = S - (S >> i << i)
    return ((S >> (i + 1) << (i + 1 - bit) | (1 - bit) << i | low) << 16
            | (key & 0xFF00) + (up << 8) - (bit << 8) | i + 2 - bit)


def _rule_110(key, i):
    """Child of a 110 state. A letter i in S: everything below i dies, i
    itself renumbers to 0 and stays in the set, and the last letter is 0."""
    S = key >> 16
    bit = S >> i & 1
    cut = bit * i
    up = (i + 257 - (key & 0xFF)) >> 8
    return ((S >> cut | (1 - bit) << i) << 16
            | (key & 0xFF00) + (up << 8) - (cut << 8) | i + 2 - cut)


def _rule_120(key, i):
    """Child of a 120 state. Everything below s dies, s the largest value of
    S below i, or 0 if there is none; the shifted letter i-s joins the
    shifted set, so S always retains 0."""
    S = key >> 16
    s = _top_bit(S - (S >> i << i) | 1)
    up = (i + 257 - (key & 0xFF)) >> 8
    return ((S >> s | 1 << (i - s)) << 16
            | (key & 0xFF00) + (up << 8) - (s << 8) | i + 2 - s)


_RULES = {"000": _rule_000, "110": _rule_110, "120": _rule_120}


# A sweep rule maps a uint64 key array, a letter i and the letters left after
# the child to (child keys, keep mask) pairs; a keep mask of None keeps every
# child. Each rule of _RULES gives one child (`_single`); marked 110 gives two.

def _single(rule):
    """A rule of _RULES as a sweep rule: its one child, always kept."""
    return lambda keys, i, left: ((rule(keys, i), None),)


def _rule_110_marked(keys, i, left):
    """Children of marked 110 states (see `enumerate_110`) for the letter i.
    The key's S field holds 0 and the pending marks M. `_rule_110`'s child
    is the floor child at i = 0, the cut at i = min M and the marked child
    at an unmarked i; at i >= 1 the second child erases i. A child is kept
    where it exists and its marks fit the letters left."""
    S = keys >> 16
    marks = np.bitwise_count(S) - 1
    child = _rule_110(keys, i)
    if i == 0:
        return ((child, marks <= left),)
    new = (S >> i & 1) == 0
    least = S & ((2 << i) - 1) == 1 | 1 << i
    up = (i + 257 - (keys & 0xFF)) >> 8
    erased = ((S & ((1 << i) - 1) | S >> (i + 1) << i) << 16
              | (keys & 0xFF00) + (up << 8) - 256 | i + 1)
    return ((child, new & (marks < left) | least & (marks <= left + 1)),
            (erased, new & (marks <= left)))


def _canonical_110(keys):
    """The l map of marked 110 keys: l moves down to the largest value at or
    below it that has children, 0, min M or an unmarked value (proved in
    `enumerate_110`). Idempotent, and a, M are kept."""
    S = keys >> 16
    marks = S ^ 1
    live = ~S | 1 | marks & (~marks + 1)
    l = _top_bit(live & (np.uint64(2) << (keys & 0xFF) - 2) - 1)
    return keys >> 8 << 8 | l + 2


def _no_marks(keys):
    """The marked 110 states that count: no pending mark."""
    return keys >> 16 == 1


def _canonical_120(keys):
    """Sorted-gap canonical form of 120 sweep keys: the gaps between
    consecutive elements of T = S ∩ [l, a+1] are put in ascending order
    upwards from l. The map keeps a, l, |T| and max T, and it is idempotent.

    Proved from `_rule_120`: in every reachable state with l > 0,
    S ∩ [0, l) = {0}. A child's S is the parent's S above s, shifted down
    by s, plus its l = i - s, and no value of S lies strictly between s, the
    largest value of S under i, and i. So a state is (l, g_1..g_k, h), the
    gaps g_j = t_j - t_{j-1} of T = {l = t_0 < ... < t_k} and the top gap
    h = a + 1 - t_k, and a = t_k + h - 1. Its children, by the letter i:

    * i <= l: l' = i and the gaps (l - i, g_1, ..., g_k), h' = h;
    * t_{j-1} < i <= t_j: l' = i - t_{j-1} and the gaps
      (t_j - i, g_{j+1}, ..., g_k), h' = h + 1;
    * t_k < i <= a + 1: l' = i - t_k, no gaps, h' = h + 1 - l';

    where a gap of 0 is dropped. Conjecture: the count f(n, l, G, h) is
    symmetric in the gaps G. The induction on n that swaps adjacent gaps
    g_m = x and g_{m+1} = y does not close. Letters at or below t_{m-1}
    give children that carry both gaps, equal by induction, and letters
    above t_{m+1} give the same children before and after the swap. But the
    letters in (t_{m-1}, t_{m+1}] give
        sum_{l'=1}^{x} f(n-1, l', {x-l', y} ∪ R, h+1)
            + sum_{l'=1}^{y} f(n-1, l', {y-l'} ∪ R, h+1),
    R = {g_{m+2}, ...}, against the same sum with x and y traded: the
    children of one letter have equal a but different gap multisets, and no
    term-by-term pairing matches them. The conjecture is checked, not
    proved: the canonical sweep gives the raw sweep's series through n=50,
    and `verify` checks it again at desk scale (canonical-equals-raw-120).

    Vectorised over a uint64 key array: each pass reads the lowest gap of
    every row off T and shifts it out, sorts them along each row, and their
    prefix sums set the bits of the new T. A row out of gaps reads a gap of
    0; zero gaps sort first and set bit l again, which changes nothing.
    """
    l = (keys & 0xFF) - 2
    t = keys >> 16 >> l  # T with l at bit 0
    cols = []
    while True:
        above = t >> 1
        if not above.any():
            break
        # the lowest set bit of `above` is 2**(g-1), exact as a float64, and
        # frexp gives its exponent g; 0 gives 0
        g = np.frexp((above & (~above + 1)).astype(np.float64))[1].astype(np.uint8)
        cols.append(g)
        t >>= g
    if not cols:
        return keys  # T = {l} in every row
    pos = np.cumsum(np.sort(np.stack(cols, axis=1), axis=1), axis=1, dtype=np.uint8)
    t = np.ones_like(keys)
    for p in pos.T:
        t |= np.uint64(1) << p
    return (t << l | 1) << 16 | keys & 0xFFFF


def _reduce(keys, weights):
    """The distinct keys of the key chunks, in order, and the summed weight
    of each from the weight chunks. Each list is emptied once joined, and a
    single chunk is taken as it is, so no chunk outlives the join."""
    k = np.concatenate(keys) if len(keys) > 1 else keys[0]
    keys.clear()
    w = np.concatenate(weights) if len(weights) > 1 else weights[0]
    weights.clear()
    # each temporary is dropped once used, which lowers the peak memory
    order = np.argsort(k, kind="stable")
    k = k[order]
    w = w[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    k = k[starts]
    return k, np.add.reduceat(w, starts)


def _sweep_step(rule, keys, weights, left, canonical=None):
    """The next layer of a sweep: distinct child keys with summed weights.

    Parents come sorted by a (stably), and so do the children returned.
    Parents with a letter i (a+2 > i) are then a suffix, and each letter is
    one call of the sweep rule over that suffix, with `left` the letters left
    after the child. The kept children of its (children, keep mask) pairs
    are reduced on their own to a run of distinct keys. The runs are then
    reduced once into the new layer, so no summed key is sorted again.
    Measured on the step to length n, the raw children are 12-16x the parent
    layer, and the runs sum to 2.1-3.5x it: 110 n=23, 287300 for 136032
    parents; 000 n=21, 89776 for 34782; canonical 120 n=39, 47320 for 13417.
    A canonical map, if given, is applied once to the new layer, which is
    then reduced again. Mapping each run instead measured less memory at
    depth (201 MB against over 400 MB at 120 n=70) but took longer at n=33
    (45 ms against 33 ms).

    A child that would set bit _S_BITS or above of S raises ValueError
    before it joins the layer. A child adds at most the bit of its l (at
    most i) to S, and the l byte stays exact even where the S field of the
    uint64 key has overflowed.
    """
    a2 = (keys >> 8 & 0xFF).astype(np.uint8)
    run_k, run_w = [], []
    for i in range(int(a2[-1])):
        lo = int(np.searchsorted(a2, i, side="right"))
        kids, kid_w = [], []
        for k, keep in rule(keys[lo:], i, left):
            kids.append(k if keep is None else k[keep])
            kid_w.append(weights[lo:] if keep is None else weights[lo:][keep])
        if not any(len(k) for k in kids):
            continue
        k, w = _reduce(kids, kid_w)
        if i >= _S_BITS and int((k & 0xFF).max()) >= _S_BITS + 2:
            raise ValueError(f"a child state sets bit {_S_BITS} or above of S, "
                             f"beyond the {_S_BITS}-bit sweep key")
        run_k.append(k)
        run_w.append(w)
    keys, weights = _reduce(run_k, run_w)
    if canonical is not None:
        keys, weights = _reduce([canonical(keys)], [weights])
    order = np.argsort((keys >> 8 & 0xFF).astype(np.uint8), kind="stable")
    return keys[order], weights[order]


def _forward_series(rule, n_terms, canonical=None, accept=None, fanout=1):
    """One forward sweep over layers of packed prefix states, from the state
    of the prefix 0, (a, l, S) = (0, 0, {0}); the mass of the states at
    depth d that `accept` passes (all of them if it is None) is the count
    at length d+1. A layer is a uint64 key array and an array of weights,
    stepped by `_sweep_step` with the sweep rule and the optional canonical
    key map. With no accepting test, every state has a+2 children, so the
    last count is the sum of w * (a+2) over the layer before it, and the
    largest layer is never built.

    Word bound (`_WORD_LIMIT`): weights start as int64. A letter gives a
    state at most `fanout` children, so before each step the layer's mass
    times its largest a+2 times fanout bounds the next layer's mass, and so
    every child weight and every partial sum of a reduce, all non-negative.
    The first time that bound reaches _WORD_LIMIT the weights become exact
    Python ints in an object array, and stay so for the rest of the run."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    _pack(0, n_terms - 1, n_terms)  # deepest states: a <= n-1, l <= a+1 <= n
    keys = np.array([_pack(1, 0, 0)], dtype=np.uint64)
    weights = np.array([1], dtype=np.int64)
    terms = [1]
    mass = 1
    for step in range(2, n_terms + 1):
        # keys are sorted by a, so the last has the largest a+2
        if (weights.dtype != object
                and mass * (int(keys[-1]) >> 8 & 0xFF) * fanout >= _WORD_LIMIT):
            weights = weights.astype(object)
        if step == n_terms and accept is None:
            terms.append(int(np.dot(weights, (keys >> 8 & 0xFF).astype(weights.dtype))))
        else:
            keys, weights = _sweep_step(rule, keys, weights, n_terms - step, canonical)
            mass = int(weights.sum())
            terms.append(mass if accept is None else int(weights[accept(keys)].sum()))
    return CoefficientSeries(terms, first_index=1)


# ---------------------------------------------------------------------------
# memoized recursion with an introspectable cache
# ---------------------------------------------------------------------------

@dataclass
class MemoCache:
    """Value cache for a set-state recursion, keyed by (n, a, l, S-bitmask).

    Values never change once inserted; base-case keys (n = 0, value 1) are
    not stored. Every lookup of a non-base state, a root or a parent's
    child, counts once: as a hit if its value is cached by then, else as a
    miss that computes and stores it.
    """

    variant: str
    data: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def __len__(self):
        return len(self.data)


def suffix_count(variant, n, a, l, S, cache=None):
    """f(n, a, l, S) for the given recursion variant, memoized.

    S may be an iterable of values or a bitmask int. Children come from the
    variant's rule, the one the forward sweep runs, one letter at a time;
    the cache holds them unpacked, keyed by (n, a, l, S) with S a Python
    int. A state whose descendants would not fit the key fields raises
    ValueError, and so does n < 0. The recursion is n frames deep, and the
    key-field guard below (a + n - 1 <= _FIELD_TOP = 253, a >= -2) keeps
    n <= 256, far below the interpreter's recursion limit.
    """
    if n < 0:
        raise ValueError(f"suffix length must be >= 0, got {n}")
    if not isinstance(S, int):
        S = bitset(S)
    if cache is None:
        cache = MemoCache(variant)
    elif cache.variant != variant:
        raise ValueError(f"cache belongs to variant {cache.variant!r}")
    rule = _RULES[variant]
    data = cache.data
    if n == 0:
        return 1
    _pack(S, a + n - 1, l)  # the states recursed into reach a, l <= a + n - 1

    def count(key, packed):
        if key in data:
            cache.hits += 1
            return data[key]
        kn = key[0]
        if kn == 1:
            total = packed >> 8 & 0xFF  # a+2 children, each a base case
        else:
            total = 0
            for i in range(packed >> 8 & 0xFF):
                nk = rule(packed, i)
                total += count((kn - 1, *_unpack(nk)), nk)
        cache.misses += 1
        data[key] = total
        return total

    return count((n, a, l, S), _pack(S, a, l))


def enumerate_with_cache(variant, n_terms):
    """Series of avoider counts computed through the memoized recursion,
    returning the populated cache for repetition analysis."""
    cache = MemoCache(variant)
    values = [suffix_count(variant, n - 1, 0, 0, 1, cache=cache)
              for n in range(1, n_terms + 1)]
    return CoefficientSeries(values, first_index=1), cache


def enumerate_000_exponential(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """000-avoider counts via the bit-set recursion (states O(n^3 2^n))."""
    check_cap("enumerate_000_exponential", n_terms,
              CAPS["enumerate_000_exponential"], allow_over_cap)
    return _forward_series(_single(_RULES["000"]), n_terms)


def enumerate_110(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """110-avoider counts from the marked-repeat sweep over states (a, l, M).

    In 110 a repeat of a value v kills every value below v, and only a
    repeat does, so the raw sweep (`enumerate_110_exponential`) keeps every
    value seen in S. Here each new value is guessed, when it is written, to
    repeat later or never; every sequence fixes all the guesses, so each is
    counted on exactly one path.

    * A value guessed never to repeat is erased at once, as `_rule_000`
      erases a proscribed value: it can no longer be the 11 of an
      occurrence, and as a 0 it is already written.
    * A value guessed to repeat is marked; M holds the pending marks, within
      [1, a+1]. A repeat of v kills every value below v, so marks repeat in
      increasing order and only min M may repeat. The floor 0 repeats freely
      and kills nothing.

    The key's S field holds {0} ∪ M, so the state of the prefix 0 and the
    layout are the raw sweep's. With up = [l < i], letter i gives:

    * i = 0: (a, 0, M);
    * i = min M, a cut: (a + up - i, 0, M without i, shifted down by i);
    * i in M above min M: no child, for min M would die unrepeated;
    * any other i, a new value: erased, (a + up - 1, i - 1, M with the marks
      above i shifted down one), or marked, (a + up, i, M ∪ {i}).

    The first three and the marked child are `_rule_110`'s child, whose S is
    {0} ∪ M (`_rule_110_marked`). A state counts when M is empty
    (`_no_marks`). Cutting min M is a legal letter in every state, so a state
    can empty M in |M| letters and in no fewer: a child with more marks than
    letters left adds to no count up to n_terms, and the sweep drops it.

    The l map (`_canonical_110`): l enters a child only through up, and
    only 0, min M and the new values have children. So moving l down to the
    largest of those at or below it, which never passes a letter that has
    children, leaves every child and the count unchanged. Peak layers grow
    1.43-1.45x per term (145078 states at n = 32), against 1.68x for the
    raw sweep.
    """
    check_cap("enumerate_110", n_terms, CAPS["enumerate_110"], allow_over_cap)
    return _forward_series(_rule_110_marked, n_terms, _canonical_110, _no_marks, fanout=2)


def enumerate_110_exponential(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """110-avoider counts from the raw bit-set sweep, in which a repeat
    erases every smaller value: the independent cross-check of
    `enumerate_110`. Layers grow about 1.68x per term."""
    check_cap("enumerate_110_exponential", n_terms,
              CAPS["enumerate_110_exponential"], allow_over_cap)
    return _forward_series(_single(_RULES["110"]), n_terms)


def enumerate_120(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """120-avoider counts from the sweep over sorted-gap canonical states
    (`_canonical_120`; the map rests on a conjecture checked against
    `enumerate_120_exponential` through n=50). A state is l, the multiset
    of gaps of T and the top gap, which sum to a + 1 <= n, so a layer holds
    O(n^3 p(n)) states at most, p the partition function. Measured, layers
    grow 1.13x per term near n = 60 (224573 states at n = 59), against
    1.33x for the raw sweep."""
    check_cap("enumerate_120", n_terms, CAPS["enumerate_120"], allow_over_cap)
    return _forward_series(_single(_RULES["120"]), n_terms, _canonical_120)


def enumerate_120_exponential(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """120-avoider counts from the raw bit-set sweep, with no state merged
    beyond equal keys: the independent cross-check of `enumerate_120`.
    Layers grow about 1.33x per term (263965 states at n = 39)."""
    check_cap("enumerate_120_exponential", n_terms,
              CAPS["enumerate_120_exponential"], allow_over_cap)
    return _forward_series(_single(_RULES["120"]), n_terms)


# (pattern, algo) -> name of the engine in this module; 'none' counts all
# ascent sequences. Names are resolved at call time, so an engine rebound on
# the module (a profiling wrapper, say) serves every caller.
ENGINES = {
    ("none", "dp"): "enumerate_ascent",
    ("000", "dp"): "enumerate_000_polynomial",
    ("000", "dp-poly"): "enumerate_000_polynomial",
    ("000", "dp-exp"): "enumerate_000_exponential",
    ("100", "dp"): "enumerate_100",
    ("110", "dp"): "enumerate_110",
    ("110", "dp-exp"): "enumerate_110_exponential",
    ("120", "dp"): "enumerate_120",
    ("120", "dp-exp"): "enumerate_120_exponential",
}
# Term caps of the set-state engines, by engine name. One budget sets them:
# a run at its cap peaks at no more than 4 GB RSS, half of an 8 GB machine,
# as projected from runs 2-9 terms shorter (ru_maxrss on a 2-core VM: raw
# 000 and 110 grow x1.6 per term, raw 120 x1.27, marked 110 x1.37-1.40 from
# 347 MB at n=38 and 647 MB at n=40). Canonical 120 would reach about 89,
# but stays at 60 until its conjectured map (`_canonical_120`) is checked
# deeper than n=50.
CAPS = {
    "enumerate_000_exponential": 34,
    "enumerate_110": 45,
    "enumerate_110_exponential": 34,
    "enumerate_120": 60,
    "enumerate_120_exponential": 57,
}


def enumerate_avoiders(pattern, n_terms, algorithm="dp",
                       allow_over_cap=False) -> CoefficientSeries:
    """Counts from the ENGINES entry for (pattern, algorithm); a capped
    engine (`CAPS`) gets allow_over_cap."""
    name = ENGINES.get((pattern, algorithm))
    if name is None:
        raise ValueError(f"no {algorithm!r} enumerator for pattern {pattern!r}")
    kwargs = {"allow_over_cap": allow_over_cap} if name in CAPS else {}
    return globals()[name](n_terms, **kwargs)


# ---------------------------------------------------------------------------
# cache repetition analysis
# ---------------------------------------------------------------------------

def _cardinality_key(key):
    n, a, l, S = key
    return (n, a, l, S.bit_count())


@dataclass
class RepetitionReport:
    total_keys: int
    groups: dict                  # projected key -> Counter(value -> multiplicity)
    single_valued_fraction: float


def cache_repetition_report(cache: MemoCache,
                            group_by=_cardinality_key) -> RepetitionReport:
    """Group cached values by a key projection, (n, a, l, |S|) unless a
    callable on (n, a, l, S) keys is given, and measure how often a group
    holds a single distinct value: near 1 means the recursion likely
    depends only on the projected state."""
    if not cache.data:
        raise ValueError("cache is empty; run an enumeration through it first")
    groups = {}
    for key, value in cache.data.items():
        groups.setdefault(group_by(key), Counter())[value] += 1
    single = sum(1 for values in groups.values() if len(values) == 1)
    return RepetitionReport(total_keys=len(cache.data), groups=groups,
                            single_valued_fraction=single / len(groups))
