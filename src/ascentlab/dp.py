"""Dynamic-programming enumerators for ascent sequences and the four
pattern-avoiding families 000, 100, 110, 120, all with exact big integers.

Two engine styles:

* Layered sweeps (ascent, 100, polynomial 000): per-length layers of state
  slices, memory bounded to two layers plus their prefix sums. A step
  builds each new slice a from the prefix sums of old slices a-1, a and a+1
  in a few whole-slice operations (list comprehensions for ascent, numpy
  object-array gathers for 100 and 000), so no Python loop runs over a
  slice's entries or columns. Used where hundreds of terms are wanted.
* Set-state engines (exponential 000, 110, 120): states carry a bit-set of
  letter values. Each pattern has one transition rule over packed state keys
  (see `_pack`). A forward sweep of the rule produces the series; a memoized
  recursion through the same rule, keyed by (n, a, l, S), produces an
  introspectable value cache for repetition analysis.

`ENGINES` maps each (pattern, algorithm) pair to its engine; the CLI, the
dispatcher and the cross-checks all read it.

State conventions: `a` is the prior ascent count, `l` the previous letter;
value erasures can drive either to -1, which needs no special handling.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import CapExceededError
from .series import CoefficientSeries

CAP_000_EXPONENTIAL = 30
CAP_110 = 36
CAP_120 = 60


def bitset(values) -> int:
    s = 0
    for v in values:
        s |= 1 << v
    return s


# ---------------------------------------------------------------------------
# layered engines
# ---------------------------------------------------------------------------

def enumerate_ascent(n_terms: int) -> CoefficientSeries:
    """Counts of ascent sequences of lengths 1..n_terms.

    f(n, a, l) = sum_{i=0}^{a+1} f(n-1, a + [l<i], i), f(0,.,.) = 1;
    the count at length n is f(n-1, 0, 0). With c and u the prefix sums of
    rows a and a+1 of the previous layer, f(n, a, l) = c[l] + u[a+1] - u[l],
    so a step is one `accumulate` per row and one `zip` per new row.
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


def _padded_cumsum(g):
    """Row prefix sums of g under a zero row: out[r] = g[0] + ... + g[r-1].

    Row 0 is zero, so a gather at column index -1 from row 0 (the m - 1 or
    K - 1 of column 0 below, which wraps to the last column) reads 0.
    """
    out = np.zeros((g.shape[0] + 1, g.shape[1]), dtype=object)
    np.cumsum(g, axis=0, out=out[1:])
    return out


def enumerate_100(n_terms: int) -> CoefficientSeries:
    """Counts of 100-avoiding ascent sequences, O(n^4) states.

    State (a, l, m) where m is the largest value seen. Letter i < m erases a
    value: child (a+[l<i]-1, i-1, m-1); letter i >= m: child (a+[l<i], i, i).
    Grouping the i-sum by child slice leaves four contiguous ranges:

    f(n,a,l,m) = sum_{i=0}^{min(l,m-1)} f(n-1, a-1, i-1, m-1)
               + sum_{i=l+1}^{m-1}      f(n-1, a,   i-1, m-1)
               + sum_{i=max(m,l+1)}^{a+1} f(n-1, a+1, i, i)
               + [l=m] f(n-1, a, m, m)

    Slice a is an array [l+1, m]. With P and Q the zero-padded prefix sums
    (`_padded_cumsum`) of slices a-1 and a, and t[i] the sum of
    f(n-1, a+1, j, j) over j = i..a+1, an entry with l < m is
    P[l+1, m-1] - Q[l+1, m-1] + Q[m, m-1] + t[m], and one with l = m is
    P[m, m-1] + t[m+1] + f(n-1, a, m, m). A new slice is therefore one
    gather over the entries l < m plus one O(a) fix of the diagonal l = m.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # slice a: array[l+1, m] for -1 <= l <= m <= a+1; entries with l > m are 0
    layer = [np.triu(np.ones((a + 3, a + 2), dtype=object), -1)
             for a in range(n_terms)]
    # (m, l+1) for l < m, column by column, so that each slice's entries
    # are a prefix
    cols, rows = np.tril_indices(n_terms)
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        # pre[a+1] belongs to slice a; slice a = -1 holds no states
        pre = ([np.zeros((3, 1), dtype=object)]
               + [_padded_cumsum(g) for g in layer[:d + 1]])
        new_layer = []
        for a in range(d + 1):
            w = a + 2
            P, Q = pre[a], pre[a + 1]
            diag = layer[a + 1].diagonal(-1)    # f(n-1, a+1, i, i), i = 0..a+2
            t = np.zeros(w + 1, dtype=object)   # suffix sums of diag[:w]; t[w] = 0
            np.cumsum(diag[w - 1::-1], out=t[w - 1::-1])
            i = np.arange(w)
            c = Q[i, i - 1] + t[:w]
            k = w * (w + 1) // 2
            r, m = rows[:k], cols[:k]
            g = np.zeros((w + 1, w), dtype=object)
            g[r, m] = P[r, m - 1] - Q[r, m - 1] + c[m]
            g[i + 1, i] = P[i, i - 1] + t[1:] + layer[a].diagonal(-1)
            new_layer.append(g)
        layer = new_layer
        terms.append(int(layer[0][1, 0]))
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

    Slice a is an (a+3) x (a+3) array [l+1, K]. With P, Q and U the
    zero-padded prefix sums (`_padded_cumsum`) of slices a-1, a and a+1, an
    entry with l < K reads
        P[l+1, K-1] - Q[l+1, K-1] + (Q[K, K-1] + U[a+3, K+1] - U[K+1, K+1])
    and one with l >= K reads
        Q[l+2, K+1] - U[l+2, K+1] + (P[K, K-1] + U[a+3, K+1] - Q[K+1, K+1]),
    each a gather plus a per-column constant, so a new slice takes two
    gathers over its two triangles.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    layer = {a: np.ones((a + 3, a + 3), dtype=object) for a in range(-2, n_terms)}
    # (K, l+1) for l < K, column by column, and (l+1, K) for l >= K, row by
    # row, so that each slice's entries are a prefix
    up_k, up_r = np.tril_indices(n_terms + 1)
    lo_r, lo_k = np.tril_indices(n_terms + 1, -1)
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        pre = {a: _padded_cumsum(layer[a]) for a in range(-2, d + 2)}
        new_layer = {-2: np.zeros((1, 1), dtype=object)}
        for a in range(-1, d + 1):
            w = a + 3
            P, Q, U = pre[a - 1], pre[a], pre[a + 1]
            i = np.arange(w)
            top = U[w, 1:]                      # U[a+3, K+1], K = 0..a+2
            c_up = Q[i, i - 1] + top - U[i + 1, i + 1]
            c_lo = P[i[:-1], i[:-1] - 1] + top[:-1] - Q[i[1:], i[1:]]
            g = np.empty((w, w), dtype=object)
            k = w * (w + 1) // 2
            r, K = up_r[:k], up_k[:k]
            g[r, K] = P[r, K - 1] - Q[r, K - 1] + c_up[K]
            k = w * (w - 1) // 2
            r, K = lo_r[:k], lo_k[:k]
            g[r, K] = Q[r + 1, K + 1] - U[r + 1, K + 1] + c_lo[K]
            new_layer[a] = g
        layer = new_layer
        terms.append(int(layer[0][1, 1]))
    return CoefficientSeries(terms, first_index=1)


# ---------------------------------------------------------------------------
# set-state engines: packed keys and transition rules
# ---------------------------------------------------------------------------

# Largest a or l a key can hold: a+2 and l+2 each take one byte.
_FIELD_TOP = 0xFF - 2


def _pack(S, a, l):
    """Key of state (a, l, S): S << 16 | (a+2) << 8 | (l+2).

    The rules below read and write this layout directly; a and l range over
    -2.._FIELD_TOP, and a value outside that range raises instead of
    spilling into the neighbouring field.
    """
    if not (-2 <= a <= _FIELD_TOP and -2 <= l <= _FIELD_TOP):
        raise ValueError(f"state a={a}, l={l} does not fit the key fields "
                         f"(-2..{_FIELD_TOP})")
    return S << 16 | (a + 2) << 8 | (l + 2)


def _unpack(key):
    """(a, l, S) of a packed key."""
    return (key >> 8 & 0xFF) - 2, (key & 0xFF) - 2, key >> 16


# A rule maps a state's key to the keys of its children, one per next letter
# i = 0..a+1; a letter above l adds an ascent (256 in the a field).

def _rule_000(key):
    """Children of a 000 state. A letter i in S is now proscribed: erase it,
    closing the gap in S, and a, l shift down."""
    l = (key & 0xFF) - 2
    base = key & 0xFF00
    S = key >> 16
    out = []
    for i in range(base >> 8):
        if S >> i & 1:
            out.append((((((S >> (i + 1)) << i) | (S & ((1 << i) - 1))) << 16)
                        | (base + (256 if l < i else 0) - 256) | (i + 1)))
        else:
            out.append(((S | (1 << i)) << 16) | (base + (256 if l < i else 0)) | (i + 2))
    return out


def _rule_110(key):
    """Children of a 110 state. A letter i in S: everything below i dies, i
    itself renumbers to 0 and stays in the set, and the last letter is 0."""
    l = (key & 0xFF) - 2
    base = key & 0xFF00
    S = key >> 16
    out = []
    for i in range(base >> 8):
        if S >> i & 1:
            out.append(((S >> i) << 16) | (base + (256 if l < i else 0) - (i << 8)) | 2)
        else:
            out.append(((S | (1 << i)) << 16) | (base + (256 if l < i else 0)) | (i + 2))
    return out


def _rule_120(key):
    """Children of a 120 state. Everything below s, the largest seen value
    under i, dies; the shifted letter i-s joins the shifted set, so S always
    retains 0."""
    l = (key & 0xFF) - 2
    base = key & 0xFF00
    S = key >> 16
    out = []
    s = 0  # largest value of S below i, or 0
    for i in range(base >> 8):
        if i and S >> (i - 1) & 1:
            s = i - 1
        out.append((((S >> s) | (1 << (i - s))) << 16)
                   | (base + (256 if l < i else 0) - (s << 8)) | (i - s + 2))
    return out


_RULES = {"000": _rule_000, "110": _rule_110, "120": _rule_120}
_SET_CAPS = {"000": CAP_000_EXPONENTIAL, "110": CAP_110, "120": CAP_120}


def _check_cap(variant, n_terms, allow_over_cap):
    cap = _SET_CAPS[variant]
    if n_terms > cap:
        if not allow_over_cap:
            raise CapExceededError(
                f"{variant} set-state enumeration capped at {cap} terms "
                f"(requested {n_terms}); pass allow_over_cap=True to proceed")
        warnings.warn(f"{variant} run of {n_terms} terms exceeds cap {cap}")


def _forward_series(variant, n_terms):
    """One forward sweep over packed prefix states; the mass at depth d sums
    to the count at length d+1. Every variant runs through its rule; dict
    traffic dominates the cost."""
    _pack(0, n_terms - 1, n_terms)  # deepest states: a <= n-1, l <= a+1 <= n
    rule = _RULES[variant]
    layer = {_pack(1, 0, 0): 1}
    terms = [1]
    for _ in range(n_terms - 1):
        new = {}
        get = new.get
        for key, w in layer.items():
            for nk in rule(key):
                v = get(nk)
                new[nk] = w if v is None else v + w
        layer = new
        terms.append(sum(layer.values()))
    return CoefficientSeries(terms, first_index=1)


# ---------------------------------------------------------------------------
# memoized recursion with an introspectable cache
# ---------------------------------------------------------------------------

@dataclass
class MemoCache:
    """Value cache for a set-state recursion, keyed by (n, a, l, S-bitmask).

    Values never change once inserted; base-case keys (n = 0, value 1) are
    not stored.
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
    variant's rule, the one the forward sweep runs; the cache holds them
    unpacked, keyed by (n, a, l, S). A state whose descendants would not
    fit the key fields raises ValueError.
    """
    if not isinstance(S, int):
        S = bitset(S)
    if cache is None:
        cache = MemoCache(variant)
    elif cache.variant != variant:
        raise ValueError(f"cache belongs to variant {cache.variant!r}")
    rule = _RULES[variant]
    data = cache.data
    root = (n, a, l, S)
    if n == 0:
        return 1
    _pack(S, a + n - 1, l)  # the states recursed into reach a, l <= a + n - 1
    stack = [(root, _pack(S, a, l))]
    while stack:
        key, packed = stack[-1]
        if key in data:
            cache.hits += 1
            stack.pop()
            continue
        kn = key[0]
        kids = rule(packed)
        if kn == 1:
            total = len(kids)
        else:
            total = 0
            pending = False
            for nk in kids:
                ck = (kn - 1, *_unpack(nk))
                v = data.get(ck)
                if v is None:
                    pending = True
                    stack.append((ck, nk))
                elif not pending:
                    total += v
            if pending:
                continue
        cache.misses += 1
        data[key] = total
        stack.pop()
    return data[root]


def enumerate_with_cache(variant, n_terms, cache=None):
    """Series of avoider counts computed through the memoized recursion,
    returning the populated cache for repetition analysis."""
    if cache is None:
        cache = MemoCache(variant)
    values = [suffix_count(variant, n - 1, 0, 0, 1, cache=cache)
              for n in range(1, n_terms + 1)]
    return CoefficientSeries(values, first_index=1), cache


def enumerate_000_exponential(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """000-avoider counts via the bit-set recursion (states O(n^3 2^n))."""
    _check_cap("000", n_terms, allow_over_cap)
    return _forward_series("000", n_terms)


def enumerate_110(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """110-avoider counts; repeats erase every smaller value."""
    _check_cap("110", n_terms, allow_over_cap)
    return _forward_series("110", n_terms)


def enumerate_120(n_terms, allow_over_cap=False) -> CoefficientSeries:
    """120-avoider counts; states O(n^3 2^(n/2)) since ascents accrue half-rate."""
    _check_cap("120", n_terms, allow_over_cap)
    return _forward_series("120", n_terms)


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
    ("110", "dp-exp"): "enumerate_110",
    ("120", "dp"): "enumerate_120",
    ("120", "dp-exp"): "enumerate_120",
}
# The set-state engines, which stop at a term cap unless allowed past it.
_CAPPED = {"enumerate_000_exponential", "enumerate_110", "enumerate_120"}


def enumerate_avoiders(pattern, n_terms, algorithm="dp",
                       allow_over_cap=False) -> CoefficientSeries:
    """Counts from the ENGINES entry for (pattern, algorithm); the pattern
    may also be given as a sequence of letters."""
    key = pattern if isinstance(pattern, str) else "".join(map(str, pattern))
    name = ENGINES.get((key, algorithm))
    if name is None:
        raise ValueError(f"no {algorithm!r} enumerator for pattern {key!r}")
    engine = globals()[name]
    if name in _CAPPED:
        return engine(n_terms, allow_over_cap=allow_over_cap)
    return engine(n_terms)


# ---------------------------------------------------------------------------
# cache repetition analysis
# ---------------------------------------------------------------------------

def _proj_cardinality(key):
    return (key[0], key[1], key[2], key[3].bit_count())


def _proj_drop_l(key):
    return (key[0], key[1], key[3].bit_count())


def _proj_drop_a(key):
    return (key[0], key[2], key[3].bit_count())


def _proj_drop_set(key):
    return (key[0], key[1], key[2])


CANDIDATE_PROJECTIONS = {
    "n,a,l,|S|": _proj_cardinality,
    "n,a,|S|": _proj_drop_l,
    "n,l,|S|": _proj_drop_a,
    "n,a,l": _proj_drop_set,
}


@dataclass
class RepetitionReport:
    variant: str
    projection_name: str
    total_keys: int
    groups: dict                  # projected key -> Counter(value -> multiplicity)
    single_valued_fraction: float
    candidate_fractions: dict     # projection name -> fraction single-valued
    collision_candidates: list    # names with fraction >= threshold

    def multi_valued_groups(self):
        return {k: c for k, c in self.groups.items() if len(c) > 1}


def _group(data, proj):
    """Cached values listed by projected key, and the fraction of groups
    holding a single distinct value."""
    groups = {}
    for key, value in data.items():
        groups.setdefault(proj(key), []).append(value)
    single = sum(1 for values in groups.values() if len(set(values)) == 1)
    return groups, single / len(groups)


def cache_repetition_report(cache: MemoCache, group_by="n,a,l,|S|",
                            candidates=None, threshold=0.99) -> RepetitionReport:
    """Group cached values by a key projection and measure how often a group
    holds a single distinct value. Projections where at least `threshold` of
    groups are single-valued are collision candidates: the recursion likely
    depends only on the projected state."""
    if not cache.data:
        raise ValueError("cache is empty; run an enumeration through it first")
    if callable(group_by):
        proj, proj_name = group_by, getattr(group_by, "__name__", "custom")
    else:
        proj_name = group_by
        proj = CANDIDATE_PROJECTIONS[group_by]
    groups, fraction = _group(cache.data, proj)
    groups = {k: Counter(values) for k, values in groups.items()}
    cand = CANDIDATE_PROJECTIONS if candidates is None else candidates
    fractions = {name: _group(cache.data, p)[1] for name, p in cand.items()}
    return RepetitionReport(
        variant=cache.variant,
        projection_name=proj_name,
        total_keys=len(cache.data),
        groups=groups,
        single_valued_fraction=fraction,
        candidate_fractions=fractions,
        collision_candidates=sorted(n for n, f in fractions.items() if f >= threshold),
    )
