"""Dynamic-programming enumerators for ascent sequences and the four
pattern-avoiding families 000, 100, 110, 120, all with exact big integers.

Two engine styles:

* Layered sweeps (ascent, 100, polynomial 000): per-length layers of state
  arrays with running prefix sums, memory bounded to two layers. Used where
  hundreds of terms are wanted.
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

import numpy as np

from .errors import CapExceededError
from .series import CoefficientSeries

CAP_000_EXPONENTIAL = 30
CAP_110 = 36
CAP_120 = 60


def ascent_indicator(l: int, i: int) -> int:
    """1 if the next letter i rises above the previous letter l."""
    return 1 if l < i else 0


def renumber_remove(S: int, i: int) -> int:
    """Close the gap at value i: every set bit above i shifts down by one.

    Callers remove i from S first; bit i must be clear.
    """
    low = S & ((1 << i) - 1)
    return ((S >> (i + 1)) << i) | low


def renumber_floor(S: int, i: int) -> int:
    """Drop every value below i and subtract i from the rest."""
    return S >> i


def largest_below(S: int, i: int) -> int:
    """Largest element of S smaller than i, or 0 if there is none."""
    below = S & ((1 << i) - 1)
    return below.bit_length() - 1 if below else 0


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
    the count at length n is f(n-1, 0, 0). Layered with per-slice prefix
    sums, so a layer costs O(states) additions.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # layer[a][l] for l = 0..a+1
    layer = [[1] * (a + 2) for a in range(n_terms)]
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        # cs[a][r] = sum_{l'=0..r} layer[a][l']
        cs = []
        for a in range(min(d + 2, len(layer))):
            run = 0
            acc = []
            for v in layer[a]:
                run += v
                acc.append(run)
            cs.append(acc)
        new_layer = []
        for a in range(d + 1):
            cs_a = cs[a]
            cs_up = cs[a + 1] if a + 1 < len(cs) else None
            row = []
            for l in range(a + 2):
                v = cs_a[min(l, a + 1)]
                if cs_up is not None and l + 1 <= a + 1:
                    v += cs_up[a + 1] - cs_up[l]
                row.append(v)
            new_layer.append(row)
        layer = new_layer
        terms.append(layer[0][0])
    return CoefficientSeries(terms, first_index=1)


def enumerate_100(n_terms: int) -> CoefficientSeries:
    """Counts of 100-avoiding ascent sequences, O(n^4) states.

    State (a, l, m) where m is the largest value seen. Letter i < m erases a
    value: child (a+[l<i]-1, i-1, m-1); letter i >= m: child (a+[l<i], i, i).
    Grouping the i-sum by child slice leaves four contiguous ranges handled
    with cumulative sums:

    f(n,a,l,m) = sum_{i=0}^{min(l,m-1)} f(n-1, a-1, i-1, m-1)
               + sum_{i=l+1}^{m-1}      f(n-1, a,   i-1, m-1)
               + sum_{i=max(m,l+1)}^{a+1} f(n-1, a+1, i, i)
               + [l=m] f(n-1, a, m, m)
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    # slice a: array[l+1, m] for -1 <= l <= m <= a+1 (upper triangle used)
    layer = []
    for a in range(n_terms):
        g = np.zeros((a + 3, a + 2), dtype=object)
        for m in range(a + 2):
            g[0:m + 2, m] = 1
        layer.append(g)
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        cps = [np.cumsum(layer[a], axis=0) if a < len(layer) else None
               for a in range(d + 2)]
        sss = []
        for a in range(d + 2):
            if a < len(layer):
                diag = layer[a].diagonal(offset=-1)  # f(., a, i, i), i = 0..a+1
                ss = np.zeros(len(diag) + 1, dtype=object)
                ss[:-1] = np.cumsum(diag[::-1])[::-1]
                sss.append(ss)
            else:
                sss.append(None)
        new_layer = []
        for a in range(d + 1):
            cols = a + 2
            g = np.zeros((a + 3, cols), dtype=object)
            cp_am1 = cps[a - 1] if a >= 1 else None
            cp_a = cps[a]
            ss_up = sss[a + 1]
            if cp_am1 is not None:
                for m in range(1, cols):
                    lo = min(m, cp_am1.shape[0])
                    if m - 1 < cp_am1.shape[1]:
                        g[1:lo + 1, m] += cp_am1[0:lo, m - 1]
                        g[m + 1, m] += cp_am1[m - 1, m - 1]
            if cp_a is not None:
                for m in range(1, cols):
                    top = cp_a[m - 1, m - 1]
                    g[0, m] += top
                    g[1:m + 1, m] += top - cp_a[0:m, m - 1]
            if ss_up is not None:
                tail = ss_up[a + 2] if a + 2 < len(ss_up) else 0
                for m in range(cols):
                    g[0:m + 1, m] += ss_up[m] - tail
                    g[m + 1, m] += (ss_up[m + 1] if m + 1 < len(ss_up) else 0) - tail
            prev = layer[a] if a < len(layer) else None
            if prev is not None:
                for m in range(cols):
                    g[m + 1, m] += prev[m + 1, m]
            new_layer.append(g)
        layer = new_layer
        terms.append(int(layer[0][1, 0]))
    return CoefficientSeries(terms, first_index=1)


def _poly_slice_shape(a):
    n = max(a + 3, 1)
    return (n, n)


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
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    layer = {a: np.ones(_poly_slice_shape(a), dtype=object)
             for a in range(-2, n_terms)}
    terms = [1]
    for step in range(1, n_terms):
        d = n_terms - 1 - step
        cps = {a: np.cumsum(layer[a], axis=0)
               for a in range(-1, d + 2) if a in layer}
        new_layer = {-2: np.zeros((1, 1), dtype=object)}
        g1 = np.zeros((2, 2), dtype=object)
        g1[0, 0] = layer[0][1, 1]    # (-1,-1,K=0): letter 0 is new, chi=1
        g1[0, 1] = layer[-1][0, 0]   # (-1,-1,K=1): letter 0 repeats, chi=1
        g1[1, 0] = layer[-1][1, 1]   # (-1, 0,K=0): letter 0 is new, chi=0
        g1[1, 1] = layer[-2][0, 0]   # (-1, 0,K=1): letter 0 repeats, chi=0
        new_layer[-1] = g1
        for a in range(0, d + 1):
            rows = cols = a + 3
            g = np.zeros((rows, cols), dtype=object)
            cp_am1 = cps[a - 1]
            cp_a = cps[a]
            cp_ap1 = cps.get(a + 1)
            for K in range(cols):
                if K >= 1:
                    c = K - 1
                    if c < cp_am1.shape[1]:
                        kk = min(K - 1, cp_am1.shape[0] - 1)
                        head = min(kk + 1, rows - 1)
                        g[1:head + 1, K] += cp_am1[0:head, c]
                        if head + 1 < rows:
                            g[head + 1:, K] += cp_am1[kk, c]
                    top = cp_a[K - 1, c]
                    g[0, K] += top
                    if K >= 2:
                        g[1:K, K] += top - cp_a[0:K - 1, c]
                if K + 1 < cols:
                    g[K + 1:rows, K] += cp_a[K + 1:rows, K + 1] - cp_a[K, K + 1]
                    if cp_ap1 is not None:
                        tt = cp_ap1[a + 2, K + 1]
                        g[0:K + 1, K] += tt - cp_ap1[K, K + 1]
                        hi = min(a + 2, rows)
                        if K + 1 < hi:
                            g[K + 1:hi, K] += tt - cp_ap1[K + 1:hi, K + 1]
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
