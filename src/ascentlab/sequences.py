"""Ground-truth combinatorics: ascent sequences, pattern containment, and
brute-force counting oracles.

The oracles count the avoiders of a length-3 pattern by extending avoiding
prefixes one letter at a time, as a DFS would, but sweep forward one length
at a time and merge the prefixes that reach the same DFS node, keeping how
many did. A node holds every argument of the DFS step, so the merge is
exact; and many prefixes share a node (at n=12, the 322291 avoiding
prefixes of 100 fall into 9086 nodes).

Sequences are plain tuples of non-negative integers. A pattern is a word whose
distinct letters form 0..r after deduplication (000, 100, 110, 120, 201, ...).
An occurrence of a pattern in a sequence is a subsequence with the same
relative order, equalities included.
"""

from __future__ import annotations

import operator
from itertools import combinations

import numpy as np

from .errors import check_cap
from .series import CoefficientSeries

ORACLE_CAP = 15


def ascent_count(seq) -> int:
    """Number of adjacent strictly-rising pairs."""
    return sum(map(operator.lt, seq, seq[1:]))


def is_ascent_sequence(seq) -> bool:
    """First letter 0, each later letter at most one more than the ascents before it."""
    if not seq:
        return True
    if seq[0] != 0:
        return False
    asc = 0
    for prev, cur in zip(seq, seq[1:]):
        if cur < 0 or cur > asc + 1:
            return False
        if prev < cur:
            asc += 1
    return True


def is_weak_ascent_sequence(seq) -> bool:
    """Maximum letter bounded by the total ascent count."""
    if not seq:
        return True
    return max(seq) <= ascent_count(seq)


def parse_pattern(text) -> tuple:
    """Pattern from digits or letters; its letters must form 0..r."""
    if isinstance(text, str):
        if not text.isdigit():
            raise ValueError(f"pattern {text!r} is not a string of digits")
        pattern = tuple(int(ch) for ch in text)
    else:
        pattern = tuple(int(v) for v in text)
    if any(v < 0 for v in pattern):
        raise ValueError("pattern letters must be non-negative")
    distinct = sorted(set(pattern))
    if distinct and distinct != list(range(len(distinct))):
        raise ValueError(f"pattern letters must form 0..{len(distinct) - 1}: {pattern}")
    return pattern


def _cmp(a, b):
    return (a > b) - (a < b)


def _relations(pattern):
    """(a, b, _cmp(pattern[a], pattern[b])) for index pairs a < b, in order."""
    return [(a, b, _cmp(pattern[a], pattern[b]))
            for a, b in combinations(range(len(pattern)), 2)]


def contains_pattern(seq, pattern) -> bool:
    """True iff some subsequence of seq is order-isomorphic to pattern
    (strict inequalities and equalities both preserved). Scans every
    k-subsequence, k = len(pattern); meant for short sequences."""
    relations = _relations(pattern)
    for sub in combinations(seq, len(pattern)):
        for a, b, rel in relations:
            if _cmp(sub[a], sub[b]) != rel:
                break
        else:
            return True
    return False


def contains_pattern_rows(rows, pattern):
    """`contains_pattern` for each row of a 2-D integer array at once: a
    row contains the pattern iff at some index tuple, in increasing order,
    its letters have every pairwise relation of the pattern (`_relations`).
    The relation of each column pair is taken once, one byte per row. Reads
    every index tuple; meant for short rows."""
    relations = _relations(pattern)
    rel = {(i, j): (rows[:, i] > rows[:, j]).astype(np.int8) - (rows[:, i] < rows[:, j])
           for i, j in combinations(range(rows.shape[1]), 2)}
    found = np.zeros(len(rows), dtype=bool)
    for idx in combinations(range(rows.shape[1]), len(pattern)):
        hit = np.ones(len(rows), dtype=bool)
        for a, b, r in relations:
            hit &= rel[idx[a], idx[b]] == r
        found |= hit
    return found


def weak_reverse_complement(seq) -> tuple:
    """Reverse the sequence and flip each letter within [min, max].

    An involution that preserves ascent count, min and max, maps weak ascent
    sequences to weak ascent sequences, and swaps 120-containment with
    201-containment.
    """
    if not seq:
        raise ValueError("weak_reverse_complement requires a non-empty sequence")
    hi, lo = max(seq), min(seq)
    return tuple([hi + lo - v for v in reversed(seq)])


def ascent_sequences(length):
    """Yield every ascent sequence of the given length, in lexicographic
    order.

    A sequence is an ascent sequence exactly when every prefix is a weak
    ascent sequence. Forward, by induction: append a letter x <= asc+1 to a
    prefix whose maximum is at most its ascent count asc. If x rises past
    the last letter, the count becomes asc+1 >= x; otherwise x is at most
    the last letter, so at most asc. Backward: the one-letter prefix x is
    weak only for x = 0, and a weak prefix ending in x has x <= its ascent
    count <= asc+1, the ascent rule. `_weak_children` with no letter left
    (remaining 0) keeps exactly the weak children among the letters
    0..asc+1, so its layers grown from the prefix 0 are the ascent
    sequences.
    """
    if length == 0:
        yield ()
        return
    layer = (((0,), 0, 0),)  # (prefix, ascents, maximum)
    for _ in range(length - 1):
        layer = _weak_children(layer, 0)
    for seq, _, _ in layer:
        yield seq


def weak_ascent_sequences(length):
    """Yield every weak ascent sequence of the given length, in
    lexicographic order.

    Letters are not capped by the running ascent count; a prefix survives as
    long as future ascents (at most one per remaining letter) can still lift
    the ascent total up to the running maximum. The prefixes of each length
    are built from the layer of the length before (`_weak_children`), each
    parent's children in letter order, so every layer is in lexicographic
    order. At the last letter no ascent remains, so the survivors are the
    weak ascent sequences themselves. The layers are chained generators, so
    each prefix is made and yielded once and no layer is held.
    """
    if length == 0:
        yield ()
        return
    # (prefix, ascents, maximum); any first letter up to length-1 can be lifted
    layer = (((first,), 0, first) for first in range(length))
    for remaining in range(length - 2, -1, -1):
        layer = _weak_children(layer, remaining)
    for seq, _, _ in layer:
        yield seq


def _weak_children(layer, remaining):
    """The next layer of `weak_ascent_sequences`: each prefix of the layer
    extended by every letter x that keeps it completable with `remaining`
    letters left after x, as (prefix, ascents, maximum)."""
    return ((seq + (x,), nasc, nhi)
            for seq, asc, hi in layer
            for x in range(asc + 2 + remaining)
            for nasc, nhi in ((asc + (seq[-1] < x), hi if hi > x else x),)
            if nhi - nasc <= remaining)


class _BlockedLetters(dict):
    """`self[seen, x]`: the bitset of letters z that complete the 3-letter
    pattern with a new pair (u, x), u in `seen` -- the letters that appending
    x to a prefix with letter set `seen` blocks for good.

    z is blocked iff some u in `seen` makes (u, x, z) an occurrence, read off
    the pattern's three `_relations`, so they stay the one definition of the
    pattern. An entry is built from bit masks: `side[r]` holds the
    letters v below `width` with _cmp(v, x) == r, the candidates u are
    `seen & side[r01]`, and z must lie above the least of them, among them,
    or below the greatest (by r02) and in `side[-r12]`. Entries depend only
    on (seen, x) and hold no counts; they are filled on first use. Letters
    must lie below `width`; a letter at or above it raises ValueError.
    """

    def __init__(self, pattern, width):
        super().__init__()
        self.relations = [r for _, _, r in _relations(pattern)]
        self.width = width

    def __missing__(self, key):
        seen, x = key
        if x >= self.width:
            raise ValueError(f"letter {x} outside the table's width {self.width}")
        r01, r02, r12 = self.relations
        full = (1 << self.width) - 1
        side = {-1: (1 << x) - 1, 0: 1 << x, 1: full & -(1 << (x + 1))}
        us = seen & side[r01]
        if not us:
            blocked = 0
        elif r02 < 0:  # some u < z: z above the least u
            blocked = full & -(1 << (us & -us).bit_length())
        elif r02 == 0:
            blocked = us
        else:  # some u > z: z below the greatest u
            blocked = (1 << (us.bit_length() - 1)) - 1
        blocked &= side[-r12]
        self[key] = blocked
        return blocked


def brute_force_avoiders(pattern, n_terms, weak=False,
                         allow_over_cap=False) -> CoefficientSeries:
    """Brute-force counts of pattern-avoiding (weak) ascent sequences of
    lengths 1..n_terms.

    Every avoider is reached by prefix extension, and a prefix is cut only
    when it contains the pattern or (weak) can no longer be completed to a
    weak ascent sequence of length <= n_terms; containment is inherited by
    extensions, so no avoider is lost. Only length-3 patterns are counted,
    by a forward sweep (`_count_avoiders_3`, `_count_weak_avoiders_3`) that
    blocks letters as they are appended, never re-tests a prefix and merges
    prefixes with equal nodes; any other length raises ValueError. The
    length-n_terms avoiders are counted by a popcount per node of the layer
    before, not built. Shares no code with `dp`.

    The sweep holds one layer of nodes where a DFS held O(n) memory. At
    ORACLE_CAP the plain runs of 000, 100, 110 and 120 take 0.03-0.5 s, but
    weak 201 at n=15 takes about 40 s and 510 MB (2-core VM, one process).
    Runs past ORACLE_CAP terms raise CapExceededError unless
    allow_over_cap, which warns instead.
    """
    pattern = parse_pattern(pattern)
    if len(pattern) != 3:
        raise ValueError(f"the oracle counts length-3 patterns only, got {pattern}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    check_cap("oracle run", n_terms, ORACLE_CAP, allow_over_cap)
    counts = (_count_weak_avoiders_3(pattern, n_terms) if weak
              else _count_avoiders_3(pattern, n_terms))
    return CoefficientSeries(counts[1:], first_index=1)


def _count_avoiders_3(pattern, n_terms):
    """Forward sweep over the pattern-avoiding ascent sequences of length
    < n_terms, grouped by node; the avoiders of length n_terms are counted,
    not built.

    A node is what decides an avoiding prefix's future: its ascent count
    `asc`, last letter, letter set `seen` and `blocked`, the letters that
    would complete the pattern if appended. A layer maps each node to the
    number of prefixes of one length that reach it. A child letter x is
    allowed when x <= asc+1 and x is not blocked, giving the node
    (asc + (last < x), x, seen | 1<<x, blocked | blocks[seen, x]): a function
    of the parent node and x alone, so equal nodes have equal subtrees and
    the weights count each avoiding prefix exactly once. Avoidance is
    inherited by prefixes, so each avoider of length n_terms is an avoider
    of length n_terms-1 plus one allowed letter, and distinct letters give
    distinct sequences: the last count is the popcount of the allowed
    letters 0..asc+1, times the weight, summed over the layer of length
    n_terms-1.
    """
    blocks = _BlockedLetters(pattern, n_terms + 1)
    counts = [0] * (n_terms + 1)
    counts[1] = 1
    layer = {(0, 0, 1, 0): 1}  # the prefix 0
    for depth in range(2, n_terms):
        new = {}
        for (asc, last, seen, blocked), w in layer.items():
            for x in range(asc + 2):
                if not blocked >> x & 1:
                    node = (asc + (last < x), x, seen | 1 << x, blocked | blocks[seen, x])
                    new[node] = new.get(node, 0) + w
        layer = new
        counts[depth] = sum(layer.values())
    if n_terms > 1:
        counts[n_terms] = sum(w * ((1 << (asc + 2)) - 1 & ~blocked).bit_count()
                              for (asc, _, _, blocked), w in layer.items())
    return counts


def _count_weak_avoiders_3(pattern, n_terms):
    """One forward sweep over the pattern-avoiding prefixes of weak ascent
    sequences of length < n_terms, grouped by node as in
    `_count_avoiders_3`, with its blocked-letter pruning; the avoiders of
    length n_terms are counted, not built.

    A node adds `hi`, the prefix's maximum. A prefix of length d is a weak
    ascent sequence, and counts for length d, when hi <= asc. It is extended
    while the letters left up to n_terms (one ascent each at most) can still
    lift asc to hi; every prefix of a weak avoider of length <= n_terms
    passes that test, so the one sweep holds what a separate sweep per
    length would hold. The child node is again a function of the parent node
    and the letter, so merging equal nodes loses nothing.

    At length n_terms-1 that test leaves hi <= asc+1, and a last letter x
    completes a weak ascent sequence iff x <= asc+1 and, when hi = asc+1,
    x > last (the ascent that lifts asc to hi). The popcount of those
    letters that are not blocked, times the weight, counts the length-n_terms
    avoiders below a node, by the inheritance argument of `_count_avoiders_3`.
    """
    blocks = _BlockedLetters(pattern, n_terms + 1)
    counts = [0] * (n_terms + 1)
    counts[1] = 1
    # the one-letter prefixes; only 0 is itself a weak ascent sequence
    layer = {(0, first, first, 1 << first, 0): 1 for first in range(n_terms)}
    for depth in range(2, n_terms):
        remaining = n_terms - depth
        new = {}
        for (asc, last, hi, seen, blocked), w in layer.items():
            for x in range(asc + 2 + remaining):
                nasc = asc + (last < x)
                nhi = hi if hi > x else x
                if nhi - nasc > remaining or blocked >> x & 1:
                    continue
                node = (nasc, x, nhi, seen | 1 << x, blocked | blocks[seen, x])
                new[node] = new.get(node, 0) + w
        layer = new
        counts[depth] = sum(w for (asc, _, hi, _, _), w in layer.items() if hi <= asc)
    if n_terms > 1:
        total = 0
        for (asc, last, hi, _, blocked), w in layer.items():
            allowed = (1 << (asc + 2)) - 1
            if hi > asc:
                allowed &= -1 << (last + 1)
            total += w * (allowed & ~blocked).bit_count()
        counts[n_terms] = total
    return counts
