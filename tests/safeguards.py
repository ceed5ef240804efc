"""Independent cross-check enumerators for the avoider counts.

These machines track raw, uncompressed knowledge about the prefix (sets of
actual letter values, no renumbering or erasure tricks), so they share no
state-compression logic with the production enumerators. Exponential in
memory; meant for lengths in the teens to validate the clever recursions
beyond the exhaustive-oracle range.
"""


def _forward(counts_len, root, step):
    """Generic forward sweep: `step(state) -> iterable of next states`.

    The last term is the weighted number of children of the second-to-last
    layer, so the last layer itself is never built.
    """
    layer = {root: 1}
    counts = [0] * (counts_len + 1)
    counts[1] = 1
    for k in range(2, counts_len):
        new = {}
        for st, w in layer.items():
            for nxt in step(st):
                new[nxt] = new.get(nxt, 0) + w
        layer = new
        counts[k] = sum(layer.values())
    if counts_len > 1:
        counts[counts_len] = sum(w * sum(1 for _ in step(st)) for st, w in layer.items())
    return counts[1:]


def direct_count_100(n_terms):
    """State (asc, last, maxval, banned): a letter is banned once it has
    appeared after any strictly larger value (its next occurrence would
    complete big-small-small)."""
    def step(st):
        asc, last, mx, banned = st
        for x in range(asc + 2):
            if (banned >> x) & 1:
                continue
            nb = banned | (1 << x) if x < mx else banned
            yield (asc + (1 if last < x else 0), x, max(mx, x), nb)

    return _forward(n_terms, (0, 0, 0, 0), step)


def direct_count_110(n_terms):
    """State (asc, last, maxrep, has_rep, once): letters below the largest
    twice-seen value are banned (they would complete equal-equal-smaller)."""
    def step(st):
        asc, last, rep, has_rep, once = st
        for x in range(asc + 2):
            if has_rep and x < rep:
                continue
            if has_rep and x == rep:
                yield (asc + (1 if last < x else 0), x, rep, True, once)
                continue
            if (once >> x) & 1:
                yield (asc + (1 if last < x else 0), x, x, True, once & ~(1 << x))
            else:
                yield (asc + (1 if last < x else 0), x, rep, has_rep, once | (1 << x))

    return _forward(n_terms, (0, 0, 0, False, 1), step)


def direct_count_000(n_terms):
    """State (asc, last, once, twice): letters already seen twice are banned."""
    def step(st):
        asc, last, once, twice = st
        for x in range(asc + 2):
            if (twice >> x) & 1:
                continue
            bit = 1 << x
            if once & bit:
                yield (asc + (1 if last < x else 0), x, once & ~bit, twice | bit)
            else:
                yield (asc + (1 if last < x else 0), x, once | bit, twice)

    return _forward(n_terms, (0, 0, 1, 0), step)


def direct_count_120(n_terms):
    """State (asc, last, seen, mstar): mstar is the largest value with a
    strictly larger value somewhere after it; letters below mstar are banned
    (they would complete rise-then-drop-below)."""
    def step(st):
        asc, last, seen, mstar = st
        for x in range(asc + 2):
            if x < mstar:
                continue
            below = seen & ((1 << x) - 1)
            nm = max(mstar, below.bit_length() - 1) if below else mstar
            yield (asc + (1 if last < x else 0), x, seen | (1 << x), nm)

    return _forward(n_terms, (0, 0, 1, 0), step)
