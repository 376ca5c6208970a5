"""Numeric kernels of the matcher, in numpy.

The hot inner loops (edit distance, token-vector dot products, Gini
split search, forest evaluation) live here, one function per operation.
The edit distance scores a whole chunk of (pattern, text) pairs in one
call: the Myers/Hyyrö bit-parallel recurrence (G. Myers, J. ACM 46(3),
1999; H. Hyyrö, 2003) runs on numpy uint64 words with one lane per pair,
so every numpy operation advances all the pairs of the chunk by one text
position. A pattern longer than 64 symbols spans several words, and the
horizontal delta out of each word's top row is carried into the next
word, as in Myers' blocked form. A lane's distance is read off at the
end as a popcount of its vertical deltas (``np.bitwise_count``). The
strings come in as symbols of the run's own alphabet (``encode``), so a
pattern's match masks take one row per symbol of the run. The sparse dot
products of one vector with all of the candidates' take one scatter
into a dense lookup, one gather and one cumulative sum. Both kernels use
integer arithmetic throughout.
The forest is evaluated as a table lookup: a row's bin among the
model's sorted thresholds, per feature, picks each tree's leaf from a
precomputed grid (the threshold indexing of QuickScorer, C. Lucchese et
al., SIGIR 2015, here as one dense grid per tree), the leaf values added
into one total per row tree by tree, in O(rows) memory. The Gini and
forest kernels fix their floating-point operation order, so every result
is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


class _Alphabet(dict):
    """A str.translate table that numbers each code point the first time
    it is seen: the symbols of a run's own alphabet."""

    def __missing__(self, code: int) -> int:
        symbol = self[code] = len(self)
        return symbol


def encode(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The strings as one array of symbols, and their cumulative end offsets.

    A symbol numbers a distinct character of the strings in order of first
    appearance, so the alphabet is the run's own: one str.translate maps
    the joined strings onto it, a byte per symbol up to 256 symbols and
    four beyond. One code point is one symbol (combining marks and non-BMP
    letters included), so string i is symbols[ends[i-1]:ends[i]].
    """
    alphabet = _Alphabet()
    text = "".join(strings).translate(alphabet)
    if len(alphabet) <= 256:
        symbols = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    else:
        symbols = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return symbols, np.cumsum([len(s) for s in strings], dtype=np.int64)


def levenshtein(a: np.ndarray, b: np.ndarray, a_ends: np.ndarray,
                b_ends: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Edit distance of each of k texts to its pattern, as k int64.

    a holds the patterns concatenated and a_ends their cumulative end
    offsets, so pattern p is a[a_ends[p-1]:a_ends[p]]; b and b_ends hold
    the k texts the same way, and text i is scored against pattern
    pattern[i]. Symbols are small non-negative ints, as encode makes them.

    Bit-parallel over the DP column (G. Myers, J. ACM 46(3), 1999, in
    H. Hyyrö's 2003 formulation), one lane per (pattern, text) pair: bit t
    of word r of a lane stands for row 64 r + t + 1 of its DP column, over
    its pattern. pv/mv hold the +1/-1 vertical deltas of the current
    column, ph/mh the horizontal deltas into it. A pattern of more than 64
    symbols spans several words; the lanes are grouped by word count and
    run word by word, each word's horizontal delta out of its top row
    (hp/hm) carried into the next word's bottom row, as in Myers' blocked
    form. Bits above a pattern's last row only ever move upwards, so they
    never touch the rows below and are masked off at the end.

    peq[pattern base + symbol] has a word's bits set where the pattern
    holds that symbol; it is built once per pattern, and each text
    position costs one gather from it over all lanes. Lanes are sorted by
    text length, longest first, so the lanes still running at a position
    are a prefix. At the end a lane's last row is D[n][m] = m plus its
    vertical deltas, m + popcount(pv) - popcount(mv); an empty pattern
    scores m.
    """
    n = np.diff(a_ends, prepend=0)
    m = np.diff(b_ends, prepend=0)
    out = m.copy()
    words = (n[pattern] + 63) // 64
    n_symbols = int(max(a.max(initial=0), b.max(initial=0))) + 1
    a_start = a_ends - n
    for w in np.unique(words[words > 0]).tolist():
        lanes = np.flatnonzero(words == w)
        out[lanes] = _block_distances(a, b, a_start, n, b_ends[lanes] - m[lanes],
                                      m[lanes], pattern[lanes], w, n_symbols)
    return out


def _block_distances(a: np.ndarray, b: np.ndarray, a_start: np.ndarray,
                     n: np.ndarray, start: np.ndarray, m: np.ndarray,
                     pattern: np.ndarray, w: int, n_symbols: int) -> np.ndarray:
    """Distances of the lanes whose patterns span w words each."""
    pats, local = np.unique(pattern, return_inverse=True)
    peq = _peq(a, a_start[pats], n[pats], w, n_symbols)

    order = np.argsort(-m, kind="stable")
    m, start, base = m[order], start[order], local[order] * n_symbols
    k = m.size
    live = k - np.searchsorted(m[::-1], np.arange(m[0]), side="right")
    pv = np.full((w, k), 2**64 - 1, dtype=np.uint64)
    mv = np.zeros((w, k), dtype=np.uint64)
    idx = np.empty(k, dtype=np.intp)
    for j, alive in enumerate(live.tolist()):
        ix = idx[:alive]
        np.add(start[:alive], j, out=ix)
        np.add(base[:alive], b.take(ix), out=ix)
        eqs = peq.take(ix, axis=0)
        for r in range(w):
            eq, p, q = eqs[:, r], pv[r, :alive], mv[r, :alive]
            xv = eq | q
            if r:
                eq |= hm
            xh = eq & p
            xh += p
            xh ^= p
            xh |= eq
            ph = xh | p
            np.invert(ph, out=ph)
            ph |= q
            mh = np.bitwise_and(p, xh, out=xh)
            if r < w - 1:
                hp_out, hm_out = ph >> 63, mh >> 63
            ph <<= 1
            mh <<= 1
            if r:
                ph |= hp
                mh |= hm
            else:
                ph |= 1  # the top row: D[0][j] = j
            np.bitwise_or(xv, ph, out=p)
            np.invert(p, out=p)
            p |= mh
            np.bitwise_and(ph, xv, out=q)
            if r < w - 1:
                hp, hm = hp_out, hm_out
    rows_in = np.full((w, k), 2**64 - 1, dtype=np.uint64)
    rows_in[-1] >>= (64 * w - n[pattern[order]]).astype(np.uint64)
    pv &= rows_in
    mv &= rows_in
    dist = np.empty(k, dtype=np.int64)
    dist[order] = (m + np.bitwise_count(pv).sum(axis=0, dtype=np.int64)
                   - np.bitwise_count(mv).sum(axis=0, dtype=np.int64))
    return dist


def _peq(a: np.ndarray, start: np.ndarray, n: np.ndarray, w: int,
         n_symbols: int) -> np.ndarray:
    """The (len(n) * n_symbols, w) uint64 match masks of the patterns at
    start with lengths n: row q * n_symbols + s has bit t of word r set
    where pattern q holds symbol s at position 64 r + t. The patterns run
    longest first, so those reaching a position are a prefix, and their
    rows at it are distinct."""
    order = np.argsort(-n, kind="stable")
    n, start, base = n[order], start[order], order * n_symbols
    peq = np.zeros((n.size * n_symbols, w), dtype=np.uint64)
    live = n.size - np.searchsorted(n[::-1], np.arange(n[0]), side="right")
    for i, alive in enumerate(live.tolist()):
        rows = base[:alive] + a.take(start[:alive] + i)
        peq[rows, i // 64] |= 1 << i % 64
    return peq


def sorted_dot(lookup: np.ndarray, a: np.ndarray, b: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """Dot products of one sparse int64 vector with each of k others.

    a is a (2, m) array of unique keys over their counts; the k others
    come the same way, concatenated along axis 1 in b, and ends holds
    their cumulative end offsets, so vector i is b[:, ends[i-1]:ends[i]].
    Returns the k dots as int64. (The name dates from a merge of sorted
    keys.)

    lookup is an all-zero int64 scratch array that every key indexes, a
    negative one from the end, so it is longer than twice the largest
    key magnitude. a's counts are written into it at a's keys, one
    gather at b's keys reads them (0 where a lacks the key), and lookup
    is zeroed again before the call returns. A cumulative sum of the
    products, read at the ends, then totals each segment: it may wrap
    around in int64, but its differences are exact modulo 2**64, so
    every dot below 2**63 comes out exact; callers keep each side's
    count total below 2**31, which bounds every dot below 2**62.
    """
    keys = a[0]
    try:
        lookup[keys] = a[1]
        products = lookup[b[0]]
    finally:
        lookup[keys] = 0
    products *= b[1]
    totals = np.zeros(b.shape[1] + 1, dtype=np.int64)
    np.cumsum(products, out=totals[1:])
    dots = totals[ends]
    dots[1:] -= totals[ends[:-1]]
    return dots


def best_split(values: np.ndarray, pos_w: np.ndarray, neg_w: np.ndarray,
               feature_order: np.ndarray) -> tuple[int, float, float]:
    """Weighted Gini split search over the given features.

    values: (n, d) float64; pos_w/neg_w: per-row integer label weights as
    float64. Returns (feature, threshold, cost); feature is -1 when no
    feature admits a split. Candidate thresholds are midpoints of sorted
    unique values; rows with value <= threshold go left. Ties in cost keep
    the earlier feature in feature_order, then the smaller threshold.
    """
    total_pos = float(np.sum(pos_w))
    total_neg = float(np.sum(neg_w))
    n_total = total_pos + total_neg
    best_f = -1
    best_t = 0.0
    best_cost = np.inf
    for f in feature_order:
        col = values[:, f]
        order = np.argsort(col, kind="mergesort")
        v = col[order]
        cp = np.cumsum(pos_w[order])
        cn = np.cumsum(neg_w[order])
        boundary = np.nonzero(v[:-1] < v[1:])[0]
        if boundary.size == 0:
            continue
        thresholds = (v[boundary] + v[boundary + 1]) / 2.0
        pl = cp[boundary]
        nl_ = cn[boundary]
        n_left = pl + nl_
        n_right = n_total - n_left
        gl = 1.0 - (pl / n_left) ** 2 - (nl_ / n_left) ** 2
        pr = total_pos - pl
        nr = total_neg - nl_
        gr = 1.0 - (pr / n_right) ** 2 - (nr / n_right) ** 2
        cost = (n_left * gl + n_right * gr) / n_total
        k = int(np.argmin(cost))
        if cost[k] < best_cost:
            best_cost = float(cost[k])
            best_f = int(f)
            best_t = float(thresholds[k])
    return best_f, best_t, best_cost


def forest_eval(edges_0: np.ndarray, edges_1: np.ndarray, edges_2: np.ndarray,
                cells_0: np.ndarray, cells_1: np.ndarray, cells_2: np.ndarray,
                x: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Mean leaf probability over all trees for each row of x.

    Each tree is a piecewise-constant function on the grid of its own
    thresholds, stored in the threshold-bin table that forest._build_table
    makes once per model. edges_f holds every distinct threshold of
    feature f in the model, sorted; a row's global bin on f is the count
    of those thresholds below x[:, f] (searchsorted, side left). cells_f
    is an (n_trees, edges_f.size + 1) table from a global bin to each
    tree's offset for its local bin on f; cells_0 also holds each tree's
    base offset. Their sum indexes leaf, the flat table of every tree's
    grid of leaf values. So a call is three searchsorted, then per tree
    three gathers and one leaf gather added into a (rows,) total: O(rows)
    memory, not O(trees x rows), whatever the tree depth.

    A node sends x left when x <= thr, which holds exactly when thr's
    rank among the tree's thresholds is at least x's local bin, so every
    row lands in the grid cell of the leaf a walk from the root reaches.
    A NaN sorts after every edge and so lands in the last bin, right of
    every threshold, where a walk sends it too (NaN <= thr is false).
    The leaf values are summed tree by tree in root order, starting from
    0.0 (0.0 + v is v), the same float additions as a per-tree walk, so
    the result is bit-identical to one.
    """
    b0 = np.searchsorted(edges_0, x[:, 0])
    b1 = np.searchsorted(edges_1, x[:, 1])
    b2 = np.searchsorted(edges_2, x[:, 2])
    total = np.zeros(x.shape[0])
    for c0, c1, c2 in zip(cells_0, cells_1, cells_2):
        total += leaf[c0[b0] + c1[b1] + c2[b2]]
    return total / cells_0.shape[0]
