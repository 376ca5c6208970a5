"""Numeric kernels of the matcher, in numpy and Python ints.

The hot inner loops (edit distance, token-vector dot products, Gini
split search, forest evaluation) live here, one function per operation.
The edit distance scores one string against all of its candidates at
once: the Myers/Hyyrö bit-parallel recurrence (G. Myers, J. ACM 46(3),
1999; H. Hyyrö, 2003) runs on Python ints that hold one candidate per
lane, each lane topped by a zero guard bit that stops carries and shifts
from crossing into the next (H. Hyyrö, K. Fredriksson and G. Navarro,
ACM JEA 10, 2005). A lane's distance is read off at the end as a
popcount of its vertical deltas, and lanes are packed into words of at
most WORD_BITS bits, so the cost stays linear in the number of
candidates. The sparse dot products of one vector with all of the
candidates' take one scatter into a dense lookup, one gather and one
cumulative sum. Both kernels use integer arithmetic throughout.
The forest is evaluated as a table lookup: a row's bin among the
model's sorted thresholds, per feature, picks each tree's leaf from a
precomputed grid (the threshold indexing of QuickScorer, C. Lucchese et
al., SIGIR 2015, here as one dense grid per tree). The Gini and forest
kernels fix their floating-point operation order (the forest sums leaf
values tree by tree in root order), so every result is reproducible bit
for bit.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

WORD_BITS = 4096  # lanes are packed into big ints of at most this width


def levenshtein(a: np.ndarray, b: np.ndarray, ends: np.ndarray) -> list[int]:
    """Edit distance from one int64 codepoint array to each of k others.

    The k arrays come concatenated in b; ends holds their cumulative end
    offsets, so array i is b[ends[i-1]:ends[i]]. Returns k distances.

    Bit-parallel over the DP column (G. Myers, J. ACM 46(3), 1999, in
    H. Hyyrö's 2003 formulation), one pattern per lane of a Python int
    (the multi-pattern packing of H. Hyyrö, K. Fredriksson and
    G. Navarro, ACM JEA 10, 2005). Array i is lane i: bit t of the lane
    stands for row t + 1 of its DP column, and one zero guard bit sits
    above it. peq[c] has every lane's bits set where that lane holds c.
    pv/mv hold the +1/-1 vertical deltas of the current column, ph/mh the
    horizontal deltas into it. Each character of a advances every lane
    by a fixed handful of int operations: the add's carry out of a lane
    stops in its guard bit, a left shift moves each lane's top bit into
    its guard bit, where & mask clears it, and | low injects the +1 of
    the top row D[0][j] = j at the bottom of every lane. At the end lane
    i's last row is D[0][n] = n plus its vertical deltas, that is
    n + popcount(pv_i) - popcount(mv_i). Lanes are packed greedily into
    words of at most WORD_BITS bits, so each int operation costs the same
    however many arrays there are.
    """
    lens = np.diff(ends, prepend=0)
    widths = (lens + 1).tolist()  # each lane and its guard bit
    out: list[int] = []
    lane, k = 0, lens.size
    while lane < k:
        first, width = lane, widths[lane]
        lane += 1
        while lane < k and width + widths[lane] <= WORD_BITS:
            width += widths[lane]
            lane += 1
        start = int(ends[first] - lens[first])
        out += _word_distances(a, b[start:ends[lane - 1]], lens[first:lane], width)
    return out


def _word_distances(a: np.ndarray, b: np.ndarray, lens: np.ndarray,
                    width: int) -> list[int]:
    """Distances from a to the lanes of one packed word."""
    lane_of = np.repeat(np.arange(lens.size), lens)
    pos = np.arange(b.size) + lane_of  # bit of each char: its offset + lane
    offsets = np.cumsum(lens + 1) - lens - 1
    codes, row = np.unique(b, return_inverse=True)
    # one row of bits per distinct code, then the mask and low rows
    bits = np.zeros((codes.size + 2, width), dtype=np.uint8)
    bits[row, pos] = 1
    bits[-2, pos] = 1
    bits[-1, offsets[lens > 0]] = 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = [int.from_bytes(r.tobytes(), "little") for r in packed]
    peq = dict(zip(codes.tolist(), words))
    mask, low = words[-2], words[-1]
    pv, mv = mask, 0
    for c in a.tolist():
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        ph = ((ph << 1) | low) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    n = a.size
    out = []
    for off, m in zip(offsets.tolist(), lens.tolist()):
        ones = (1 << m) - 1
        out.append(n + ((pv >> off) & ones).bit_count() - ((mv >> off) & ones).bit_count())
    return out


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
    grid of leaf values. So a call is three searchsorted, three gathers
    and one leaf gather, whatever the tree depth.

    A node sends x left when x <= thr, which holds exactly when thr's
    rank among the tree's thresholds is at least x's local bin, so every
    row lands in the grid cell of the leaf a walk from the root reaches.
    A NaN sorts after every edge and so lands in the last bin, right of
    every threshold, where a walk sends it too (NaN <= thr is false).
    The leaf values are then summed tree by tree in root order (cumsum is
    sequential), the same float additions as a per-tree walk, so the
    result is bit-identical to one.
    """
    idx = cells_0[:, np.searchsorted(edges_0, x[:, 0])]
    idx += cells_1[:, np.searchsorted(edges_1, x[:, 1])]
    idx += cells_2[:, np.searchsorted(edges_2, x[:, 2])]
    return np.cumsum(leaf[idx], axis=0)[-1] / cells_0.shape[0]


def str_to_codes(s: str) -> np.ndarray:
    """Codepoint array used by the Levenshtein kernels."""
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
