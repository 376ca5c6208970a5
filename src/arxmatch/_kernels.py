"""Numeric kernels of the matcher, in numpy and Python ints.

The hot inner loops (edit distance, token-vector dot products, Gini
split search, forest evaluation) live here, one function per operation.
The edit distance is the Myers/Hyyrö bit-parallel recurrence over
Python ints (G. Myers, J. ACM 46(3), 1999; H. Hyyrö, 2003), one
fixed-size step per character of the second string; it and the dot
product use integer arithmetic throughout. The forest walk advances all
trees one level per numpy step. The Gini and forest kernels fix their
floating-point operation order (the forest sums leaf values tree by tree
in root order), so every result is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two int64 codepoint arrays.

    Bit-parallel over the DP column (G. Myers, J. ACM 46(3), 1999, in
    H. Hyyrö's 2003 formulation). Bit i of a Python int stands for row
    i + 1 of the DP column; peq[c] has bit i set where a[i] == c. pv/mv
    hold the +1/-1 vertical deltas of the current column, ph/mh the
    horizontal deltas into it. Each character of b advances the column
    by a fixed handful of int operations; every ~ is masked to len(a)
    bits, and the score follows the last row through the high bit.
    """
    n, m = a.size, b.size
    if n == 0:
        return int(m)
    if m == 0:
        return int(n)
    peq: dict[int, int] = {}
    bit = 1
    for c in a.tolist():
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, score = mask, 0, n
    for c in b.tolist():
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # the top row D[0][j] = j adds a +1 horizontal delta on each step
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def sorted_dot(a: dict[str, int], b: dict[str, int]) -> int:
    """Dot product of two ``{token: count}`` vectors over the smaller one.
    The name dates from sorted id arrays; perfbench traces it by name."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    return sum(n * get(tok, 0) for tok, n in a.items())


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


def forest_eval(feat: np.ndarray, thr: np.ndarray, left: np.ndarray,
                right: np.ndarray, prob: np.ndarray, roots: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """Mean leaf probability over all trees for each row of x.

    Trees are packed in flat arrays; feat[i] < 0 marks a leaf holding
    prob[i]. All trees are walked at once on a (n_trees, n_rows) node
    index matrix, one level per step, so a call costs about max_depth
    numpy steps whatever the tree and row counts. The leaf values are
    then summed tree by tree in root order (cumsum is sequential), the
    same float additions as a per-tree loop, so the result is
    bit-identical to one.
    """
    cols = np.arange(x.shape[0])
    idx = np.repeat(roots[:, None], x.shape[0], axis=1)
    while True:
        f = feat[idx]
        inner = f >= 0
        if not inner.any():
            break
        go_left = x[cols, np.where(inner, f, 0)] <= thr[idx]
        nxt = np.where(go_left, left[idx], right[idx])
        idx = np.where(inner, nxt, idx)
    return np.cumsum(prob[idx], axis=0)[-1] / roots.size


def str_to_codes(s: str) -> np.ndarray:
    """Codepoint array used by the Levenshtein kernels."""
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
