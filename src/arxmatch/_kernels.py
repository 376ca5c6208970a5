"""Numeric kernels of the matcher, in numpy.

The hot inner loops (edit-distance DP, token-vector dot products, Gini
split search, forest evaluation) live here, one function per operation.
The edit distance and dot product use integer arithmetic throughout; the
Gini and forest kernels fix their floating-point operation order, so
every result is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two int64 codepoint arrays, row-vectorized DP."""
    n, m = a.size, b.size
    if n == 0:
        return int(m)
    if m == 0:
        return int(n)
    prev = np.arange(m + 1, dtype=np.int64)
    offs = np.arange(m + 1, dtype=np.int64)
    for i in range(n):
        sub = prev[:-1] + (b != a[i])
        best = np.minimum(sub, prev[1:] + 1)
        # fold insertions in via prefix min of (cost - column index)
        e = np.minimum.accumulate(np.concatenate(([np.int64(i + 1)], best - offs[1:])))
        prev = e + offs
    return int(prev[m])


def sorted_dot(ids_a: np.ndarray, cnt_a: np.ndarray,
               ids_b: np.ndarray, cnt_b: np.ndarray) -> int:
    """Dot product of two sparse count vectors keyed by sorted int64 ids."""
    if ids_a.size == 0 or ids_b.size == 0:
        return 0
    common, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True,
                                    return_indices=True)
    if common.size == 0:
        return 0
    return int(np.dot(cnt_a[ia], cnt_b[ib]))


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
    prob[i]. Accumulates tree by tree, in root order.
    """
    rows = np.arange(x.shape[0])
    acc = np.zeros(x.shape[0], dtype=np.float64)
    for root in roots:
        idx = np.full(x.shape[0], root, dtype=np.int64)
        while True:
            f = feat[idx]
            inner = f >= 0
            if not inner.any():
                break
            fx = np.where(inner, f, 0)
            go_left = x[rows, fx] <= thr[idx]
            nxt = np.where(go_left, left[idx], right[idx])
            idx = np.where(inner, nxt, idx)
        acc += prob[idx]
    return acc / roots.size


def str_to_codes(s: str) -> np.ndarray:
    """Codepoint array used by the Levenshtein kernels."""
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
