"""Random-forest classifier over similarity vectors, built from scratch.

A training set is two arrays as similarity scores them: x, an (n, 3)
float64 row of (title, authors, abstract) distances per pair, and labels,
an (n,) bool array. Training is fully deterministic: the rows are first
canonicalized into sorted unique (vector, label) rows with integer
multiplicities, so the model depends only on the empirical distribution
of the training pairs, never on their order or duplication. Each tree
draws its bootstrap sample and per-node feature subsets from an
independent PRNG stream keyed by (seed, tree index), which makes
tree-parallel training equivalent to the serial loop.

Splits minimize weighted Gini impurity over 2 of the 3 features per node
(the rounded-up square-root rule); candidate thresholds are midpoints of
consecutive distinct feature values; leaves hold the weighted positive
fraction. Prediction is the mean leaf probability across trees.

Each tree is a piecewise-constant function on the grid of its own
thresholds, so prediction is a table lookup (_kernels.forest_eval) into
a threshold-bin table that ForestModel.packed() builds once per model:
the model's sorted thresholds per feature, a per-tree map from a global
bin to the tree's local one, and every tree's grid of leaf values. The
table's size depends on the trees, not on max_depth alone, so it is
counted from the thresholds before anything is allocated; a model whose
table would exceed MAX_TABLE_ENTRIES is refused by load_model and by
train_forest.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .candidates import CandidateIndex, query_candidates
from .corpus import CorpusStore, write_atomic
from .similarity import chunked, feature_vector

SCHEMA_VERSION = 1
FEATURE_NAMES = ("title_d", "author_d", "abstract_d")
N_SUBSET_FEATURES = 2  # ceil(sqrt(3))

DEFAULT_N_TREES = 100
DEFAULT_MAX_DEPTH = 6
DEFAULT_THRESHOLD = 0.5
DEFAULT_NEG_PER_POS = 3
# leaf cells plus bin-index entries of a model's lookup table; the
# defaults (100 trees of depth 6) stay below 1,695,100
MAX_TABLE_ENTRIES = 1 << 21


class TrainingError(ValueError):
    """The training data or hyperparameters cannot produce a model."""


class ModelFormatError(ValueError):
    """A model file is unreadable, truncated, or has the wrong schema."""


@dataclass
class ForestModel:
    trees: list[list[dict]]
    n_trees: int
    max_depth: int
    seed: int
    decision_threshold: float = DEFAULT_THRESHOLD
    _packed: tuple | None = field(default=None, repr=False, compare=False)

    def packed(self) -> tuple:
        if self._packed is None:
            self._packed = _build_table(self.trees)
        return self._packed


def doi_pairs(store: CorpusStore) -> list[tuple[str, str]]:
    """(preprint id, accession) for every DOI resolving to a unique record."""
    pairs = []
    for pid in sorted(store.preprints):
        accession = store.doi_accession(store.preprints[pid].doi)
        if accession is not None:
            pairs.append((pid, accession))
    return pairs


def training_pairs_from(store: CorpusStore, index: CandidateIndex,
                        pairs: list[tuple[str, str]],
                        neg_per_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, labels): positives from the given (preprint, accession) pairs,
    each followed by the up-to neg_per_pos highest-ranked non-matching
    candidates of its preprint."""
    if neg_per_pos < 1:
        raise TrainingError("neg_per_pos must be >= 1")
    vectors = [np.empty((0, len(FEATURE_NAMES)))]
    labels = [np.empty(0, dtype=bool)]
    for chunk in chunked(_labelled_candidates(store, index, pairs, neg_per_pos)):
        vectors.append(feature_vector(index.table, [p for p, _ in chunk],
                                      [ords for _, ords in chunk]))
        labels += [np.arange(len(ords)) == 0 for _, ords in chunk]
    return np.concatenate(vectors), np.concatenate(labels)


def _labelled_candidates(store: CorpusStore, index: CandidateIndex,
                         pairs: list[tuple[str, str]], neg_per_pos: int):
    """(preprint, ordinals) per pair: its accession's, then its negatives'."""
    for pid, accession in pairs:
        p = store.preprints[pid]
        ranked = query_candidates(index, p, k=neg_per_pos + 1)
        negatives = [a for a in ranked if a != accession][:neg_per_pos]
        yield p, index.ordinals([accession] + negatives)


def bootstrap_training_set(store: CorpusStore, index: CandidateIndex,
                           neg_per_pos: int = DEFAULT_NEG_PER_POS,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Label pairs from DOI matches plus hard negatives from the candidate list.

    Every unique DOI pair becomes a positive. Wrong DOIs are accepted
    untreated; the resulting label noise is part of the method.
    """
    pairs = doi_pairs(store)
    if not pairs:
        raise TrainingError("no training signal: no DOI-resolvable pairs in store")
    return training_pairs_from(store, index, pairs, neg_per_pos)


def _canonicalize(x: np.ndarray, labels: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    uniq, counts = np.unique(np.column_stack((x, labels)), axis=0, return_counts=True)
    return uniq[:, :3], uniq[:, 3] > 0.5, counts.astype(np.float64)


@dataclass
class _Builder:
    values: np.ndarray
    pos_w: np.ndarray
    neg_w: np.ndarray
    max_depth: int
    rng: np.random.Generator
    nodes: list[dict] = field(default_factory=list)

    def build(self, rows: np.ndarray, depth: int) -> int:
        pos = float(np.sum(self.pos_w[rows]))
        neg = float(np.sum(self.neg_w[rows]))
        if depth >= self.max_depth or pos == 0.0 or neg == 0.0:
            return self._leaf(pos, neg)
        feats = np.sort(self.rng.choice(3, size=N_SUBSET_FEATURES, replace=False))
        f, thr, _cost = _kernels.best_split(
            self.values[rows], self.pos_w[rows], self.neg_w[rows],
            feats.astype(np.int64),
        )
        if f < 0:
            return self._leaf(pos, neg)
        idx = len(self.nodes)
        self.nodes.append({})  # patched below; keeps pre-order placement
        go_left = self.values[rows, f] <= thr
        left = self.build(rows[go_left], depth + 1)
        right = self.build(rows[~go_left], depth + 1)
        self.nodes[idx] = {"feature": int(f), "threshold": float(thr),
                           "left": left, "right": right}
        return idx

    def _leaf(self, pos: float, neg: float) -> int:
        self.nodes.append({"leaf": pos / (pos + neg)})
        return len(self.nodes) - 1


def train_forest(x: np.ndarray, labels: np.ndarray, n_trees: int = DEFAULT_N_TREES,
                 max_depth: int = DEFAULT_MAX_DEPTH, seed: int = 0,
                 decision_threshold: float = DEFAULT_THRESHOLD) -> ForestModel:
    seed = int(seed)
    problem = _scalar_problem(n_trees, max_depth, seed, decision_threshold,
                              list(FEATURE_NAMES))
    if problem is not None:
        raise TrainingError(problem)
    if labels.size == 0:
        raise TrainingError("empty training set")
    if labels.all() or not labels.any():
        raise TrainingError("training data must contain both labels")

    values, is_pos, weights = _canonicalize(x, labels)
    n = values.shape[0]
    probs = weights / weights.sum()
    trees: list[list[dict]] = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, t])
        draw = rng.choice(n, size=n, replace=True, p=probs)
        sample_w = np.bincount(draw, minlength=n).astype(np.float64)
        rows = np.nonzero(sample_w > 0)[0]
        builder = _Builder(
            values=values,
            pos_w=np.where(is_pos, sample_w, 0.0),
            neg_w=np.where(is_pos, 0.0, sample_w),
            max_depth=max_depth,
            rng=rng,
        )
        root = builder.build(rows, 0)
        assert root == 0
        trees.append(builder.nodes)
    problem = _table_problem(trees)
    if problem is not None:
        raise TrainingError(problem)
    return ForestModel(trees=trees, n_trees=n_trees, max_depth=max_depth,
                       seed=seed, decision_threshold=decision_threshold)


def _edges(trees: list[list[dict]]) -> tuple[list, list[list[float]]]:
    """Each feature's sorted distinct thresholds, per tree and over the model."""
    local = []
    for nodes in trees:
        edges: list[set[float]] = [set() for _ in FEATURE_NAMES]
        for node in nodes:
            if "leaf" not in node:
                edges[node["feature"]].add(float(node["threshold"]))
        local.append([sorted(e) for e in edges])
    model = [sorted(set().union(*(e[f] for e in local)))
             for f in range(len(FEATURE_NAMES))]
    return local, model


def table_entries(trees: list[list[dict]]) -> int:
    """Size of the model's threshold-bin table, counted before it is built:
    every tree's grid cells (the product over features of its distinct
    thresholds + 1) plus n_trees x sum over features of (the model's
    distinct thresholds + 1) bin-index entries."""
    local, model = _edges(trees)
    cells = sum(math.prod(len(e) + 1 for e in edges) for edges in local)
    return cells + len(trees) * sum(len(e) + 1 for e in model)


def _table_problem(trees: list[list[dict]]) -> str | None:
    """Why the model's threshold-bin table is too large to build, or None."""
    entries = table_entries(trees)
    if entries > MAX_TABLE_ENTRIES:
        return (f"lookup table of {entries:,} entries exceeds the limit of "
                f"{MAX_TABLE_ENTRIES:,}")
    return None


def _build_table(trees: list[list[dict]]) -> tuple:
    """The threshold-bin table _kernels.forest_eval evaluates:
    (edges_0, edges_1, edges_2, cells_0, cells_1, cells_2, leaf).

    Tree t's leaves fill a dense grid over its own thresholds: a value's
    local bin on feature f counts the tree's thresholds on f below it,
    and the grid is split box by box from the root, so each cell holds
    the leaf a walk would reach. A split whose threshold leaves one side
    of the box empty (a repeated or contradictory split on a path) sends
    the whole box the other way. cells_f[t, g] maps a global bin g of
    edges_f to tree t's local bin times its grid stride on f.
    """
    local, model = _edges(trees)
    edges = [np.array(e, dtype=np.float64) for e in model]
    shapes = [tuple(len(e) + 1 for e in loc) for loc in local]
    sizes = [math.prod(shape) for shape in shapes]
    leaf = np.empty(sum(sizes), dtype=np.float64)
    cells = [np.empty((len(trees), e.size + 1), dtype=np.int64) for e in edges]
    base = 0
    for t, (nodes, loc, shape, size) in enumerate(zip(trees, local, shapes, sizes)):
        stride = size
        for f, e in enumerate(edges):
            stride //= shape[f]
            cells[f][t] = np.searchsorted(loc[f], np.append(e, np.inf)) * stride
        cells[0][t] += base
        grid = leaf[base:base + size].reshape(shape)
        stack = [(0, [(0, n) for n in shape])]
        while stack:
            i, box = stack.pop()
            node = nodes[i]
            if "leaf" in node:
                grid[tuple(slice(lo, hi) for lo, hi in box)] = node["leaf"]
                continue
            f = node["feature"]
            lo, hi = box[f]
            # x <= thr holds exactly for the local bins up to thr's rank
            cut = bisect.bisect_left(loc[f], float(node["threshold"])) + 1
            for child, part in ((node["left"], (lo, min(hi, cut))),
                                (node["right"], (max(lo, cut), hi))):
                if part[0] < part[1]:
                    stack.append((child, box[:f] + [part] + box[f + 1:]))
        base += size
    return (*edges, *cells, leaf)


def predict_many(model: ForestModel, vectors: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(vectors, dtype=np.float64)
    edges_0, edges_1, edges_2, cells_0, cells_1, cells_2, leaf = model.packed()
    return _kernels.forest_eval(edges_0, edges_1, edges_2,
                                cells_0, cells_1, cells_2, x, leaf)


def save_model(model: ForestModel, path: str | Path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_trees": model.n_trees,
        "max_depth": model.max_depth,
        "seed": model.seed,
        "decision_threshold": model.decision_threshold,
        "feature_names": list(FEATURE_NAMES),
        "trees": model.trees,
    }
    with write_atomic(path) as fh:
        json.dump(payload, fh, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def load_model(path: str | Path) -> ForestModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    # ValueError: not JSON, not UTF-8, or an integer past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ModelFormatError(f"{path}: not a forest model file")
    version = payload["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported schema version {version!r}"
        )
    try:
        model = ForestModel(
            trees=payload["trees"],
            n_trees=payload["n_trees"],
            max_depth=payload["max_depth"],
            seed=payload["seed"],
            decision_threshold=payload["decision_threshold"],
        )
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc.args[0]!r}") from exc
    problem = _scalar_problem(model.n_trees, model.max_depth, model.seed,
                              model.decision_threshold,
                              payload.get("feature_names", list(FEATURE_NAMES)))
    if problem is not None:
        raise ModelFormatError(f"{path}: {problem}")
    if not isinstance(model.trees, list) or len(model.trees) != model.n_trees:
        raise ModelFormatError(f"{path}: tree count does not match n_trees")
    for t, nodes in enumerate(model.trees):
        problem = _tree_problem(nodes)
        if problem is not None:
            raise ModelFormatError(f"{path}: tree {t}: {problem}")
    problem = _table_problem(model.trees)
    if problem is not None:
        raise ModelFormatError(f"{path}: {problem}")
    return model


_INNER_KEYS = {"feature", "threshold", "left", "right"}


def _is_number(x) -> bool:
    """A finite float, or an int that converts to one."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _scalar_problem(n_trees, max_depth, seed, decision_threshold,
                    feature_names) -> str | None:
    """Why the hyperparameters are not ones a model holds, or None: the
    one check of train_forest's arguments and of a model file's fields."""
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth)):
        if type(value) is not int or value < 1:
            return f"{name} must be an integer >= 1"
    if type(seed) is not int:
        return "seed must be an integer"
    if not (_is_number(decision_threshold) and 0.0 < decision_threshold < 1.0):
        return "decision_threshold must be a number in (0, 1)"
    if feature_names != list(FEATURE_NAMES):
        return f"feature_names must be {list(FEATURE_NAMES)}"
    return None


def _tree_problem(nodes) -> str | None:
    """Why the node list is not a tree _build_table can tabulate, or None.

    Children must come after their parent, so every path from the root
    ends at a leaf.
    """
    if not isinstance(nodes, list) or not nodes:
        return "empty or not a list of nodes"
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            return f"node {i} is not an object"
        if set(node) == {"leaf"}:
            if not (_is_number(node["leaf"]) and 0.0 <= node["leaf"] <= 1.0):
                return f"node {i}: leaf value outside [0, 1]"
            continue
        if set(node) != _INNER_KEYS:
            return f"node {i}: neither a leaf nor an inner node"
        if type(node["feature"]) is not int or not 0 <= node["feature"] < len(FEATURE_NAMES):
            return f"node {i}: feature id not in 0..{len(FEATURE_NAMES) - 1}"
        if not _is_number(node["threshold"]):
            return f"node {i}: threshold is not a finite number"
        for side in ("left", "right"):
            child = node[side]
            if type(child) is not int or not i < child < len(nodes):
                return f"node {i}: {side} child {child!r} is not a later node"
    return None
