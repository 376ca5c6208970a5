"""Precision/recall harness over DOI-derived ground truth.

The DOI pairs are split 80/20 into train and holdout by a seeded shuffle.
A forest is trained on the train split only; each holdout preprint then
runs the classifier step with its DOI hidden, and the prediction is
scored against the DOI pair. A wrong prediction counts as both a false
positive and a missed pair, the usual record-linkage convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import DEFAULT_K, build_index
from .corpus import CorpusStore
from .forest import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_N_TREES,
    DEFAULT_NEG_PER_POS,
    DEFAULT_THRESHOLD,
    doi_pairs,
    train_forest,
    training_pairs_from,
)
from .matcher import match_by_classifier

MIN_DOI_PAIRS = 200
HOLDOUT_FRACTION = 0.2


class EvalError(RuntimeError):
    pass


@dataclass
class EvalReport:
    precision: float
    recall: float
    true_positives: int
    false_positives: int
    false_negatives: int
    holdout_size: int
    train_size: int
    seed: int


def split_doi_pairs(store: CorpusStore, seed: int,
                    ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Seeded 80/20 split of the DOI ground-truth pairs."""
    pairs = doi_pairs(store)
    if len(pairs) < MIN_DOI_PAIRS:
        raise EvalError(f"too few DOI-matched pairs for evaluation: "
                        f"{len(pairs)} < {MIN_DOI_PAIRS}")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    perm = rng.permutation(len(pairs))
    cut = int(round(len(pairs) * (1.0 - HOLDOUT_FRACTION)))
    train = [pairs[i] for i in perm[:cut]]
    holdout = [pairs[i] for i in perm[cut:]]
    return train, holdout


def evaluate(store: CorpusStore, seed: int,
             n_trees: int = DEFAULT_N_TREES,
             max_depth: int = DEFAULT_MAX_DEPTH,
             neg_per_pos: int = DEFAULT_NEG_PER_POS,
             k: int = DEFAULT_K,
             decision_threshold: float = DEFAULT_THRESHOLD,
             split: tuple[list, list] | None = None) -> EvalReport:
    """Run the harness; `split` overrides the seeded split (harness tests)."""
    if split is None:
        train, holdout = split_doi_pairs(store, seed)
    else:
        train, holdout = split
    index = build_index(store)
    data = training_pairs_from(store, index, train, neg_per_pos)
    model = train_forest(data, n_trees=n_trees, max_depth=max_depth, seed=seed,
                         decision_threshold=decision_threshold)
    tp = fp = 0
    for pid, truth in holdout:
        hit = match_by_classifier(store.preprints[pid], index, model, k)
        if hit is None:
            continue
        if hit[0] == truth:
            tp += 1
        else:
            fp += 1
    fn = len(holdout) - tp
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return EvalReport(
        precision=precision,
        recall=recall,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        holdout_size=len(holdout),
        train_size=len(train),
        seed=int(seed),
    )
