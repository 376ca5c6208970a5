"""Two-step matching: DOI lookup first, then classifier over candidates.

Step one returns immediately when the run's ``corpus.doi_map`` resolves
the preprint's DOI to exactly one published record. Anything else (no
DOI, zero hits, multiple hits) falls through to step two, which scores the top-k candidates with the
forest and picks the positively-classified candidate with the highest
forest probability; ties go to the smaller similarity vector in
lexicographic order, then to the smaller accession (``pick_positive``).

A run classifies its preprints together (``classify_preprints``): every
preprint the DOI step leaves is queried on its own, and the pairs of
about ``similarity.CHUNK_PAIRS`` of them are decided together: one
``feature_vector_projected`` call scores them (one title kernel call for
the chunk), one forest call classifies them and one sort picks each
preprint's candidate. The forest scores each row on its own and the
sort keys rows by their preprint first, so a decision does not depend
on the chunk it fell in. ``match_by_classifier`` is that run for one
preprint. No command or test calls it; it stays only because the
benchmark's tracer (perfbench/spans.py) rebinds it.

The batch report tallies its decisions' outcomes and counts, with
``pair_has_equal_title_authors``, the classifier matches a naive matcher
could also have found: one that links a preprint to the published record
with exactly its normalized title and ordered family-name list.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateIndex, query_candidates
from .corpus import (
    OUTCOME_CLASSIFIER,
    OUTCOME_DOI,
    OUTCOME_UNMATCHED,
    CorpusStore,
    MatchDecision,
    PreprintRecord,
    PublishedRecord,
    doi_map,
)
from .forest import ForestModel, predict_many
from .normalize import normalize_text
from .similarity import chunked, feature_vector_projected


@dataclass
class MatchRunReport:
    total_preprints: int
    doi_matches: int
    classifier_matches: int
    unmatched: int
    naive_equal_title_authors: int
    new_vs_naive: int
    run_seed: int
    candidates_k: int
    timestamp: str

    def check(self) -> None:
        if self.doi_matches + self.classifier_matches + self.unmatched \
                != self.total_preprints:
            raise RuntimeError("report conservation violated")
        if self.new_vs_naive < 0:
            raise RuntimeError("more naive-equal pairs than classifier matches")


def match_by_doi(p: PreprintRecord, dois: dict[str, str | None]) -> str | None:
    """Accession of the unique DOI hit in a ``doi_map``, or None (step two)."""
    return dois.get(p.doi)


def pick_positive(probs: np.ndarray, x: np.ndarray, accessions: np.ndarray,
                  owner: np.ndarray, threshold: float) -> np.ndarray:
    """Per owner, the row of its most probable candidate with probability
    at least threshold, or -1. owner numbers each row's preprint 0..n-1,
    in order, and every owner has at least one row. Ties go to the
    lexicographically smaller vector, then to the smaller accession."""
    order = np.lexsort((accessions, x[:, 2], x[:, 1], x[:, 0], -probs, owner))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    return np.where(probs[first] >= threshold, first, -1)


def classify_preprints(preprints: Iterable[PreprintRecord], index: CandidateIndex,
                       model: ForestModel, k: int,
                       ) -> list[tuple[str, tuple[float, float, float]] | None]:
    """Each preprint's most probable positively-classified candidate and
    its vector, or None, in order. Each preprint is queried on its own; the
    pairs of a chunk of about CHUNK_PAIRS are scored in one
    feature_vector_projected call, classified in one predict_many call and
    picked in one pick_positive call."""
    table = index.table
    hits = []
    for chunk in chunked((p, query_candidates(index, p, k)) for p in preprints):
        scored = [(p, ranked) for p, ranked in chunk if ranked]
        if scored:
            x = feature_vector_projected(table, [table.query_row(p) for p, _ in scored],
                                         [table.rows(ranked) for _, ranked in scored])
            owner = np.repeat(np.arange(len(scored)), [len(r) for _, r in scored])
            # object, not '<U': numpy's str arrays drop trailing NULs
            accessions = np.array([a for _, r in scored for a in r], dtype=object)
            rows = iter(pick_positive(predict_many(model, x), x, accessions, owner,
                                      model.decision_threshold).tolist())
        for _, ranked in chunk:
            i = next(rows) if ranked else -1
            hits.append((accessions[i], tuple(x[i].tolist())) if i >= 0 else None)
    return hits


def match_by_classifier(p: PreprintRecord, index: CandidateIndex, model: ForestModel,
                        k: int) -> tuple[str, tuple[float, float, float]] | None:
    """The most probable positively-classified candidate and its vector, or
    None. This is ``classify_preprints`` of ``p`` alone; ``batch_match`` and
    evaluation classify a run's preprints together and give each the same.
    No command or test calls it; it stays bound because the benchmark's
    tracer (perfbench/spans.py) rebinds it here and in ``evaluate``."""
    return classify_preprints([p], index, model, k)[0]


def _decision(p: PreprintRecord, accession: str | None,
              hit: tuple[str, tuple[float, float, float]] | None,
              timestamp: str) -> MatchDecision:
    """The decision of a DOI hit's accession, else of a classifier hit."""
    vector = None
    if accession is not None:
        outcome = OUTCOME_DOI
    elif hit is not None:
        outcome = OUTCOME_CLASSIFIER
        accession, vector = hit
    else:
        outcome = OUTCOME_UNMATCHED
    # positional: a keyword call of a frozen dataclass is slower
    return MatchDecision(p.id, outcome, accession, vector, timestamp)


def _naive_key(title: str, authors) -> tuple[str, tuple[str, ...]]:
    return (
        normalize_text(title),
        tuple(n.key[0] for n in authors),
    )


def pair_has_equal_title_authors(p: PreprintRecord, c: PublishedRecord) -> bool:
    return _naive_key(p.title, p.authors) == _naive_key(c.title, c.authors)


def batch_match(store: CorpusStore, index: CandidateIndex, model: ForestModel,
                k: int, timestamp: str) -> MatchRunReport:
    """Match every unmerged preprint, persist decisions, return the report.

    naive_equal_title_authors counts the classifier matches whose matched
    pair has exactly the same normalized title and author list, which is
    the baseline a naive matcher could also have found.
    """
    preprints = [store.preprints[pid] for pid in store.unmerged_preprints()]
    dois = doi_map(store.published)
    accessions = [match_by_doi(p, dois) for p in preprints]
    hits = iter(classify_preprints(
        [p for p, accession in zip(preprints, accessions) if accession is None],
        index, model, k))
    decisions = [_decision(p, accession, next(hits) if accession is None else None,
                           timestamp)
                 for p, accession in zip(preprints, accessions)]
    for decision in decisions:
        store.record_decision(decision)
    outcomes = Counter(d.outcome for d in decisions)
    naive_eq = sum(pair_has_equal_title_authors(p, store.published[d.matched_accession])
                   for p, d in zip(preprints, decisions)
                   if d.outcome == OUTCOME_CLASSIFIER)
    report = MatchRunReport(
        total_preprints=len(decisions),
        doi_matches=outcomes[OUTCOME_DOI],
        classifier_matches=outcomes[OUTCOME_CLASSIFIER],
        unmatched=outcomes[OUTCOME_UNMATCHED],
        naive_equal_title_authors=naive_eq,
        new_vs_naive=outcomes[OUTCOME_CLASSIFIER] - naive_eq,
        run_seed=model.seed,
        candidates_k=k,
        timestamp=timestamp,
    )
    report.check()
    return report
