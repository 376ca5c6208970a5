"""Two-step matching: DOI lookup first, then classifier over candidates.

Step one returns immediately when the preprint's DOI resolves to exactly
one published record. Anything else (no DOI, zero hits, multiple hits)
falls through to step two, which scores the top-k candidates with the
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
preprint; no command calls it, only tests and the benchmark's tracer.

The naive baseline (exact normalized title + ordered family list, unique
hit required) is kept alongside for the improvement accounting in the
batch report.
"""

from __future__ import annotations

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
)
from .forest import ForestModel, predict_many
from .normalize import normalize_text
from .similarity import chunked, feature_vector_projected

DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"


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
        assert self.doi_matches + self.classifier_matches + self.unmatched \
            == self.total_preprints, "report conservation violated"
        assert self.new_vs_naive >= 0


def match_by_doi(p: PreprintRecord, store: CorpusStore) -> str | None:
    """Accession of the unique DOI hit, or None (fall through to step two)."""
    return store.doi_accession(p.doi)


def pick_positive(probs: np.ndarray, x: np.ndarray, ordinals: np.ndarray,
                  owner: np.ndarray, threshold: float) -> np.ndarray:
    """Per owner, the row of its most probable candidate with probability
    at least threshold, or -1. owner numbers each row's preprint 0..n-1,
    in order, and every owner has at least one row. Ties go to the
    lexicographically smaller vector, then to the smaller ordinal, which
    is the smaller accession."""
    order = np.lexsort((ordinals, x[:, 2], x[:, 1], x[:, 0], -probs, owner))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    return np.where(probs[first] >= threshold, first, -1)


def classify_preprints(preprints: Iterable[PreprintRecord], index: CandidateIndex,
                       model: ForestModel, k: int,
                       ) -> list[tuple[str, tuple[float, float, float]] | None]:
    """match_by_classifier of each preprint, in order. Each preprint is
    queried on its own; the pairs of a chunk of about CHUNK_PAIRS are
    scored in one feature_vector_projected call, classified in one
    predict_many call and picked in one pick_positive call."""
    table = index.table
    hits = []
    for chunk in chunked((p, query_candidates(index, p, k)) for p in preprints):
        scored = [(p, ranked, index.ordinals(ranked)) for p, ranked in chunk if ranked]
        if scored:
            x = feature_vector_projected(table, [table.query_row(p) for p, _, _ in scored],
                                         [table.rows(ords) for _, _, ords in scored])
            owner = np.repeat(np.arange(len(scored)), [len(ords) for _, _, ords in scored])
            rows = iter(pick_positive(predict_many(model, x), x,
                                      np.concatenate([ords for _, _, ords in scored]),
                                      owner, model.decision_threshold).tolist())
            accessions = [a for _, ranked, _ in scored for a in ranked]
        for _, ranked in chunk:
            i = next(rows) if ranked else -1
            hits.append((accessions[i], tuple(x[i].tolist())) if i >= 0 else None)
    return hits


def match_by_classifier(p: PreprintRecord, index: CandidateIndex, model: ForestModel,
                        k: int) -> tuple[str, tuple[float, float, float]] | None:
    """The most probable positively-classified candidate and its vector, or
    None. This is ``classify_preprints`` of ``p`` alone; ``batch_match`` and
    evaluation classify a run's preprints together and give each the same."""
    return classify_preprints([p], index, model, k)[0]


def _decision(p: PreprintRecord, accession: str | None,
              hit: tuple[str, tuple[float, float, float]] | None,
              timestamp: str) -> MatchDecision:
    """The decision of a DOI hit's accession, else of a classifier hit."""
    if accession is not None:
        return MatchDecision(preprint=p.id, outcome=OUTCOME_DOI,
                             matched_accession=accession, vector=None,
                             decided_at=timestamp)
    if hit is not None:
        accession, vec = hit
        return MatchDecision(preprint=p.id, outcome=OUTCOME_CLASSIFIER,
                             matched_accession=accession,
                             vector=vec,
                             decided_at=timestamp)
    return MatchDecision(preprint=p.id, outcome=OUTCOME_UNMATCHED,
                         matched_accession=None, vector=None,
                         decided_at=timestamp)


def _naive_key(title: str, authors) -> tuple[str, tuple[str, ...]]:
    return (
        normalize_text(title),
        tuple(n.key[0] for n in authors),
    )


def build_naive_index(store: CorpusStore) -> dict[tuple, list[str]]:
    index: dict[tuple, list[str]] = {}
    for accession in sorted(store.published):
        rec = store.published[accession]
        index.setdefault(_naive_key(rec.title, rec.authors), []).append(accession)
    return index


def naive_match(p: PreprintRecord, store: CorpusStore,
                naive_index: dict | None = None) -> str | None:
    """Exact normalized title+authors equality; unique hit required."""
    if naive_index is None:
        naive_index = build_naive_index(store)
    hits = naive_index.get(_naive_key(p.title, p.authors), [])
    if len(hits) == 1:
        return hits[0]
    return None


def pair_has_equal_title_authors(p: PreprintRecord, c: PublishedRecord) -> bool:
    return _naive_key(p.title, p.authors) == _naive_key(c.title, c.authors)


def batch_match(store: CorpusStore, index: CandidateIndex, model: ForestModel,
                k: int, timestamp: str = DEFAULT_TIMESTAMP) -> MatchRunReport:
    """Match every unmerged preprint, persist decisions, return the report.

    naive_equal_title_authors counts the classifier matches whose matched
    pair has exactly the same normalized title and author list, which is
    the baseline a naive matcher could also have found.
    """
    pids = store.unmerged_preprints()
    preprints = [store.preprints[pid] for pid in pids]
    dois = [match_by_doi(p, store) for p in preprints]
    hits = iter(classify_preprints(
        [p for p, accession in zip(preprints, dois) if accession is None],
        index, model, k))
    decisions = []
    doi_n = cls_n = naive_eq = 0
    for p, accession in zip(preprints, dois):
        hit = next(hits) if accession is None else None
        decision = _decision(p, accession, hit, timestamp)
        decisions.append(decision)
        if decision.outcome == OUTCOME_DOI:
            doi_n += 1
        elif decision.outcome == OUTCOME_CLASSIFIER:
            cls_n += 1
            if pair_has_equal_title_authors(
                    p, store.published[decision.matched_accession]):
                naive_eq += 1
    for decision in decisions:
        store.record_decision(decision)
    report = MatchRunReport(
        total_preprints=len(pids),
        doi_matches=doi_n,
        classifier_matches=cls_n,
        unmatched=len(pids) - doi_n - cls_n,
        naive_equal_title_authors=naive_eq,
        new_vs_naive=cls_n - naive_eq,
        run_seed=model.seed,
        candidates_k=k,
        timestamp=timestamp,
    )
    report.check()
    return report
