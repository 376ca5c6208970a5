"""Two-step matching: DOI lookup first, then classifier over candidates.

Step one returns immediately when the preprint's DOI resolves to exactly
one published record. Anything else (no DOI, zero hits, multiple hits)
falls through to step two, which scores the top-k candidates with the
forest and picks the positively-classified candidate with the highest
forest probability; ties go to the smaller similarity vector in
lexicographic order, then to the smaller accession (``pick_positive``).

A run classifies its preprints together (``classify_preprints``): every
preprint the DOI step leaves is queried on its own, and the pairs of
about ``similarity.CHUNK_PAIRS`` of them are scored in one
``feature_vector_projected`` call, one title kernel call for the chunk;
each preprint's slice of the chunk's vectors then goes through the
forest and the pick on its own, so a decision does not depend on the
chunk it fell in. ``match_by_classifier`` is that run for one
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


def pick_positive(probs: np.ndarray, x: np.ndarray, ordinals: list[int],
                  threshold: float) -> int | None:
    """The row of the most probable candidate with probability at least
    threshold, or None. Ties go to the lexicographically smaller vector,
    then to the smaller ordinal, which is the smaller accession."""
    i = int(np.lexsort((ordinals, x[:, 2], x[:, 1], x[:, 0], -probs))[0])
    return i if probs[i] >= threshold else None


def _pick(model: ForestModel, x: np.ndarray, ranked: list[str],
          ordinals: list[int]) -> tuple[str, tuple[float, float, float]] | None:
    probs = predict_many(model, x)
    i = pick_positive(probs, x, ordinals, model.decision_threshold)
    if i is None:
        return None
    return ranked[i], tuple(x[i].tolist())


def classify_preprints(preprints: Iterable[PreprintRecord], index: CandidateIndex,
                       model: ForestModel, k: int,
                       ) -> list[tuple[str, tuple[float, float, float]] | None]:
    """match_by_classifier of each preprint, in order. Each preprint is
    queried, classified and picked on its own; the pairs of a chunk of
    about CHUNK_PAIRS are scored in one feature_vector_projected call."""
    table = index.table
    hits = []
    for chunk in chunked((p, query_candidates(index, p, k)) for p in preprints):
        ordinals = [index.ordinals(ranked) for _, ranked in chunk]
        queries, rows = [], []
        for (p, _), ords in zip(chunk, ordinals):
            if ords:
                queries.append(table.query_row(p))
                rows.append(table.rows(ords))
        if queries:
            x = feature_vector_projected(table, queries, rows)
        end = 0
        for (_, ranked), ords in zip(chunk, ordinals):
            end += len(ords)
            hits.append(_pick(model, x[end - len(ords):end], ranked, ords)
                        if ranked else None)
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
