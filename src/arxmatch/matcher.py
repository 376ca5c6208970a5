"""Two-step matching: DOI lookup first, then classifier over candidates.

Step one returns immediately when the preprint's DOI resolves to exactly
one published record. Anything else (no DOI, zero hits, multiple hits)
falls through to step two, which scores the top-k candidates with the
forest and picks the positively-classified candidate with the highest
forest probability; ties go to the smaller similarity vector in
lexicographic order, then to the smaller accession.

The naive baseline (exact normalized title + ordered family list, unique
hit required) is kept alongside for the improvement accounting in the
batch report.
"""

from __future__ import annotations

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
from .similarity import FeatureVector, feature_vector_projected

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


def match_by_classifier(p: PreprintRecord, index: CandidateIndex,
                        model: ForestModel, k: int) -> tuple[str, FeatureVector] | None:
    """The most probable positively-classified candidate, or None."""
    ranked = query_candidates(index, p, k)
    if not ranked:
        return None
    table = index.table
    vectors = feature_vector_projected(table, table.query_row(p),
                                       table.rows(index.ordinals(ranked)))
    probs = predict_many(model, np.array(vectors, dtype=np.float64))
    positives = [
        (-probs[i], vectors[i], ranked[i])
        for i in range(len(ranked))
        if probs[i] >= model.decision_threshold
    ]
    if not positives:
        return None
    _, vec, accession = min(positives)
    return accession, vec


def match_preprint(p: PreprintRecord, store: CorpusStore, index: CandidateIndex,
                   model: ForestModel, k: int,
                   timestamp: str = DEFAULT_TIMESTAMP) -> MatchDecision:
    accession = match_by_doi(p, store)
    if accession is not None:
        return MatchDecision(preprint=p.id, outcome=OUTCOME_DOI,
                             matched_accession=accession, vector=None,
                             decided_at=timestamp)
    hit = match_by_classifier(p, index, model, k)
    if hit is not None:
        accession, vec = hit
        return MatchDecision(preprint=p.id, outcome=OUTCOME_CLASSIFIER,
                             matched_accession=accession,
                             vector=(vec.title_d, vec.author_d, vec.abstract_d),
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
    decisions = []
    doi_n = cls_n = naive_eq = 0
    for pid in pids:
        p = store.preprints[pid]
        decision = match_preprint(p, store, index, model, k, timestamp=timestamp)
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
