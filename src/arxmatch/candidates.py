"""Candidate retrieval: an inverted index over published titles and authors.

Blocking step of the matcher. Published records are indexed by their
normalized title tokens (stopwords removed) and normalized family names;
a query scores every posting hit with smoothed token IDF plus a flat
boost of 2 per shared family name and returns the top-k accessions.

The index is immutable once built; rebuild it after corpus changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .corpus import CorpusStore, PreprintRecord
from .normalize import normalize_text
from .similarity import family_set

AUTHOR_BOOST = 2.0
DEFAULT_K = 20


def load_stopwords() -> frozenset[str]:
    text = resources.files("arxmatch.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(tok for tok in text.split() if tok)


_STOPWORDS = load_stopwords()


def title_tokens(title: str) -> list[str]:
    """Unique non-stopword tokens of a normalized title, in first-seen order."""
    seen: dict[str, None] = {}
    for tok in normalize_text(title).tokens():
        if tok not in _STOPWORDS:
            seen.setdefault(tok)
    return list(seen)


@dataclass
class CandidateIndex:
    token_postings: dict[str, set[str]]
    author_postings: dict[str, set[str]]
    idf: dict[str, float]


def build_index(store: CorpusStore) -> CandidateIndex:
    token_postings: dict[str, set[str]] = {}
    author_postings: dict[str, set[str]] = {}
    for accession in sorted(store.published):
        rec = store.published[accession]
        for tok in title_tokens(rec.title):
            token_postings.setdefault(tok, set()).add(accession)
        for fam in sorted(family_set(rec.authors)):
            author_postings.setdefault(fam, set()).add(accession)
    n = len(store.published)
    idf = {tok: math.log(1.0 + n / len(accs)) for tok, accs in token_postings.items()}
    return CandidateIndex(
        token_postings=token_postings,
        author_postings=author_postings,
        idf=idf,
    )


def query_candidates(index: CandidateIndex, p: PreprintRecord,
                     k: int = DEFAULT_K) -> list[str]:
    """Top-k accessions by blocking score; only strictly positive scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: dict[str, float] = {}
    for tok in title_tokens(p.title):
        postings = index.token_postings.get(tok)
        if not postings:
            continue
        w = index.idf[tok]
        for accession in postings:
            scores[accession] = scores.get(accession, 0.0) + w
    for fam in sorted(family_set(p.authors)):
        postings = index.author_postings.get(fam)
        if not postings:
            continue
        for accession in postings:
            scores[accession] = scores.get(accession, 0.0) + AUTHOR_BOOST
    ranked = sorted(
        (acc for acc, s in scores.items() if s > 0.0),
        key=lambda acc: (-scores[acc], acc),
    )
    return ranked[:k]
