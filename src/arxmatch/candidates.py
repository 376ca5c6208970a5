"""Candidate retrieval: an inverted index over published titles and authors.

Blocking step of the matcher. Published records are indexed by their
normalized title tokens (stopwords removed) and normalized family names;
a query scores every posting hit with smoothed token IDF plus a flat
boost of 2 per shared family name and returns the top-k accessions, best
score first and ties by accession.

Representation: the published accessions are sorted once, and a record's
ordinal is its position in that list (ordinal i is ``accessions[i]``). A
posting is an int64 array of ordinals, strictly increasing because the
records are indexed in ordinal order. The index also owns the records'
scoring rows (``similarity.ScoringTable``) by the same ordinals, each
filled the first time a query's candidates reach its record; ``ordinals``
maps returned accessions back to them by bisection.

Query: the postings of the query's title tokens (in ``title_tokens``
order), then of its family names (in sorted order), are concatenated,
each with its weight repeated alongside, and one dense ``np.bincount``
over all ordinals sums the weights per record, so a query costs
O(hits + n). Hits tied at the k-th score are all kept through
``np.partition``, and the survivors are ordered by ``np.lexsort`` on
(-score, ordinal).

The scores and the order equal those of scoring hits one at a time in a
dict and sorting by (-score, accession), bit for bit: ``np.bincount``
adds each bin's weights in input order, which is the order in which the
dict loop adds a record's token and family weights, starting from the
same 0.0; and ordinal order is accession order, so the tie-break is the
same.

The index is immutable once built; rebuild it after corpus changes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .corpus import CorpusStore, PreprintRecord
from .normalize import normalize_text
from .similarity import ScoringTable, family_set

AUTHOR_BOOST = 2.0
DEFAULT_K = 20


def load_stopwords() -> frozenset[str]:
    text = resources.files("arxmatch.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(tok for tok in text.split() if tok)


_STOPWORDS = load_stopwords()


def title_tokens(title: str) -> list[str]:
    """Unique non-stopword tokens of a normalized title, in first-seen order."""
    seen: dict[str, None] = {}
    for tok in normalize_text(title).split():
        if tok not in _STOPWORDS:
            seen.setdefault(tok)
    return list(seen)


@dataclass
class CandidateIndex:
    accessions: list[str]
    token_postings: dict[str, np.ndarray]
    author_postings: dict[str, np.ndarray]
    idf: dict[str, float]
    table: ScoringTable

    def ordinals(self, accessions: list[str]) -> list[int]:
        """The ordinals of indexed accessions."""
        return [bisect_left(self.accessions, a) for a in accessions]


def _as_postings(lists: dict[str, list[int]]) -> dict[str, np.ndarray]:
    return {key: np.array(ords, dtype=np.int64) for key, ords in lists.items()}


def build_index(store: CorpusStore) -> CandidateIndex:
    accessions = sorted(store.published)
    token_lists: dict[str, list[int]] = {}
    author_lists: dict[str, list[int]] = {}
    records = [store.published[accession] for accession in accessions]
    for ordinal, rec in enumerate(records):
        for tok in title_tokens(rec.title):
            token_lists.setdefault(tok, []).append(ordinal)
        for fam in sorted(family_set(rec.authors)):
            author_lists.setdefault(fam, []).append(ordinal)
    n = len(accessions)
    idf = {tok: math.log(1.0 + n / len(ords)) for tok, ords in token_lists.items()}
    return CandidateIndex(
        accessions=accessions,
        token_postings=_as_postings(token_lists),
        author_postings=_as_postings(author_lists),
        idf=idf,
        table=ScoringTable(records),
    )


def query_candidates(index: CandidateIndex, p: PreprintRecord,
                     k: int = DEFAULT_K) -> list[str]:
    """Top-k accessions by blocking score; only strictly positive scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    postings: list[np.ndarray] = []
    weights: list[float] = []
    for tok in title_tokens(p.title):
        ords = index.token_postings.get(tok)
        if ords is not None:
            postings.append(ords)
            weights.append(index.idf[tok])
    for fam in sorted(family_set(p.authors)):
        ords = index.author_postings.get(fam)
        if ords is not None:
            postings.append(ords)
            weights.append(AUTHOR_BOOST)
    if not postings:
        return []
    w = np.repeat(weights, [len(ords) for ords in postings])
    scores = np.bincount(np.concatenate(postings), weights=w,
                         minlength=len(index.accessions))
    hits = np.flatnonzero(scores > 0.0)
    scores = scores[hits]
    if len(hits) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        hits, scores = hits[keep], scores[keep]
    order = np.lexsort((hits, -scores))[:k]
    return [index.accessions[i] for i in hits[order].tolist()]
