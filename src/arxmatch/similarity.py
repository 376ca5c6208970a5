"""Title/author/abstract distances and the three-component feature vector.

All three distances live in [0, 1] with 0 meaning identical. The matcher
picks the positive candidate the forest finds most probable and breaks
ties by lexicographic order over the vector (title, authors, abstract),
so FeatureVector is an ordered named tuple.

Metric choices: character-level Levenshtein scaled by the longer string
(title), one minus Jaccard overlap of normalized family names (authors),
and one minus the cosine of term-frequency vectors (abstract). A missing
abstract contributes the neutral value 0.5 so absence neither fakes
agreement nor vetoes a match.

Pairs are scored in batches of projections, each a record's normalized
text: ``feature_vector_projected`` encodes the one title and the joined
titles of the list to code points once each, computes every title
distance in one call of the lane-packed Levenshtein kernel, then the
author and abstract distances pair by pair. The matcher passes one
preprint's ranked candidates, training one preprint's positive and its
negatives.

A TF vector is a ``{token: count}`` dict and its integer squared norm.
Tokens are ``sys.intern``ed, so abstracts that share a token share its
string, and no table here grows with the corpus.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import _kernels
from .corpus import PreprintRecord, PublishedRecord
from .normalize import normalize_text

NEUTRAL_ABSTRACT_DISTANCE = 0.5


class FeatureVector(NamedTuple):
    title_d: float
    author_d: float
    abstract_d: float


def family_set(authors) -> frozenset[str]:
    """The non-empty normalized family names of a list of AuthorName."""
    return frozenset(name.key[0] for name in authors if name.key[0])


TFVector = tuple[dict[str, int], int]


def _tf_vector(text: str) -> TFVector | None:
    """TF vector of a non-empty text; None stands for a missing abstract."""
    if not text:
        return None
    counts = Counter(map(sys.intern, text.split()))
    return counts, sum(n * n for n in counts.values())


def _edit_distances(a: str, bs: list[str]) -> list[float]:
    """Levenshtein from a to each of bs, scaled by the longer string, in
    one kernel call; two empty strings are at distance 0. bs is encoded
    joined and cut at each ``len``: one code point, one UTF-32 unit."""
    lens = [len(b) for b in bs]
    dists = _kernels.levenshtein(_kernels.str_to_codes(a),
                                 _kernels.str_to_codes("".join(bs)),
                                 np.cumsum(lens, dtype=np.int64))
    return [d / max(len(a), m) if d else 0.0 for d, m in zip(dists, lens)]


def _jaccard_distance(fa: frozenset[str], fb: frozenset[str]) -> float:
    if not fa and not fb:
        return 0.0
    if not fa or not fb:
        return 1.0
    return 1.0 - len(fa & fb) / len(fa | fb)


def _cosine_distance(va: TFVector | None, vb: TFVector | None) -> float:
    if va is None or vb is None:
        return NEUTRAL_ABSTRACT_DISTANCE
    (counts_a, sq_a), (counts_b, sq_b) = va, vb
    dot = _kernels.sorted_dot(counts_a, counts_b)
    if dot * dot == sq_a * sq_b:  # proportional vectors: cosine exactly 1
        return 0.0
    cos = dot / math.sqrt(sq_a * sq_b)
    return min(1.0, max(0.0, 1.0 - cos))


class RecordProjection(NamedTuple):
    """One record's normalized text, reused across pairings: the title as
    a string (encoded with its batch), family names and abstract TF."""

    title: str
    families: frozenset[str]
    abstract_vec: TFVector | None


def project(title: str, authors, abstract: str | None) -> RecordProjection:
    return RecordProjection(
        title=normalize_text(title),
        families=family_set(authors),
        abstract_vec=_tf_vector(normalize_text(abstract)) if abstract else None,
    )


def feature_vector_projected(a: RecordProjection,
                             bs: list[RecordProjection]) -> list[FeatureVector]:
    """The (title, authors, abstract) distance vector of a paired with each
    of bs, in order; one kernel call scores all the titles."""
    titles = _edit_distances(a.title, [b.title for b in bs])
    return [
        FeatureVector(title_d,
                      _jaccard_distance(a.families, b.families),
                      _cosine_distance(a.abstract_vec, b.abstract_vec))
        for title_d, b in zip(titles, bs)
    ]


def feature_vector(p: PreprintRecord, cs: list[PublishedRecord]) -> list[FeatureVector]:
    """feature_vector_projected over the records' projections."""
    return feature_vector_projected(projection(p), [projection(c) for c in cs])


# records are frozen, so a projection stays valid for the record's lifetime
_PROJECTIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def projection(rec: PreprintRecord | PublishedRecord) -> RecordProjection:
    """The record's projection, computed once per record."""
    proj = _PROJECTIONS.get(rec)
    if proj is None:
        proj = _PROJECTIONS[rec] = project(rec.title, rec.authors, rec.abstract)
    return proj
