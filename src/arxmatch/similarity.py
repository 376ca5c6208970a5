"""Title/author/abstract distances and the three-component feature vector.

All three distances live in [0, 1] with 0 meaning identical. A batch of
pairs is scored into one (k, 3) float64 array, a row per pair, with the
columns in ``forest.FEATURE_NAMES`` order (title, authors, abstract);
that array goes on to the forest unchanged, in training and in matching.

Metric choices: character-level Levenshtein scaled by the longer string
(title), one minus Jaccard overlap of normalized family names (authors),
and one minus the cosine of term-frequency vectors (abstract). A missing
abstract contributes the neutral value 0.5 so absence neither fakes
agreement nor vetoes a match.

A record is scored through its ``Row``: the normalized title as text,
and its family names and abstract tokens as one (2, n) int64 array of
keys over counts, with ids from a vocabulary. A family name with id v
has key -1 - v and count 1, an abstract token key v and its count, and
the families come first; the row also carries the integer squared norm
of the abstract counts, 0 for a missing abstract. A ``ScoringTable``
holds the rows of a fixed list of published records by ordinal and owns
their vocabulary; a row is filled the first time a batch scores its
record. The candidate index keeps one table over the whole published
corpus, so no table here is module state.

``feature_vector_projected`` scores one row against a list of rows: the
titles are encoded to code points once per batch and scored in one call
of the lane-packed Levenshtein kernel, and the family intersection sizes
and abstract dot products come from one call of the ``sorted_dot``
kernel over the concatenated rows, two segments per row. The kernel
writes the one row's counts into a dense lookup by key, which the table
keeps all-zero between batches, so a batch costs the length of its rows
and not the size of the vocabulary. The title and Jaccard columns are
numpy divisions of those exact integers, and each cosine runs on Python
ints (a product of two squared norms can pass 2**63): the same float
operations as comparing two name sets and two ``{token: count}`` dicts,
so every distance is bit-identical to a pair-by-pair computation. The
matcher passes one preprint's ranked candidates, training one preprint's
positive and its negatives.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from . import _kernels
from .corpus import PreprintRecord, PublishedRecord
from .normalize import normalize_text

NEUTRAL_ABSTRACT_DISTANCE = 0.5
# an abstract's token total below this keeps every count, product and
# dot of the sorted_dot kernel below 2**62
TOKEN_TOTAL_LIMIT = 1 << 31


def family_set(authors) -> frozenset[str]:
    """The non-empty normalized family names of a list of AuthorName."""
    return frozenset(name.key[0] for name in authors if name.key[0])


class Row(NamedTuple):
    """One record's scoring row over a vocabulary."""

    title: str
    terms: np.ndarray  # (2, n) int64: unique keys over their counts
    families: int  # the first `families` keys are family names
    sq: int  # squared norm of the abstract counts; 0 for a missing abstract


def project(title: str, authors, abstract: str | None,
            vocab: dict[str, int]) -> Row:
    """The row of one record; names and tokens new to vocab get its next ids."""
    keys = [-1 - v for v in {vocab.setdefault(name.key[0], len(vocab))
                             for name in authors if name.key[0]}]
    families = len(keys)
    tf = Counter(normalize_text(abstract).split()) if abstract else Counter()
    if tf.total() >= TOKEN_TOTAL_LIMIT:
        raise OverflowError(f"an abstract of {tf.total()} tokens is too long to score")
    keys += [vocab.setdefault(tok, len(vocab)) for tok in tf]
    terms = np.array((keys, [1] * families + list(tf.values())), dtype=np.int64)
    return Row(normalize_text(title), terms, families, sum(n * n for n in tf.values()))


class ScoringTable:
    """The rows of a fixed list of published records, by ordinal, over a
    vocabulary of the table's own. A row is filled the first time it is
    asked for, so a table built over a corpus normalizes only the
    abstracts that some batch scores. Query rows add their new names and
    tokens to the vocabulary too, so it grows with what was scored."""

    def __init__(self, records: Sequence[PublishedRecord]) -> None:
        self.records = records
        self.vocab: dict[str, int] = {}
        self._rows: dict[int, Row] = {}
        self._lookup = np.zeros(0, dtype=np.int64)

    def rows(self, ordinals: Iterable[int]) -> list[Row]:
        out = []
        for ordinal in ordinals:
            row = self._rows.get(ordinal)
            if row is None:
                rec = self.records[ordinal]
                row = self._rows[ordinal] = project(rec.title, rec.authors,
                                                    rec.abstract, self.vocab)
            out.append(row)
        return out

    def query_row(self, p: PreprintRecord) -> Row:
        """p's row over the table's vocabulary; the table does not keep it."""
        return project(p.title, p.authors, p.abstract, self.vocab)

    def lookup(self) -> np.ndarray:
        """The all-zero scratch array of the dot kernel, long enough for
        every key of the vocabulary as it stands."""
        if self._lookup.size <= 2 * len(self.vocab):
            self._lookup = np.zeros(4 * len(self.vocab) + 2, dtype=np.int64)
        return self._lookup


def _edit_distances(a: str, bs: list[str]) -> np.ndarray:
    """Levenshtein from a to each of bs, scaled by the longer string, in
    one kernel call; two empty strings are at distance 0. bs is encoded
    joined and cut at each ``len``: one code point, one UTF-32 unit."""
    lens = np.array([len(b) for b in bs], dtype=np.int64)
    dists = np.array(_kernels.levenshtein(_kernels.str_to_codes(a),
                                          _kernels.str_to_codes("".join(bs)),
                                          np.cumsum(lens)), dtype=np.int64)
    return np.divide(dists, np.maximum(len(a), lens), out=np.zeros(len(bs)),
                     where=dists > 0)


def _cosine_distance(dot: int, sq_a: int, sq_b: int) -> float:
    if not sq_a or not sq_b:
        return NEUTRAL_ABSTRACT_DISTANCE
    if dot * dot == sq_a * sq_b:  # proportional vectors: cosine exactly 1
        return 0.0
    cos = dot / math.sqrt(sq_a * sq_b)
    return min(1.0, max(0.0, 1.0 - cos))


def feature_vector_projected(table: ScoringTable, a: Row,
                             bs: list[Row]) -> np.ndarray:
    """The (k, 3) array of (title, authors, abstract) distances of row a
    paired with each of bs (k >= 1), in order, all over the table's
    vocabulary: one kernel call scores all the titles, one all the name
    sets and abstracts."""
    families = np.array([b.families for b in bs], dtype=np.int64)
    lengths = np.array([b.terms.shape[1] for b in bs], dtype=np.int64)
    # two segments per row: its family names, then its abstract tokens
    ends = np.cumsum(np.column_stack((families, lengths - families)))
    sums = _kernels.sorted_dot(table.lookup(), a.terms,
                               np.concatenate([b.terms for b in bs], axis=1), ends)
    shared = sums[0::2]
    union = a.families + families - shared
    x = np.empty((len(bs), 3))
    x[:, 0] = _edit_distances(a.title, [b.title for b in bs])
    x[:, 1] = 1.0 - np.divide(shared, union, out=np.ones(len(bs)), where=union > 0)
    x[:, 2] = [_cosine_distance(dot, a.sq, b.sq)
               for dot, b in zip(sums[1::2].tolist(), bs)]
    return x


def feature_vector(table: ScoringTable, p: PreprintRecord,
                   ordinals: Iterable[int]) -> np.ndarray:
    """feature_vector_projected of p against the table's records at ordinals."""
    return feature_vector_projected(table, table.query_row(p), table.rows(ordinals))
