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
holds the rows of a mapping of published records by accession and owns
their vocabulary; a row is filled the first time a batch scores its
record. The candidate index keeps one table over the whole published
corpus, so no table here is module state.

``feature_vector_projected`` scores a chunk: several query rows, each
against its list of rows. All the titles of the chunk are encoded over
the chunk's own alphabet at once and scored in one call of the run
Levenshtein kernel, a lane per pair with the query title as the
pattern. Per query, the family intersection sizes and abstract dot
products come from one call of the ``sorted_dot`` kernel over the
concatenated rows, two segments per row; the kernel writes the query's
counts into a dense lookup by key, which the table keeps all-zero
between calls, so a query costs the length of its rows and not the size
of the vocabulary. The title and Jaccard columns are numpy divisions of
those exact integers, and each cosine runs on Python ints (a product of
two squared norms can pass 2**63): the same float operations as
comparing two name sets and two ``{token: count}`` dicts, so every
distance is bit-identical to a pair-by-pair computation, whatever the
chunk. The matcher and ``eval`` pass preprints with their ranked
candidates, training each preprint with its positive and its negatives,
``chunked`` into about CHUNK_PAIRS pairs a call: enough lanes that the
title kernel's per-position cost is shared by thousands of pairs, and a
bound on its arrays however many candidates a query keeps.

Abstracts are tokenized through ``normalize_tokens``, the pipeline that
``normalize_text`` joins with spaces: each is normalized once per record,
so caching them would only crowd the titles and names out of the
``normalize_text`` cache, and counting its token list directly saves
splitting the joined form apart again.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

import numpy as np

from . import _kernels
from .corpus import PreprintRecord, PublishedRecord
from .normalize import normalize_text, normalize_tokens

NEUTRAL_ABSTRACT_DISTANCE = 0.5
# an abstract's token total below this keeps every count, product and
# dot of the sorted_dot kernel below 2**62
TOKEN_TOTAL_LIMIT = 1 << 31
# pairs per call of feature_vector_projected, about: enough lanes that the
# title kernel's per-position cost is shared, few enough to bound its arrays
CHUNK_PAIRS = 4096


def chunked(batches: Iterable[tuple]) -> Iterator[list[tuple]]:
    """(key, candidates) batches in order, grouped into chunks of at least
    CHUNK_PAIRS candidates; the last chunk may hold fewer."""
    chunk: list[tuple] = []
    pairs = 0
    for batch in batches:
        chunk.append(batch)
        pairs += len(batch[1])
        if pairs >= CHUNK_PAIRS:
            yield chunk
            chunk, pairs = [], 0
    if chunk:
        yield chunk


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
    keys = [-1 - vocab.setdefault(f, len(vocab)) for f in sorted(family_set(authors))]
    families = len(keys)
    tf = Counter(normalize_tokens(abstract)) if abstract else Counter()
    if tf.total() >= TOKEN_TOTAL_LIMIT:
        raise OverflowError(f"an abstract of {tf.total()} tokens is too long to score")
    keys += [vocab.setdefault(tok, len(vocab)) for tok in tf]
    terms = np.array((keys, [1] * families + list(tf.values())), dtype=np.int64)
    return Row(normalize_text(title), terms, families, sum(n * n for n in tf.values()))


class ScoringTable:
    """The rows of published records, by accession, over a vocabulary of
    the table's own. A row is filled the first time it is asked for, so
    a table built over a corpus normalizes only the abstracts that some
    batch scores. Query rows add their new names and tokens to the
    vocabulary too, so it grows with what was scored."""

    def __init__(self, records: Mapping[str, PublishedRecord]) -> None:
        self.records = records
        self.vocab: dict[str, int] = {}
        self._rows: dict[str, Row] = {}
        self._lookup = np.zeros(0, dtype=np.int64)

    def rows(self, accessions: Iterable[str]) -> list[Row]:
        out = []
        for accession in accessions:
            row = self._rows.get(accession)
            if row is None:
                rec = self.records[accession]
                row = self._rows[accession] = project(rec.title, rec.authors,
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


def _title_distances(queries: list[str], titles: list[str],
                     owner: np.ndarray) -> np.ndarray:
    """Levenshtein from queries[owner[i]] to titles[i] for every i, scaled
    by the longer string, in one kernel call; two empty strings are at
    distance 0. The queries are the patterns and the titles the texts."""
    symbols, ends = _kernels.encode(queries + titles)
    cut = int(ends[len(queries) - 1])
    dists = _kernels.levenshtein(symbols[:cut], symbols[cut:], ends[:len(queries)],
                                 ends[len(queries):] - cut, owner)
    lens = np.diff(ends, prepend=0)
    return np.divide(dists, np.maximum(lens[owner], lens[len(queries):]),
                     out=np.zeros(len(titles)), where=dists > 0)


def _cosine_distance(dot: int, sq_a: int, sq_b: int) -> float:
    if not sq_a or not sq_b:
        return NEUTRAL_ABSTRACT_DISTANCE
    if dot * dot == sq_a * sq_b:  # proportional vectors: cosine exactly 1
        return 0.0
    cos = dot / math.sqrt(sq_a * sq_b)
    return min(1.0, max(0.0, 1.0 - cos))


def feature_vector_projected(table: ScoringTable, queries: list[Row],
                             rows: list[list[Row]]) -> np.ndarray:
    """The (k, 3) array of (title, authors, abstract) distances of each
    query row paired with each of its rows (at least one per query), in
    order, all over the table's vocabulary: one kernel call scores all
    the titles, and one per query all its name sets and abstracts."""
    flat = [b for bs in rows for b in bs]
    owner = np.repeat(np.arange(len(queries)), [len(bs) for bs in rows])
    lookup = table.lookup()
    sums = []
    for a, bs in zip(queries, rows):
        families = np.array([b.families for b in bs], dtype=np.int64)
        lengths = np.array([b.terms.shape[1] for b in bs], dtype=np.int64)
        # two segments per row: its family names, then its abstract tokens
        ends = np.cumsum(np.column_stack((families, lengths - families)))
        sums.append(_kernels.sorted_dot(lookup, a.terms,
                                        np.concatenate([b.terms for b in bs], axis=1),
                                        ends))
    shared, dots = np.concatenate(sums).reshape(-1, 2).T
    union = np.array([a.families for a in queries])[owner] \
        + np.array([b.families for b in flat]) - shared
    x = np.empty((len(flat), 3))
    x[:, 0] = _title_distances([a.title for a in queries], [b.title for b in flat], owner)
    x[:, 1] = 1.0 - np.divide(shared, union, out=np.ones(len(flat)), where=union > 0)
    x[:, 2] = [_cosine_distance(dot, queries[i].sq, b.sq)
               for dot, i, b in zip(dots.tolist(), owner.tolist(), flat)]
    return x


def feature_vector(table: ScoringTable, ps: list[PreprintRecord],
                   accessions: list[list[str]]) -> np.ndarray:
    """feature_vector_projected of each of ps against its accessions' records."""
    return feature_vector_projected(table, [table.query_row(p) for p in ps],
                                    [table.rows(accs) for accs in accessions])
