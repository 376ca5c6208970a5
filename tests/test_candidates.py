from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch.candidates import (
    AUTHOR_BOOST,
    build_index,
    load_stopwords,
    query_candidates,
    title_tokens,
)
from arxmatch.corpus import CorpusStore
from arxmatch.similarity import family_set

from conftest import make_preprint, make_published, score_records, store_with


def brute_force_rank(store: CorpusStore, p, k: int) -> list[str]:
    """Score every published record directly from its raw metadata."""
    n = len(store.published)
    df: dict[str, int] = {}
    record_tokens = {}
    record_fams = {}
    for acc, rec in store.published.items():
        toks = set(title_tokens(rec.title))
        record_tokens[acc] = toks
        record_fams[acc] = family_set(rec.authors)
        for t in toks:
            df[t] = df.get(t, 0) + 1
    q_tokens = title_tokens(p.title)
    q_fams = sorted(family_set(p.authors))
    scored = []
    for acc in store.published:
        s = 0.0
        for t in q_tokens:
            if t in record_tokens[acc]:
                s += math.log(1.0 + n / df[t])
        for f in q_fams:
            if f in record_fams[acc]:
                s += AUTHOR_BOOST
        if s > 0.0:
            scored.append((acc, s))
    scored.sort(key=lambda it: (-it[1], it[0]))
    return [acc for acc, _ in scored[:k]]


_DICT_SORT_INDEX: list = [None, None]


def _dict_sort_index(store: CorpusStore):
    """Dict-of-sets postings and IDF of `store`, kept for the last store seen
    so that one oracle index serves many queries; the store must not change
    between calls."""
    if _DICT_SORT_INDEX[0] is not store:
        token_postings: dict[str, set[str]] = {}
        author_postings: dict[str, set[str]] = {}
        for accession in sorted(store.published):
            rec = store.published[accession]
            for tok in title_tokens(rec.title):
                token_postings.setdefault(tok, set()).add(accession)
            for fam in sorted(family_set(rec.authors)):
                author_postings.setdefault(fam, set()).add(accession)
        n = len(store.published)
        idf = {tok: math.log(1.0 + n / len(accs))
               for tok, accs in token_postings.items()}
        _DICT_SORT_INDEX[:] = [store, (token_postings, author_postings, idf)]
    return _DICT_SORT_INDEX[1]


def dict_sort_rank(store: CorpusStore, p, k: int) -> list[str]:
    """The dict-and-sort query that the array query replaced: add every
    posting hit into a dict, then fully sort by (-score, accession)."""
    token_postings, author_postings, idf = _dict_sort_index(store)
    scores: dict[str, float] = {}
    for tok in title_tokens(p.title):
        postings = token_postings.get(tok)
        if not postings:
            continue
        w = idf[tok]
        for accession in postings:
            scores[accession] = scores.get(accession, 0.0) + w
    for fam in sorted(family_set(p.authors)):
        postings = author_postings.get(fam)
        if not postings:
            continue
        for accession in postings:
            scores[accession] = scores.get(accession, 0.0) + AUTHOR_BOOST
    ranked = sorted(
        (acc for acc, s in scores.items() if s > 0.0),
        key=lambda acc: (-scores[acc], acc),
    )
    return ranked[:k]


class TestBuildIndex:
    def test_empty_store(self):
        index = build_index(CorpusStore())
        assert index.accessions == []
        assert index.token_postings == {} and index.author_postings == {}

    def test_stopwords_absent(self):
        store = store_with([], [make_published(title="On Knots")])
        index = build_index(store)
        assert "knots" in index.token_postings
        assert "on" not in index.token_postings

    def test_shared_author_posting(self):
        store = store_with([], [
            make_published(accession="zbl2", authors=("John Doe",)),
            make_published(accession="zbl1", authors=("Jane Doe",)),
        ])
        index = build_index(store)
        assert index.accessions == ["zbl1", "zbl2"]
        assert [index.accessions[i] for i in index.author_postings["doe"]] == \
            ["zbl1", "zbl2"]

    def test_postings_are_increasing_ordinals(self, corpus_index):
        n = len(corpus_index.accessions)
        assert corpus_index.accessions == sorted(corpus_index.accessions)
        token_ords = [ords for _, ords in corpus_index.token_postings.values()]
        for postings in (token_ords, corpus_index.author_postings.values()):
            for ords in postings:
                assert ords.dtype == np.int64 and len(ords) > 0
                assert 0 <= ords[0] and ords[-1] < n
                assert np.all(np.diff(ords) > 0)

    def test_rebuild_identical(self):
        store = store_with([], [make_published(), make_published(accession="zbl2")])
        i1, i2 = build_index(store), build_index(store)
        assert i1.accessions == i2.accessions
        a, b = i1.author_postings, i2.author_postings
        assert list(a) == list(b)
        assert all(np.array_equal(a[key], b[key]) for key in a)
        a, b = i1.token_postings, i2.token_postings
        assert list(a) == list(b)
        assert all(a[key][0] == b[key][0] and np.array_equal(a[key][1], b[key][1])
                   for key in a)

    def test_token_posting_carries_smoothed_idf(self):
        store = store_with([], [make_published(accession=f"zbl{i}",
                                               title="Knots" if i else "Braids")
                                for i in range(4)])
        index = build_index(store)
        idf, ords = index.token_postings["knots"]
        assert idf == math.log(1.0 + 4 / 3)
        assert [index.accessions[i] for i in ords] == ["zbl1", "zbl2", "zbl3"]

    def test_stopword_list_has_thirty_words(self):
        assert len(load_stopwords()) == 30


class TestQueryCandidates:
    def test_exact_match_ranked_first(self):
        published = [make_published(accession=f"zbl{i:08d}",
                                    title=f"Completely unrelated topic {i}",
                                    authors=(f"Q{i} Stranger{i}",))
                     for i in range(5)]
        published.append(make_published(accession="zbl99999999",
                                        title="On Knot Invariants",
                                        authors=("Jane Doe",)))
        store = store_with([], published)
        index = build_index(store)
        p = make_preprint(title="On Knot Invariants", authors=("Jane Doe",))
        ranked = query_candidates(index, p, 20)
        assert ranked[0] == "zbl99999999"
        assert ranked == brute_force_rank(store, p, 20)

    def test_no_shared_signal_empty(self):
        store = store_with([], [make_published(title="Spectral graphs",
                                               authors=("Al Smith",))])
        index = build_index(store)
        p = make_preprint(title="Unrelated words entirely",
                          authors=("Jane Doe",))
        assert query_candidates(index, p, 20) == []

    def test_k_one_truncates_to_best(self):
        store = store_with([], [
            make_published(accession="zbl1", title="On Knot Invariants",
                           authors=("Jane Doe",)),
            make_published(accession="zbl2", title="On Knot Tables",
                           authors=("Al Smith",)),
        ])
        index = build_index(store)
        p = make_preprint(title="On Knot Invariants", authors=("Jane Doe",))
        result = query_candidates(index, p, 1)
        assert result == ["zbl1"]

    def test_k_validation(self):
        index = build_index(CorpusStore())
        with pytest.raises(ValueError):
            query_candidates(index, make_preprint(), 0)

    def test_determinism(self, corpus_store, corpus_index):
        p = corpus_store.preprints[sorted(corpus_store.preprints)[0]]
        r1 = query_candidates(corpus_index, p, 20)
        r2 = query_candidates(corpus_index, p, 20)
        assert r1 == r2


class TestOracleEquivalence:
    def test_small_corpus_exact(self):
        # deterministic mini corpus with deliberate token overlap
        rng = np.random.default_rng(13)
        words = ["zeta", "knot", "curve", "group", "flow", "sharp", "bound",
                 "random", "walk", "graph"]
        fams = ["Doe", "Roe", "Smith", "Moe", "Chen", "Kim"]
        published = []
        for i in range(120):
            title = "On " + " ".join(rng.choice(words, 4))
            authors = tuple(f"{g} {f}" for g, f in
                            zip(rng.choice(["A", "B", "C"], 2, replace=False),
                                rng.choice(fams, 2, replace=False)))
            published.append(make_published(accession=f"zbl{i:08d}",
                                            title=title, authors=authors))
        store = store_with([], published)
        index = build_index(store)
        for j in range(60):
            p = make_preprint(
                pid=f"2301.{j:05d}",
                title="On " + " ".join(rng.choice(words, 4)),
                authors=(f"A {rng.choice(fams)}",),
            )
            for k in (1, 5, 20):
                assert query_candidates(index, p, k) == \
                    brute_force_rank(store, p, k), f"query {j} k={k}"

    def test_committed_corpus_sample(self, corpus_store, corpus_index):
        # full-corpus brute force is quadratic; spot-check a sample exactly
        pids = sorted(corpus_store.preprints)[::97]
        for pid in pids:
            p = corpus_store.preprints[pid]
            assert query_candidates(corpus_index, p, 20) == \
                brute_force_rank(corpus_store, p, 20)


_WORDS = ("knot", "curve", "group", "flow", "graph", "zeta")
_FAMILIES = ("Doe", "Roe", "Kim")


@st.composite
def tie_heavy_case(draw):
    """A small store over a 4-6 word vocabulary and 3 family names, so many
    records share a score, plus a query that may repeat title words, use
    words no record has, or name a family no record has."""
    vocab = _WORDS[:draw(st.integers(4, 6))]
    numbers = draw(st.lists(st.integers(0, 999), min_size=1, max_size=14,
                            unique=True))
    published = []
    for number in numbers:
        words = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4))
        fams = draw(st.lists(st.sampled_from(_FAMILIES), min_size=1,
                             max_size=3, unique=True))
        published.append(make_published(
            accession=f"zbl{number:08d}", title=" ".join(words).title(),
            authors=tuple(f"A {fam}" for fam in fams)))
    words = draw(st.lists(st.sampled_from(vocab + ("on", "lemma")),
                          min_size=1, max_size=6))
    fams = draw(st.lists(st.sampled_from(_FAMILIES + ("Zed",)), min_size=1,
                         max_size=3, unique=True))
    p = make_preprint(title=" ".join(words),
                      authors=tuple(f"B {fam}" for fam in fams))
    return store_with([], published), p, draw(st.integers(1, 8))


class TestDictSortOracle:
    def test_corpus1000_every_preprint(self, corpus_store, corpus_index):
        for pid in sorted(corpus_store.preprints):
            p = corpus_store.preprints[pid]
            for k in (1, 2, 3, 4, 20, 50):
                assert query_candidates(corpus_index, p, k) == \
                    dict_sort_rank(corpus_store, p, k), f"{pid} k={k}"

    @given(tie_heavy_case())
    @settings(max_examples=300, deadline=None)
    def test_small_stores_with_ties(self, case):
        store, p, k = case
        assert query_candidates(build_index(store), p, k) == \
            dict_sort_rank(store, p, k)


class TestBlockingRecall:
    def test_true_counterpart_in_top20(self, corpus_store, corpus_index,
                                       corpus_truth):
        hits = 0
        total = 0
        for pid, accession in corpus_truth["pairs"].items():
            p = corpus_store.preprints[pid]
            c = corpus_store.published[accession]
            if score_records(p, [c])[0, 0] > 0.4:
                continue
            total += 1
            if accession in query_candidates(corpus_index, p, 20):
                hits += 1
        assert total > 900
        assert hits / total >= 0.99
