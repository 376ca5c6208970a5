from __future__ import annotations

import math
import uuid
from collections import Counter
from collections.abc import Collection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch import _kernels, similarity
from arxmatch.candidates import build_index, query_candidates
from arxmatch.forest import ForestModel
from arxmatch.matcher import match_by_classifier
from arxmatch.normalize import normalize_text, split_authors
from arxmatch.similarity import (
    NEUTRAL_ABSTRACT_DISTANCE,
    FeatureVector,
    ScoringTable,
    family_set,
    feature_vector,
    feature_vector_projected,
    project,
)

from conftest import make_preprint, make_published, score_records, store_with


def nt(s: str) -> str:
    return normalize_text(s)


def edit_distance_oracle(a: str, b: str) -> int:
    """Textbook full-matrix DP."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n][m]


def scored(title_a="", title_b="", authors_a=(), authors_b=(),
           abstract_a=None, abstract_b=None) -> FeatureVector:
    """The vector of one pair, through project and feature_vector_projected."""
    table = ScoringTable([])
    [v] = feature_vector_projected(table, project(title_a, authors_a, abstract_a, table.vocab),
                                   [project(title_b, authors_b, abstract_b, table.vocab)])
    return v


def title_oracle(a: str, b: str) -> float:
    """The DP edit distance scaled by the longer string; 0 for two empties."""
    return edit_distance_oracle(a, b) / max(len(a), len(b)) if (a or b) else 0.0


def jaccard_oracle(a, b) -> float:
    """1 - set Jaccard over the non-empty normalized family names."""
    fa = {normalize_text(n.family) for n in a} - {""}
    fb = {normalize_text(n.family) for n in b} - {""}
    return 1.0 - len(fa & fb) / len(fa | fb) if (fa or fb) else 0.0


def levenshtein_each(a: str, bs: list[str]) -> list[int]:
    """The packed kernel on strings: distance from a to each of bs."""
    codes = [_kernels.str_to_codes(b) for b in bs]
    ends = np.cumsum([c.size for c in codes], dtype=np.int64)
    b = np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64)
    return _kernels.levenshtein(_kernels.str_to_codes(a), b, ends)


class TestTitleDistance:
    def test_identity(self):
        assert scored("abc", "abc").title_d == 0.0

    def test_single_substitution(self):
        assert scored("abc", "abd").title_d == pytest.approx(1 / 3)
        assert edit_distance_oracle("abc", "abd") == 1

    def test_empty_vs_full(self):
        assert scored("", "xyz").title_d == 1.0

    def test_both_empty(self):
        assert scored("", "").title_d == 0.0

    def test_against_dp_oracle(self):
        # batches of 1-5 titles, so each batch is one joined encode
        rng = np.random.default_rng(7)
        alphabet = list("abcdef -")
        for _ in range(100):
            a = "".join(rng.choice(alphabet, rng.integers(0, 25)))
            bs = ["".join(rng.choice(alphabet, rng.integers(0, 25)))
                  for _ in range(int(rng.integers(1, 6)))]
            table = ScoringTable([])
            got = feature_vector_projected(table, project(a, (), None, table.vocab),
                                           [project(b, (), None, table.vocab) for b in bs])
            assert [v.title_d for v in got] == [title_oracle(nt(a), nt(b)) for b in bs]

    def test_kernel_vs_dp_oracle_long_unicode(self):
        # lengths up to 300 make the bit-parallel column several machine
        # words wide; non-BMP letters, combining marks and runs of one
        # character exercise the pattern masks
        rng = np.random.default_rng(9)
        alphabet = list("abc xyz-") + ["𝔸", "𝔹", "\u0301", "\u0308", "é", "數", "ß"]
        for _ in range(500):
            # one length in four spans 0-300, the rest 0-120 (one word boundary)
            n = int(rng.integers(0, 301 if rng.random() < 0.25 else 121))
            a = "".join(rng.choice(alphabet, n))
            bs = []
            for _ in range(int(rng.integers(1, 8))):  # 2,000 pairs on average
                m = int(rng.integers(0, 301 if rng.random() < 0.25 else 121))
                if rng.random() < 0.5:  # a near copy: long runs of matches
                    b = "".join(c for c in a if rng.random() < 0.9)[:m]
                else:
                    b = "".join(rng.choice(alphabet, m))
                if rng.random() < 0.2:
                    b += str(rng.choice(alphabet)) * int(rng.integers(1, 80))
                bs.append(b)
            got = levenshtein_each(a, bs)
            assert got == [edit_distance_oracle(a, b) for b in bs], (a, bs)

    def test_kernel_vs_dp_oracle_on_candidate_titles(self, corpus_store, corpus_index):
        pairs = 0
        for p in list(corpus_store.preprints.values())[:50]:
            a = normalize_text(p.title)
            bs = [normalize_text(corpus_store.published[accession].title)
                  for accession in query_candidates(corpus_index, p)]
            assert levenshtein_each(a, bs) == [edit_distance_oracle(a, b) for b in bs], a
            pairs += len(bs)
        assert pairs > 50

    def test_monotone_degradation(self):
        # fresh sentinel substitutions at distinct positions: distance must
        # grow by exactly 1/len per edit (checked against the DP oracle)
        rng = np.random.default_rng(8)
        sentinels = "0123456789"
        for _ in range(50):
            length = int(rng.integers(5, 30))
            s = "".join(rng.choice(list("abcdefgh"), length))
            edited = list(s)
            positions = rng.permutation(length)[:min(10, length)]
            prev = 0.0
            for k, pos in enumerate(positions, 1):
                edited[pos] = sentinels[(k - 1) % 10]
                cur = scored(s, "".join(edited)).title_d
                assert cur >= prev
                assert edit_distance_oracle(s, "".join(edited)) == k
                prev = cur


class TestAuthorDistance:
    def _names(self, *raw):
        return [split_authors(r)[0] for r in raw]

    def _distance(self, a, b) -> float:
        return scored(authors_a=a, authors_b=b).author_d

    def test_identity(self):
        a = self._names("Jane Doe")
        assert self._distance(a, a) == 0.0

    def test_half_overlap(self):
        a = self._names("Jane Doe", "John Roe")
        b = self._names("Jane Doe")
        assert self._distance(a, b) == 0.5

    def test_disjoint(self):
        assert self._distance(self._names("Jane Doe"), self._names("Al Smith")) == 1.0

    def test_both_empty(self):
        assert self._distance([], []) == 0.0

    def test_one_empty(self):
        assert self._distance([], self._names("Jane Doe")) == 1.0

    def test_case_and_diacritics_fold(self):
        assert self._distance(self._names("Ana Núñez"), self._names("ana nunez")) == 0.0


def abstract_d(a: str, b: str) -> float:
    return scored(abstract_a=a, abstract_b=b).abstract_d


class TestAbstractDistance:
    def test_identical(self):
        assert abstract_d("we study things", "we study things") == 0.0

    def test_disjoint_tokens(self):
        assert abstract_d("alpha beta", "gamma delta") == 1.0

    def test_half_cosine(self):
        # hand-computed: dot=1, |a|=|b|=sqrt(2) -> cos=1/2
        assert abstract_d("a b", "a c") == 0.5

    def test_neutral_when_missing(self):
        assert abstract_d("", "something") == NEUTRAL_ABSTRACT_DISTANCE
        assert abstract_d("something", "") == NEUTRAL_ABSTRACT_DISTANCE
        assert abstract_d("something", None) == NEUTRAL_ABSTRACT_DISTANCE

    def test_brute_force_cosine_oracle(self):
        rng = np.random.default_rng(9)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(200):
            a = " ".join(rng.choice(vocab, rng.integers(1, 30)))
            b = " ".join(rng.choice(vocab, rng.integers(1, 30)))
            got = abstract_d(a, b)
            ca: dict[str, int] = {}
            cb: dict[str, int] = {}
            for t in a.split():
                ca[t] = ca.get(t, 0) + 1
            for t in b.split():
                cb[t] = cb.get(t, 0) + 1
            dot = sum(ca[t] * cb.get(t, 0) for t in ca)
            na = sum(v * v for v in ca.values()) ** 0.5
            nb = sum(v * v for v in cb.values()) ** 0.5
            want = 1.0 - dot / (na * nb)
            assert got == pytest.approx(max(0.0, min(1.0, want)), abs=1e-12)


def cosine_oracle(a: str, b: str) -> float:
    """The abstract distance from integer token counts: the dot product over the
    union of tokens, then the cosine formula with its exact 0 and 1 cases."""
    if not a or not b:
        return NEUTRAL_ABSTRACT_DISTANCE
    ca = {t: a.split().count(t) for t in a.split()}
    cb = {t: b.split().count(t) for t in b.split()}
    dot = sum(ca.get(t, 0) * cb.get(t, 0) for t in set(ca) | set(cb))
    sq_a = sum(n * n for n in ca.values())
    sq_b = sum(n * n for n in cb.values())
    if dot == 0:
        return 1.0
    if dot * dot == sq_a * sq_b:
        return 0.0
    return min(1.0, max(0.0, 1.0 - dot / math.sqrt(sq_a * sq_b)))


ABSTRACT = st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "w4", "w5"]),
                    max_size=40).map(" ".join)


class TestAbstractDistanceOracle:
    @given(ABSTRACT, ABSTRACT)
    @settings(max_examples=500, deadline=None)
    def test_equals_integer_count_oracle(self, a, b):
        assert abstract_d(a, b) == cosine_oracle(a, b)

    def test_equals_oracle_on_candidate_abstracts(self, corpus_store, corpus_index):
        pairs = 0
        for p in list(corpus_store.preprints.values())[:100]:
            a = normalize_text(p.abstract)
            ranked = query_candidates(corpus_index, p)
            cs = [corpus_store.published[acc] for acc in ranked]
            vectors = feature_vector(corpus_index.table, p, corpus_index.ordinals(ranked))
            for v, c in zip(vectors, cs):
                b = normalize_text(c.abstract or "")
                assert v.abstract_d == cosine_oracle(a, b), (a, b)
                pairs += 1
        assert pairs > 100

    def test_projection_grows_no_module_state(self):
        def sizes():
            return {name: len(value) for name, value in vars(similarity).items()
                    if isinstance(value, Collection) and not isinstance(value, str)}

        before = sizes()
        for _ in range(20):
            fresh = " ".join(uuid.uuid4().hex for _ in range(5))
            project(f"On {fresh}", split_authors("Jane Doe"), f"We study {fresh}.", {})
            p = make_preprint(title=f"On {fresh}", abstract=f"We study {fresh}.")
            feature_vector(ScoringTable([make_published(title=f"On {fresh}")]), p, [0])
        assert sizes() == before

    def test_indexes_share_no_vocabulary(self):
        fresh = uuid.uuid4().hex
        store = store_with([], [make_published(abstract=f"On {fresh} flows.")])
        first, second = build_index(store), build_index(store)
        assert first.table.vocab is not second.table.vocab
        p = make_preprint(abstract=f"{fresh} flows again.")
        assert feature_vector(first.table, p, [0]) == feature_vector(second.table, p, [0])
        assert fresh in first.table.vocab and fresh in second.table.vocab
        third = build_index(store)
        assert third.table.vocab == {}

    def test_query_fills_at_most_k_plus_one_rows(self, corpus_store, monkeypatch):
        # a query fills its preprint's row and its candidates' missing rows,
        # and a candidate's row, once filled, serves every later query
        index = build_index(corpus_store)
        model = ForestModel(trees=[[{"leaf": 1.0}]], n_trees=1, max_depth=1, seed=0)
        fills = []

        def counting(*args):
            fills.append(args)
            return project(*args)

        monkeypatch.setattr(similarity, "project", counting)
        k = 5
        reached: set[str] = set()
        for pid in sorted(corpus_store.preprints)[:20]:
            p = corpus_store.preprints[pid]
            fills.clear()
            match_by_classifier(p, index, model, k)
            ranked = query_candidates(index, p, k)
            assert 1 <= len(fills) <= k + 1
            assert len(fills) == 1 + len(set(ranked) - reached)
            reached.update(ranked)
        assert len(reached) > k


def tf_oracle(text: str):
    """The pairwise TF vector: a ``{token: count}`` dict and its integer
    squared norm; None stands for a missing abstract."""
    if not text:
        return None
    counts = Counter(text.split())
    return counts, sum(n * n for n in counts.values())


def dict_dot(a: dict[str, int], b: dict[str, int]) -> int:
    """The pairwise dot product of two ``{token: count}`` dicts."""
    if len(a) > len(b):
        a, b = b, a
    return sum(n * b.get(tok, 0) for tok, n in a.items())


def jaccard_pair_oracle(fa: frozenset[str], fb: frozenset[str]) -> float:
    """The pairwise author distance over two family-name sets."""
    if not fa and not fb:
        return 0.0
    if not fa or not fb:
        return 1.0
    return 1.0 - len(fa & fb) / len(fa | fb)


def cosine_pair_oracle(va, vb) -> float:
    """The pairwise abstract distance over two tf_oracle vectors."""
    if va is None or vb is None:
        return NEUTRAL_ABSTRACT_DISTANCE
    (counts_a, sq_a), (counts_b, sq_b) = va, vb
    dot = dict_dot(counts_a, counts_b)
    if dot * dot == sq_a * sq_b:
        return 0.0
    cos = dot / math.sqrt(sq_a * sq_b)
    return min(1.0, max(0.0, 1.0 - cos))


def pair_oracle_hex(p, c) -> tuple[str, str, str]:
    """The vector of one (preprint, published) pair from the pairwise
    oracles, as float.hex strings."""
    def tf(abstract):
        return tf_oracle(normalize_text(abstract)) if abstract else None

    return (title_oracle(nt(p.title), nt(c.title)).hex(),
            jaccard_pair_oracle(family_set(p.authors), family_set(c.authors)).hex(),
            cosine_pair_oracle(tf(p.abstract), tf(c.abstract)).hex())


def as_hex(v: FeatureVector) -> tuple[str, str, str]:
    return tuple(x.hex() for x in v)


# "{}" and "--" normalize to no family name at all
NAMES = st.sampled_from(["Jane Doe", "John Roe", "Ana Núñez", "ana nunez", "Al Smith",
                         "Jan van-der-Berg", "Jan van der Berg", "{}", "--", "$x$"])
BYLINES = st.lists(NAMES, min_size=1, max_size=3).map(tuple)
WORDS = st.sampled_from(["w0", "w1", "W1", "w2", "flow", "x-y", "x--y", "-", "--",
                         "–", "—", "{}", "$a$", "nuñez", "nun\u0303ez"])
TEXT = st.lists(WORDS, max_size=30).map(" ".join)
# missing, empty and normalize-to-empty abstracts, and one 10**5-fold token
ABSTRACTS = st.one_of(TEXT, st.sampled_from(["", "{} -- $ $", "w1 " * 10**5]))
TITLES = st.lists(WORDS, min_size=1, max_size=8).map(" ".join).filter(str.strip)


@st.composite
def scoring_case(draw):
    """Published records over a table, and two preprints scored through it
    in turn, so the second meets a vocabulary the first has grown."""
    published = [make_published(accession=f"zbl{i}", title=draw(TITLES),
                                authors=draw(BYLINES),
                                abstract=draw(st.one_of(st.none(), ABSTRACTS)))
                 for i in range(draw(st.integers(1, 5)))]
    preprints = [make_preprint(title=draw(TITLES),
                               authors=draw(BYLINES), abstract=draw(ABSTRACTS))
                 for _ in range(2)]
    ordinals = [draw(st.lists(st.integers(0, len(published) - 1), min_size=1, max_size=6))
                for _ in preprints]
    return published, preprints, ordinals


class TestTableAgainstPairwiseOracles:
    """The table's array scores equal the pairwise set and dict functions
    bit for bit."""

    @given(scoring_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_pairwise_oracles(self, case):
        published, preprints, ordinals = case
        table = ScoringTable(published)
        for p, ords in zip(preprints, ordinals):
            got = feature_vector(table, p, ords)
            assert [as_hex(v) for v in got] == \
                [pair_oracle_hex(p, published[o]) for o in ords]

    def test_repeated_token(self):
        # 10**5 copies of one token: counts, squares and the dot stay exact
        many = "zeta " * 10**5
        p = make_preprint(abstract=many + "flow")
        cs = [make_published(accession=f"zbl{i}", abstract=abstract)
              for i, abstract in enumerate([many, many + many + "flow", "zeta flow",
                                            "flow " * 10**5, None, ""])]
        got = score_records(p, cs)
        assert [as_hex(v) for v in got] == [pair_oracle_hex(p, c) for c in cs]
        assert got[4].abstract_d == got[5].abstract_d == NEUTRAL_ABSTRACT_DISTANCE

    def test_empty_family_sets(self):
        # a byline whose names all normalize to nothing has no family name
        p = make_preprint(authors=("{}",))
        cs = [make_published(accession="zbl1", authors=("--", "$ $")),
              make_published(accession="zbl2", authors=("{}",)),
              make_published(accession="zbl3", authors=("Jane Doe", "{}"))]
        assert family_set(p.authors) == frozenset()
        got = score_records(p, cs)
        assert [v.author_d for v in got] == [0.0, 0.0, 1.0]
        assert [as_hex(v) for v in got] == [pair_oracle_hex(p, c) for c in cs]

    def test_token_total_bound(self, monkeypatch):
        # the kernel's int64 sums are exact only below the bound
        monkeypatch.setattr(similarity, "TOKEN_TOTAL_LIMIT", 3)
        assert project("t", (), "a b", {}).sq == 2
        with pytest.raises(OverflowError):
            project("t", (), "a b a", {})

    def test_tokens_new_to_the_vocabulary(self):
        table = ScoringTable([make_published(abstract="known words here")])
        p = make_preprint(abstract="known unseen words unseen")
        [v] = feature_vector(table, p, [0])
        assert {"unseen", "known"} <= set(table.vocab)
        assert as_hex(v) == pair_oracle_hex(p, table.records[0])

    @pytest.mark.parametrize("text", [
        "self-similar sets", "self--similar sets", "self–similar sets",
        "self—similar sets", "self - similar sets", "self -- similar sets",
        "– — - --", "-self-similar- sets--", "self–-—similar sets",
        "x-y x–y x—y x--y", "- only", "—",
    ])
    def test_dashes(self, text):
        # every dash form normalizes to one hyphen inside a token and drops
        # out as a token of its own; the table scores the normalized text
        p = make_preprint(title="On " + text, abstract=text)
        cs = [make_published(accession=f"zbl{i}", title=t, abstract=t)
              for i, t in enumerate(["On self-similar sets", "On self similar sets",
                                     "self–similar sets x-y", "On -- —", "On x-y"])]
        got = score_records(p, cs)
        assert [as_hex(v) for v in got] == [pair_oracle_hex(p, c) for c in cs]


class TestFeatureVector:
    def test_identical_metadata(self):
        p = make_preprint()
        c = make_published()
        assert score_records(p, [c]) == [FeatureVector(0.0, 0.0, 0.0)]

    def test_missing_abstract_neutral(self):
        p = make_preprint()
        c = make_published(abstract=None)
        assert score_records(p, [c]) == [FeatureVector(0.0, 0.0, 0.5)]

    def test_unrelated_records(self):
        p = make_preprint(title="On elliptic curves over finite fields",
                          authors=("Jane Doe",),
                          abstract="We count points on curves.")
        c = make_published(title="Spectral gaps of random graph Laplacians",
                           authors=("Al Smith",),
                           abstract="Expansion properties of sparse matrices.")
        [v] = score_records(p, [c])
        assert v.title_d >= 0.7 and v.author_d == 1.0 and v.abstract_d >= 0.9

    def test_author_order_invariant(self):
        p1 = make_preprint(authors=("Jane Doe", "John Roe"))
        p2 = make_preprint(authors=("John Roe", "Jane Doe"))
        c = make_published(authors=("Jane Doe", "John Roe"))
        assert score_records(p1, [c]) == score_records(p2, [c])

    @staticmethod
    def _check_against_oracles(p, cs):
        vectors = score_records(p, cs)
        assert len(vectors) == len(cs)
        for v, c in zip(vectors, cs):
            assert v.title_d == title_oracle(nt(p.title), nt(c.title)), c.title
            assert v.author_d == jaccard_oracle(p.authors, c.authors)
            assert v.abstract_d == cosine_oracle(nt(p.abstract), nt(c.abstract or ""))

    def test_projected_path_matches_plain(self):
        rng = np.random.default_rng(10)
        words = ["zeta", "curve", "group", "flow", "bound", "sharp"]
        people = ["Jane Doe", "John Roe", "Ana Núñez", "Al Smith"]
        for _ in range(50):
            p = make_preprint(
                title=" ".join(rng.choice(words, 4)),
                authors=tuple(map(str, rng.choice(people, rng.integers(1, 4)))),
                abstract=" ".join(rng.choice(words, 12)) if rng.random() < 0.8 else "",
            )
            cs = [make_published(
                accession=f"zbl{i}",
                title=" ".join(rng.choice(words, rng.integers(1, 6))),
                authors=tuple(map(str, rng.choice(people, rng.integers(1, 4)))),
                abstract=" ".join(rng.choice(words, 12)) if rng.random() < 0.8 else None,
            ) for i in range(int(rng.integers(1, 6)))]
            self._check_against_oracles(p, cs)

    def test_batch_of_empty_and_astral_titles(self):
        # the batch's titles are encoded as one string and cut by their code
        # point counts. "{}" normalizes to an empty title; NFKD folds the
        # double-struck F of "𝔽_q-points" to "f", so the batch also holds
        # titles whose astral-plane CJK letters survive normalization
        p = make_preprint(title="Points of 𠀀𠁁 over 𝔽_q")
        titles = ["{}", "𝔽_q-points", "𠀀𠁁-points", "{}", "On 𠀀 curves",
                  "points of 𠀀𠁁 over fq"]
        cs = [make_published(accession=f"zbl{i}", title=t) for i, t in enumerate(titles)]
        assert [nt(c.title) for c in cs][:3] == ["", "fq-points", "𠀀𠁁-points"]
        self._check_against_oracles(p, cs)
        assert score_records(p, cs)[-1].title_d == 0.0


vectors = st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)) \
    .map(lambda t: FeatureVector(*t))


class TestLexCompare:
    """FeatureVector compares lexicographically; the matcher breaks
    probability ties among positives with this order."""

    def test_first_component_decides(self):
        assert FeatureVector(0, 1, 1) < FeatureVector(0.1, 0, 0)

    def test_equal(self):
        u, v = FeatureVector(0, 0, 0), FeatureVector(0, 0, 0)
        assert u == v and not u < v and not v < u

    def test_third_component_decides(self):
        assert FeatureVector(0.2, 0.1, 0) < FeatureVector(0.2, 0.1, 0.3)

    @given(vectors, vectors)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric(self, u, v):
        assert (u < v) == (v > u)
        assert not (u < v and v < u)

    @given(vectors, vectors, vectors)
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, u, v, w):
        if u <= v and v <= w:
            assert u <= w


norm_text = st.text(alphabet="abcde -", max_size=20).map(
    lambda s: normalize_text(s))


class TestDistanceProperties:
    @given(norm_text, norm_text)
    @settings(max_examples=200, deadline=None)
    def test_title_symmetric_bounded(self, a, b):
        d = scored(a, b).title_d
        assert 0.0 <= d <= 1.0
        assert d == scored(b, a).title_d
        assert scored(a, a).title_d == 0.0

    @given(norm_text, norm_text)
    @settings(max_examples=200, deadline=None)
    def test_abstract_symmetric_bounded(self, a, b):
        d = abstract_d(a, b)
        assert 0.0 <= d <= 1.0
        assert d == abstract_d(b, a)
        assert abstract_d(a, a) in (0.0, NEUTRAL_ABSTRACT_DISTANCE)
