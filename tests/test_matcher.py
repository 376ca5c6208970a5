from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch import similarity
from arxmatch.candidates import build_index, query_candidates
from arxmatch.corpus import OUTCOME_CLASSIFIER, OUTCOME_DOI, OUTCOME_UNMATCHED
from arxmatch.forest import ForestModel, load_model
from arxmatch.matcher import (
    batch_match,
    build_naive_index,
    classify_preprints,
    match_by_classifier,
    match_by_doi,
    naive_match,
    pair_has_equal_title_authors,
    pick_positive,
)

from conftest import make_preprint, make_published, store_with

TS = "2024-01-01T00:00:00Z"


def title_stump_model(threshold=0.5) -> ForestModel:
    """Hand-built single tree: match iff title_d <= threshold."""
    tree = [{"feature": 0, "threshold": threshold, "left": 1, "right": 2},
            {"leaf": 1.0}, {"leaf": 0.0}]
    return ForestModel(trees=[tree], n_trees=1, max_depth=1, seed=0)


def always_match_model() -> ForestModel:
    return ForestModel(trees=[[{"leaf": 1.0}]], n_trees=1, max_depth=1, seed=0)


class TestMatchByDoi:
    def test_unique_hit(self):
        store = store_with([make_preprint(doi="10.1/a")],
                           [make_published(doi="10.1/a")])
        assert match_by_doi(store.preprints["2301.00001"], store) == "zbl00000001"

    def test_absent_doi(self):
        store = store_with([make_preprint()], [make_published(doi="10.1/a")])
        assert match_by_doi(store.preprints["2301.00001"], store) is None

    def test_multi_hit_falls_through(self):
        store = store_with(
            [make_preprint(doi="10.1/a")],
            [make_published(accession="zbl1", doi="10.1/a"),
             make_published(accession="zbl2", doi="10.1/a")],
        )
        assert match_by_doi(store.preprints["2301.00001"], store) is None

    def test_zero_hit_falls_through(self):
        store = store_with([make_preprint(doi="10.1/nowhere")],
                           [make_published(doi="10.1/a")])
        assert match_by_doi(store.preprints["2301.00001"], store) is None


class TestMatchByClassifier:
    def test_single_positive_candidate(self):
        store = store_with(
            [make_preprint(title="On Knot Invariants")],
            [make_published(accession="zbl1", title="On Knot Invariants",
                            authors=("Jane Doe",)),
             make_published(accession="zbl2", title="Galactic dust spectra",
                            authors=("Al Smith",))],
        )
        index = build_index(store)
        hit = match_by_classifier(store.preprints["2301.00001"], index,
                                  title_stump_model(), 20)
        assert hit is not None and hit[0] == "zbl1"

    def test_lexicographic_smallest_among_positives(self):
        # two candidates, both classified positive; vectors differ in
        # author_d (0 vs 1) with identical title_d=0, so (0,0,.) wins
        p = make_preprint(title="On Knot Invariants", authors=("Jane Doe",),
                          abstract="We study knots.")
        published = [
            make_published(accession="zbl2", title="On Knot Invariants",
                           authors=("Jane Doe",), abstract="We study knots."),
            make_published(accession="zbl1", title="On Knot Invariants",
                           authors=("Al Smith",), abstract="We study knots."),
        ]
        store = store_with([p], published)
        index = build_index(store)
        hit = match_by_classifier(p, index, always_match_model(), 20)
        assert hit is not None
        accession, vec = hit
        assert accession == "zbl2"
        assert vec == (0.0, 0.0, 0.0)
        assert all(type(d) is float for d in vec)  # Python floats, not numpy

    def test_most_probable_positive_wins(self, tmp_path):
        # both candidates are positive; zbl1 has the lexicographically
        # smaller vector (title_d 0) but the lower forest probability
        p = make_preprint(title="On Knot Invariants", authors=("Jane Doe",))
        store = store_with([p], [
            make_published(accession="zbl1", title="On Knot Invariants",
                           authors=("Al Smith",)),
            make_published(accession="zbl2", title="On Knot Invariants II",
                           authors=("Jane Doe",)),
        ])
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "schema_version": 1, "n_trees": 1, "max_depth": 1, "seed": 0,
            "decision_threshold": 0.5,
            # author_d <= 0.5 -> 0.9, else 0.6
            "trees": [[{"feature": 1, "threshold": 0.5, "left": 1, "right": 2},
                       {"leaf": 0.9}, {"leaf": 0.6}]],
        }))
        hit = match_by_classifier(p, build_index(store),
                                  load_model(model_path), 20)
        assert hit is not None
        accession, vec = hit
        assert accession == "zbl2"
        assert vec[0] > 0.0 and vec[1] == 0.0

    def test_tie_broken_by_smaller_accession(self):
        p = make_preprint()
        published = [make_published(accession="zbl9"),
                     make_published(accession="zbl3")]
        store = store_with([p], published)
        index = build_index(store)
        hit = match_by_classifier(p, index, always_match_model(), 20)
        assert hit is not None and hit[0] == "zbl3"

    def test_no_candidates(self):
        store = store_with(
            [make_preprint(title="Totally unique phrasing",
                           authors=("Jane Doe",))],
            [make_published(title="Different world", authors=("Al Smith",))],
        )
        index = build_index(store)
        assert match_by_classifier(store.preprints["2301.00001"], index,
                                   always_match_model(), 20) is None

    def test_no_positive_candidates(self):
        store = store_with(
            [make_preprint(title="On knots and links")],
            [make_published(title="On surfaces and knots",
                            authors=("Al Smith",))],
        )
        index = build_index(store)
        hit = match_by_classifier(store.preprints["2301.00001"], index,
                                  title_stump_model(threshold=0.01), 20)
        assert hit is None


# few distinct values, so probabilities and every vector column often tie
PROBS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
DISTANCES = st.sampled_from([0.0, 0.1, 0.5, 1.0])
CANDIDATES = st.lists(st.tuples(PROBS, st.tuples(DISTANCES, DISTANCES, DISTANCES)),
                      min_size=1, max_size=12)


def pick(candidates, threshold=0.5, ordinals=None):
    """pick_positive over (probability, vector) candidates of one owner,
    whose ordinals default to their positions: a row, or None."""
    probs = np.array([prob for prob, _ in candidates])
    x = np.array([v for _, v in candidates], dtype=np.float64)
    if ordinals is None:
        ordinals = list(range(len(candidates)))
    owner = np.zeros(len(candidates), dtype=np.int64)
    [i] = pick_positive(probs, x, np.array(ordinals), owner, threshold).tolist()
    return None if i < 0 else i


class TestClassifyPreprints:
    def test_decisions_do_not_depend_on_the_chunks(self, corpus_store, corpus_index,
                                                   corpus_model, monkeypatch):
        preprints = [corpus_store.preprints[pid] for pid in sorted(corpus_store.preprints)
                     if match_by_doi(corpus_store.preprints[pid], corpus_store) is None]
        # a preprint with no candidates inside a chunk: the owners of the
        # chunk's scored rows skip it
        lonely = make_preprint(pid="9999.99999", title="Xqzv wjyk",
                               authors=("Qx Zy",), abstract="Vvq xzk.")
        assert query_candidates(corpus_index, lonely, 20) == []
        preprints.insert(1, lonely)
        want = [match_by_classifier(p, corpus_index, corpus_model, 20) for p in preprints]
        assert any(want) and not all(want)
        monkeypatch.setattr(similarity, "CHUNK_PAIRS", 50)
        chunks = [[p for p, _ in chunk] for chunk in similarity.chunked(
            (p, query_candidates(corpus_index, p, 20)) for p in preprints)]
        assert chunks[0].index(lonely) not in (0, len(chunks[0]) - 1)
        assert len(chunks) > 100
        assert classify_preprints(preprints, corpus_index, corpus_model, 20) == want
        monkeypatch.undo()
        assert classify_preprints(preprints, corpus_index, corpus_model, 20) == want


class TestPickPositive:
    @given(CANDIDATES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_equals_min_over_positives(self, candidates, data):
        # the candidates come in rank order; ordinal order is accession order
        ordinals = data.draw(st.permutations(range(100)))[:len(candidates)]
        accessions = [f"zbl{o:08d}" for o in ordinals]
        positives = [(-prob, v, accession)
                     for (prob, v), accession in zip(candidates, accessions)
                     if prob >= 0.5]
        i = pick(candidates, ordinals=ordinals)
        if not positives:
            assert i is None
        else:
            assert (-candidates[i][0], candidates[i][1], accessions[i]) == min(positives)

    def test_below_threshold_is_none(self):
        assert pick([(0.49, (0.0, 0.0, 0.0))]) is None
        assert pick([(0.5, (1.0, 1.0, 1.0))]) == 0

    @given(st.lists(CANDIDATES, min_size=1, max_size=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_each_owner_equals_min_over_its_positives(self, groups, data):
        # a chunk of several preprints' candidates; the same ordinal may
        # come up for several of them, as one record can for several queries
        ordinals = [data.draw(st.permutations(range(12)))[:len(g)] for g in groups]
        flat = [c for g in groups for c in g]
        owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        rows = pick_positive(np.array([prob for prob, _ in flat]),
                             np.array([v for _, v in flat], dtype=np.float64),
                             np.concatenate(ordinals), owner, 0.5)
        assert rows.shape == (len(groups),)
        start = 0
        for group, ords, row in zip(groups, ordinals, rows.tolist()):
            positives = [(-prob, v, o) for (prob, v), o in zip(group, ords) if prob >= 0.5]
            if not positives:
                assert row == -1
            else:
                i = row - start
                assert 0 <= i < len(group)
                assert (-group[i][0], group[i][1], ords[i]) == min(positives)
            start += len(group)


class TestMatchPreprint:
    """batch_match on a store of one preprint."""

    @staticmethod
    def _match(store):
        [pid] = store.preprints
        batch_match(store, build_index(store), always_match_model(), 20, timestamp=TS)
        return store.decisions[pid]

    def test_doi_short_circuits_classifier(self):
        # the classifier would prefer zbl1 (identical metadata), but the DOI
        # resolves to zbl2 and must win with no vector recorded
        p = make_preprint(doi="10.1/a")
        published = [
            make_published(accession="zbl1"),
            make_published(accession="zbl2", title="A renamed version",
                           doi="10.1/a"),
        ]
        store = store_with([p], published)
        d = self._match(store)
        assert d.outcome == OUTCOME_DOI
        assert d.matched_accession == "zbl2"
        assert d.vector is None
        assert d.decided_at == TS

    def test_classifier_records_vector(self):
        p = make_preprint()
        store = store_with([p], [make_published()])
        d = self._match(store)
        assert d.outcome == OUTCOME_CLASSIFIER
        assert d.matched_accession == "zbl00000001"
        assert d.vector == (0.0, 0.0, 0.0)

    def test_unmatched(self):
        p = make_preprint(title="Totally unique phrasing",
                          authors=("Xo Yz",))
        store = store_with([p], [make_published(title="Different world",
                                                authors=("Al Smith",))])
        d = self._match(store)
        assert d.outcome == OUTCOME_UNMATCHED
        assert d.matched_accession is None and d.vector is None


class TestNaiveMatch:
    def test_unique_exact_hit(self):
        store = store_with([make_preprint(title="On $L^2$ Bounds")],
                           [make_published(title="On L2 Bounds")])
        assert naive_match(store.preprints["2301.00001"], store) == "zbl00000001"

    def test_title_differs_by_word(self):
        store = store_with([make_preprint(title="On sharp bounds")],
                           [make_published(title="On sharper bounds")])
        assert naive_match(store.preprints["2301.00001"], store) is None

    def test_ambiguous_duplicate_titles(self):
        store = store_with(
            [make_preprint()],
            [make_published(accession="zbl1"), make_published(accession="zbl2")],
        )
        assert naive_match(store.preprints["2301.00001"], store) is None

    def test_author_order_matters_for_naive(self):
        store = store_with(
            [make_preprint(authors=("Jane Doe", "John Roe"))],
            [make_published(authors=("John Roe", "Jane Doe"))],
        )
        assert naive_match(store.preprints["2301.00001"], store) is None

    def test_pair_equality_helper(self):
        p = make_preprint(title="The  Riemann--Zeta   Function")
        c = make_published(title="the riemann-zeta function")
        assert pair_has_equal_title_authors(p, c)


class TestBatchMatch:
    def test_report_conservation_and_counts(self, corpus_store, corpus_index,
                                            corpus_model, corpus_truth):
        store = corpus_store
        report = batch_match(store, corpus_index, corpus_model, 20, timestamp=TS)
        assert report.doi_matches + report.classifier_matches + \
            report.unmatched == report.total_preprints
        assert report.total_preprints == 1000
        expected_doi = len(corpus_truth["doi_assigned"]) - \
            len(corpus_truth["wrong_doi"])
        assert report.doi_matches == expected_doi
        assert report.new_vs_naive == \
            report.classifier_matches - report.naive_equal_title_authors
        assert report.new_vs_naive >= 0

    def test_rerun_identical_report(self, corpus_store, corpus_index,
                                    corpus_model):
        r1 = batch_match(corpus_store, corpus_index, corpus_model, 20,
                         timestamp=TS)
        r2 = batch_match(corpus_store, corpus_index, corpus_model, 20,
                         timestamp=TS)
        assert r1 == r2

    def test_empty_preprint_set(self):
        store = store_with([], [make_published()])
        index = build_index(store)
        report = batch_match(store, index, always_match_model(), 20,
                             timestamp=TS)
        assert report.total_preprints == 0
        assert report.doi_matches == report.classifier_matches == \
            report.unmatched == 0

    def test_merged_preprints_skipped(self):
        p = make_preprint(doi="10.1/a")
        store = store_with([p], [make_published(doi="10.1/a")])
        index = build_index(store)
        batch_match(store, index, always_match_model(), 20, timestamp=TS)
        store.merge_on_publication(store.decisions["2301.00001"])
        report = batch_match(store, index, always_match_model(), 20,
                             timestamp=TS)
        assert report.total_preprints == 0

    def test_doi_priority_invariant(self, corpus_store, corpus_index,
                                    corpus_model):
        batch_match(corpus_store, corpus_index, corpus_model, 20, timestamp=TS)
        for pid, decision in corpus_store.decisions.items():
            doi_hit = match_by_doi(corpus_store.preprints[pid], corpus_store)
            if doi_hit is not None:
                assert decision.outcome == OUTCOME_DOI
                assert decision.matched_accession == doi_hit

    def test_two_step_superset_of_naive(self, corpus_store, corpus_index,
                                        corpus_model, corpus_truth):
        batch_match(corpus_store, corpus_index, corpus_model, 20, timestamp=TS)
        truth = corpus_truth["pairs"]
        naive_index = build_naive_index(corpus_store)
        naive_correct = {
            pid for pid in truth
            if naive_match(corpus_store.preprints[pid], corpus_store,
                           naive_index) == truth[pid]
        }
        two_step_correct = {
            pid for pid, d in corpus_store.decisions.items()
            if d.matched_accession == truth.get(pid)
        }
        assert naive_correct <= two_step_correct
        assert len(two_step_correct) >= 1.1 * len(naive_correct)
