from __future__ import annotations

from collections import Counter

import pytest

import arxmatch.evaluate as evaluate_module
from arxmatch import similarity
from arxmatch.corpus import CorpusStore
from arxmatch.evaluate import EvalError, evaluate, split_doi_pairs
from arxmatch.forest import TrainingError
from arxmatch.synth import PerturbationProfile, gen_synthetic_corpus

from conftest import NOT_INT_SEEDS, store_with


def corpus(tmp_path, n, seed, **profile_kw) -> CorpusStore:
    profile = PerturbationProfile(**profile_kw)
    gen_synthetic_corpus(n, profile, seed=seed, out_dir=tmp_path)
    store = CorpusStore()
    store.ingest_preprints(tmp_path / "preprints.jsonl")
    store.ingest_published(tmp_path / "published.jsonl")
    return store


PERFECT = dict(title_sub=0.0, author_change=0.0, abstract_edit=0.0,
               doi_rate=1.0, wrong_doi_rate=0.0)


class TestSplit:
    def test_eighty_twenty_disjoint(self, tmp_path):
        store = corpus(tmp_path, 300, seed=31, **PERFECT)
        train, holdout = split_doi_pairs(store, seed=5)
        assert len(train) + len(holdout) == 300
        assert len(holdout) == 60
        assert not set(train) & set(holdout)

    def test_same_seed_same_split(self, tmp_path):
        store = corpus(tmp_path, 250, seed=32, **PERFECT)
        assert split_doi_pairs(store, seed=9) == split_doi_pairs(store, seed=9)
        assert split_doi_pairs(store, seed=9) != split_doi_pairs(store, seed=10)

    def test_too_few_pairs(self, tmp_path):
        store = corpus(tmp_path, 50, seed=33, **PERFECT)
        with pytest.raises(EvalError, match="too few"):
            split_doi_pairs(store, seed=1)


class TestEvaluate:
    def test_perfect_separation_toy_corpus(self, tmp_path):
        store = corpus(tmp_path, 250, seed=34, **PERFECT)
        report = evaluate(store, seed=3)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.false_positives == report.false_negatives == 0
        assert report.true_positives == report.holdout_size

    def test_holdout_counterparts_deleted(self, tmp_path, monkeypatch):
        # degenerate case: the published twins of every holdout preprint are
        # removed, so a well-trained classifier must predict nothing
        store = corpus(tmp_path, 250, seed=35, **PERFECT)
        train, holdout = split_doi_pairs(store, seed=4)
        for _pid, accession in holdout:
            del store.published[accession]
        # a split of the reduced store would draw another holdout, so
        # evaluation gets the split drawn before the deletions
        monkeypatch.setattr(evaluate_module, "split_doi_pairs",
                            lambda store, seed: (train, holdout))
        report = evaluate(store, seed=4)
        assert report.precision == 1.0  # no predictions at all
        assert report.recall == 0.0
        assert report.true_positives == 0
        assert report.false_positives == 0
        assert report.false_negatives == report.holdout_size

    def test_wrong_pick_is_a_false_positive_and_a_miss(self, tmp_path, monkeypatch):
        # the toy corpus of test_perfect_separation_toy_corpus, with the first
        # holdout preprint's hit swapped for another holdout counterpart
        store = corpus(tmp_path, 250, seed=34, **PERFECT)
        _, holdout = split_doi_pairs(store, seed=3)
        classify = evaluate_module.classify_preprints

        def one_wrong(preprints, index, model, k):
            [(accession, vector), *hits] = classify(preprints, index, model, k)
            wrong = next(a for _, a in holdout if a != accession)
            return [(wrong, vector), *hits]

        monkeypatch.setattr(evaluate_module, "classify_preprints", one_wrong)
        report = evaluate(store, seed=3)
        n = report.holdout_size
        assert (report.true_positives, report.false_positives,
                report.false_negatives) == (n - 1, 1, 1)
        assert report.precision == report.recall == (n - 1) / n

    def test_never_trains_on_holdout(self, tmp_path):
        # fingerprint check: no training pair may coincide with a holdout pair
        store = corpus(tmp_path, 260, seed=36, doi_rate=1.0)
        train, holdout = split_doi_pairs(store, seed=6)
        train_fingerprints = set(train)
        holdout_fingerprints = set(holdout)
        assert not train_fingerprints & holdout_fingerprints
        report = evaluate(store, seed=6)
        assert report.train_size == len(train)
        assert report.holdout_size == len(holdout)

    def test_report_math(self, tmp_path):
        store = corpus(tmp_path, 250, seed=37, doi_rate=1.0)
        report = evaluate(store, seed=7)
        tp, fp, fn = (report.true_positives, report.false_positives,
                      report.false_negatives)
        assert report.precision == (tp / (tp + fp) if tp + fp else 1.0)
        assert report.recall == tp / (tp + fn)
        assert tp + fn == report.holdout_size

    def test_deterministic(self, tmp_path):
        store = corpus(tmp_path, 250, seed=38, doi_rate=1.0)
        assert evaluate(store, seed=8) == evaluate(store, seed=8)


class TestOptionsCheckedFirst:
    """evaluate refuses what train_forest would refuse before it reads the
    DOI pairs, so a bad option costs no index and no scoring."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("evaluation started")

        for name in ("split_doi_pairs", "build_index"):
            monkeypatch.setattr(evaluate_module, name, ran)

    @pytest.mark.parametrize("seed", NOT_INT_SEEDS, ids=repr)
    def test_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(TrainingError, match="seed must be an integer"):
            evaluate(store_with(), seed=seed)

    @pytest.mark.parametrize("option, value, problem", [
        ("n_trees", 0, "n_trees must be an integer >= 1"),
        ("max_depth", 2.0, "max_depth must be an integer >= 1"),
        ("neg_per_pos", True, "neg_per_pos must be an integer >= 1"),
        ("decision_threshold", 1.0, "decision_threshold must be a number in"),
    ])
    def test_each_forest_option(self, option, value, problem):
        with pytest.raises(TrainingError, match=problem):
            evaluate(store_with(), seed=1, **{option: value})


class TestSharedProjections:
    def test_each_record_projected_at_most_once(self, tmp_path, monkeypatch):
        # training pairs and holdout matching score through one projection
        # per record, so no (title, authors, abstract) is projected more often
        # than there are records carrying it
        store = corpus(tmp_path, 250, seed=39, doi_rate=1.0)
        carriers = Counter((rec.title, rec.authors, rec.abstract)
                           for records in (store.preprints, store.published)
                           for rec in records.values())
        calls = Counter()
        project = similarity.project

        def counting(title, authors, abstract, vocab):
            calls[(title, authors, abstract)] += 1
            return project(title, authors, abstract, vocab)

        monkeypatch.setattr(similarity, "project", counting)
        evaluate(store, seed=9)
        assert calls
        assert {t: n for t, n in calls.items() if n > carriers[t]} == {}
