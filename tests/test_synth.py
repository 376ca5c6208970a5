from __future__ import annotations

import json

import pytest

from arxmatch import synth
from arxmatch.candidates import build_index
from arxmatch.corpus import CorpusStore, validate_arxiv_id
from arxmatch.forest import bootstrap_training_set, train_forest
from arxmatch.matcher import batch_match
from arxmatch.synth import MAX_PAIRS, PerturbationProfile, gen_synthetic_corpus

from conftest import CORPUS_DIR

TS = "2024-01-01T00:00:00Z"

ZERO = PerturbationProfile(title_sub=0.0, author_change=0.0, abstract_edit=0.0,
                           doi_rate=0.3, wrong_doi_rate=0.0)


def load_store(directory) -> CorpusStore:
    store = CorpusStore()
    store.ingest_preprints(directory / "preprints.jsonl")
    store.ingest_published(directory / "published.jsonl")
    return store


class TestGenerator:
    def test_largest_n_passes_the_check(self, tmp_path, monkeypatch):
        def no_generation(rng):
            raise AssertionError("generation started")

        monkeypatch.setattr(synth, "_make_title", no_generation)
        with pytest.raises(AssertionError, match="generation started"):
            gen_synthetic_corpus(MAX_PAIRS, PerturbationProfile(), seed=1, out_dir=tmp_path)
        with pytest.raises(ValueError, match="n must be in"):
            gen_synthetic_corpus(MAX_PAIRS + 1, PerturbationProfile(), seed=1,
                                 out_dir=tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_largest_pair_number_is_a_valid_arxiv_id(self):
        assert validate_arxiv_id(f"2412.{MAX_PAIRS - 1:05d}")

    def test_zero_perturbation_pairs_identical(self, tmp_path):
        truth = gen_synthetic_corpus(10, ZERO, seed=1, out_dir=tmp_path)
        store = load_store(tmp_path)
        for pid, accession in truth["pairs"].items():
            p = store.preprints[pid]
            c = store.published[accession]
            assert p.title == c.title
            assert [a.raw for a in p.authors] == [a.raw for a in c.authors]
            assert p.abstract == c.abstract

    def test_full_doi_rate_short_circuits_classifier(self, tmp_path):
        profile = PerturbationProfile(0.0, 0.0, 0.0, doi_rate=1.0,
                                      wrong_doi_rate=0.0)
        gen_synthetic_corpus(60, profile, seed=2, out_dir=tmp_path)
        store = load_store(tmp_path)
        index = build_index(store)
        model = train_forest(
            *bootstrap_training_set(store, index), n_trees=10,
            max_depth=4, seed=2)
        report = batch_match(store, index, model, 20, timestamp=TS)
        assert report.doi_matches == 60
        assert report.classifier_matches == 0
        assert report.unmatched == 0

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        gen_synthetic_corpus(40, PerturbationProfile(), seed=3, out_dir=a)
        gen_synthetic_corpus(40, PerturbationProfile(), seed=3, out_dir=b)
        for fname in ("preprints.jsonl", "published.jsonl", "groundtruth.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_structure_counts(self, tmp_path):
        truth = gen_synthetic_corpus(50, PerturbationProfile(), seed=4,
                                     out_dir=tmp_path)
        store = load_store(tmp_path)
        assert len(store.preprints) == 50
        assert len(store.published) == 75
        assert len(truth["pairs"]) == 50
        assert len(truth["decoys"]) == 25
        assert set(truth["wrong_doi"]) <= set(truth["doi_assigned"])

    def test_wrong_doi_unresolvable(self, tmp_path):
        profile = PerturbationProfile(0.0, 0.0, 0.0, doi_rate=1.0,
                                      wrong_doi_rate=1.0)
        gen_synthetic_corpus(10, profile, seed=5, out_dir=tmp_path)
        store = load_store(tmp_path)
        for pid, rec in store.preprints.items():
            assert rec.doi is not None
            assert rec.doi not in store.doi_index

    def test_committed_fixture_reproducible(self, tmp_path):
        truth = gen_synthetic_corpus(1000, PerturbationProfile(), seed=42,
                                     out_dir=tmp_path)
        for fname in ("preprints.jsonl", "published.jsonl", "groundtruth.json"):
            assert (tmp_path / fname).read_bytes() == \
                (CORPUS_DIR / fname).read_bytes(), fname
        committed = json.loads((CORPUS_DIR / "groundtruth.json").read_text())
        assert committed == truth
