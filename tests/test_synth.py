from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right

import numpy as np
import pytest

from arxmatch import synth
from arxmatch.candidates import build_index
from arxmatch.cli import main
from arxmatch.corpus import CorpusStore, validate_arxiv_id
from arxmatch.forest import bootstrap_training_set, train_forest
from arxmatch.matcher import batch_match
from arxmatch.synth import MAX_PAIRS, PerturbationProfile, gen_synthetic_corpus

from conftest import CORPUS_DIR

TS = "2024-01-01T00:00:00Z"

ZERO = PerturbationProfile(title_sub=0.0, author_change=0.0, abstract_edit=0.0,
                           doi_rate=0.3, wrong_doi_rate=0.0)
CORPUS_FILES = ("preprints.jsonl", "published.jsonl", "groundtruth.json")
# the spans above 2**31 reject a quarter to a half of their 32-bit draws, a
# loop that the generator's small spans almost never enter
SPANS = (1, 2, 3, 7, 66, 100, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32)


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
        for fname in CORPUS_FILES:
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


class TestDrawOracle:
    """synth._Draws against np.random.default_rng, call for call."""

    @pytest.mark.parametrize("block", [synth.RAW_BLOCK, 1, 7])
    def test_interleaved_draws_match_numpy(self, monkeypatch, block):
        monkeypatch.setattr(synth, "RAW_BLOCK", block)
        for seed in range(60):
            ours = synth._Draws(seed)
            oracle = np.random.default_rng(seed)
            plan = random.Random(seed)  # the sequence of calls, not the draws
            for call in range(300):
                kind = plan.random()
                if kind < 0.6:
                    low = plan.randrange(-1000, 1000)
                    high = low + plan.choice(SPANS)
                    got = ours.integers(low, high)
                    assert type(got) is int
                    assert got == oracle.integers(low, high), (seed, call, low, high)
                elif kind < 0.85:
                    assert ours.random() == oracle.random(), (seed, call)
                else:
                    got = bisect_right(synth._DOCUMENT_TYPE_CDF, ours.random())
                    assert got == oracle.choice(3, p=[0.9, 0.08, 0.02]), (seed, call)

    @pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (-1, 2**32), (3, 3), (3, 2)])
    def test_span_outside_one_to_two_pow_32_is_refused(self, low, high):
        with pytest.raises(ValueError, match="high - low must be in 1..2"):
            synth._Draws(1).integers(low, high)


class TestGeneratorOracle:
    @pytest.mark.parametrize("profile", [
        PerturbationProfile(),
        ZERO,
        PerturbationProfile(doi_rate=1.0, wrong_doi_rate=0.0),
        PerturbationProfile(1.0, 1.0, 1.0, 1.0, 1.0),
    ], ids=["default", "zero", "all-doi", "all-ones"])
    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 17])
    def test_corpus_equals_numpy_generators(self, tmp_path, monkeypatch, profile, seed):
        gen_synthetic_corpus(300, profile, seed=seed, out_dir=tmp_path / "ours")
        monkeypatch.setattr(synth, "_Draws", np.random.default_rng)
        gen_synthetic_corpus(300, profile, seed=seed, out_dir=tmp_path / "numpy")
        for fname in CORPUS_FILES:
            assert (tmp_path / "ours" / fname).read_bytes() == \
                (tmp_path / "numpy" / fname).read_bytes(), fname


# the 10k corpora that the classify-10k and daily-10k benchmark workloads
# build with seed 1; the benchmark's pinned store hashes follow from these
@pytest.mark.parametrize("args, digests", [
    (["--n", "10000"], {
        "preprints.jsonl": "c281f0108bdfdcca1a865dc6cae1002b6ff9256971123e24358258b3b62efe69",
        "published.jsonl": "230f4e9d806ba10d14b0fc459601187886eeb0e00694578fbd288bba6b3efd8a",
        "groundtruth.json": "23ad11ea7ee0a5fdb1f9277aaaa001687e47661f0b29f9b7ab1948e25d6a2aac",
    }),
    (["--n", "11500", "--doi-rate", "1.0", "--wrong-doi-rate", "0"], {
        "preprints.jsonl": "40f832c370ef9080c5d8a2eb20ca529a45115619283851f495522b3a6ce929e1",
        "published.jsonl": "50826359dd435da7ab2b3a79676ee3ae09313737b30f1c0608f5d09f56946b5d",
        "groundtruth.json": "16b96eabcd8b62821210669d1af94780fd04c3046bc5c481ac8003f50bb76866",
    }),
], ids=["classify-10k", "daily-10k"])
def test_benchmark_corpora_pinned(tmp_path, args, digests):
    assert main(["gen", "--seed", "1", "--out", str(tmp_path), *args]) == 0
    for fname in CORPUS_FILES:
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == \
            digests[fname], fname
