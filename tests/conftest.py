from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from arxmatch.candidates import build_index
from arxmatch.corpus import CorpusStore, preprint_from_json, published_from_json
from arxmatch.forest import bootstrap_training_set, train_forest
from arxmatch.similarity import ScoringTable, feature_vector

DATA_DIR = Path(__file__).resolve().parent / "data"
CORPUS_DIR = DATA_DIR / "corpus1000"
GOLDEN_DIR = DATA_DIR / "golden"


def make_preprint(pid="2301.00001", version=1, title="On Knot Invariants",
                  authors=("Jane Doe",), abstract="We study knots.",
                  categories=("math.GT",), msc=(), doi=None, withdrawn=False):
    return preprint_from_json({
        "id": pid,
        "version": version,
        "title": title,
        "authors": list(authors),
        "abstract": abstract,
        "categories": list(categories),
        "msc": list(msc),
        "doi": doi,
        "withdrawn": withdrawn,
    })


def make_published(accession="zbl00000001", title="On Knot Invariants",
                   authors=("Jane Doe",), abstract="We study knots.",
                   doi=None, source="J. Topol. 1, 1-10 (2020)",
                   document_type="journal_article", msc=()):
    return published_from_json({
        "accession": accession,
        "title": title,
        "authors": list(authors),
        "abstract": abstract,
        "doi": doi,
        "source": source,
        "document_type": document_type,
        "msc": list(msc),
    })


def score_records(p, cs) -> list:
    """feature_vector of p against the records cs, through a table of their own."""
    return feature_vector(ScoringTable(cs), p, range(len(cs)))


def store_with(preprints=(), published=()) -> CorpusStore:
    store = CorpusStore()
    for rec in preprints:
        store.preprints[rec.id] = rec
    for rec in published:
        store.published[rec.accession] = rec
    store.rebuild_doi_index()
    return store


def load_truth() -> dict:
    return json.loads((CORPUS_DIR / "groundtruth.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def corpus_store() -> CorpusStore:
    """The committed 1,000-pair fixture, loaded once. Treat as read-only."""
    store = CorpusStore()
    store.ingest_preprints(CORPUS_DIR / "preprints.jsonl")
    store.ingest_published(CORPUS_DIR / "published.jsonl")
    return store


@pytest.fixture(scope="session")
def corpus_index(corpus_store):
    return build_index(corpus_store)


@pytest.fixture(scope="session")
def corpus_model(corpus_store, corpus_index):
    data = bootstrap_training_set(corpus_store, corpus_index)
    return train_forest(data, seed=42)


@pytest.fixture(scope="session")
def corpus_truth() -> dict:
    return load_truth()


@contextlib.contextmanager
def criterion(name: str):
    """Prints one PASS/FAIL line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")
