from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from arxmatch import scope
from arxmatch.candidates import build_index
from arxmatch.corpus import CorpusStore, preprint_from_json, published_from_json
from arxmatch.forest import bootstrap_training_set, train_forest
from arxmatch.normalize import normalize_text
from arxmatch.similarity import ScoringTable, feature_vector

DATA_DIR = Path(__file__).resolve().parent / "data"
CORPUS_DIR = DATA_DIR / "corpus1000"
GOLDEN_DIR = DATA_DIR / "golden"
# JSON values of a doi field that are not strings: each is no DOI
NOT_STRING_DOIS = [12, 1.5, True, ["10.1/x"], {"doi": "10.1/x"}, None]
# seeds that are not integers; int() would read each of them as 1
NOT_INT_SEEDS = [1.5, True, "1"]
# every reason a scope decision can give: the values of scope's REASON_* names
SCOPE_REASONS = {value for name, value in vars(scope).items()
                 if name.startswith("REASON_")}


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
    """feature_vector of p against the records cs, in order, through a table
    of their own."""
    return feature_vector(ScoringTable({c.accession: c for c in cs}), [p],
                          [[c.accession for c in cs]])


def store_with(preprints=(), published=()) -> CorpusStore:
    store = CorpusStore()
    for rec in preprints:
        store.preprints[rec.id] = rec
    for rec in published:
        store.published[rec.accession] = rec
    return store


def naive_key(rec) -> tuple[str, tuple[str, ...]]:
    """A record's normalized title and its ordered family-name keys."""
    return normalize_text(rec.title), tuple(n.key[0] for n in rec.authors)


def naive_matcher(store: CorpusStore):
    """The naive baseline over store's published records: a function giving
    a preprint the accession of the one record with its naive_key, or None
    when no record or several have it."""
    hits: dict[tuple, list[str]] = {}
    for accession, rec in store.published.items():
        hits.setdefault(naive_key(rec), []).append(accession)

    def match(p) -> str | None:
        found = hits.get(naive_key(p), [])
        return found[0] if len(found) == 1 else None
    return match


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
    return train_forest(*bootstrap_training_set(corpus_store, corpus_index), seed=42)


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
