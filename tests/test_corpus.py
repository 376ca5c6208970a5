from __future__ import annotations

import dataclasses
import fcntl
import gc
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch import authors, corpus
from arxmatch.cli import main
from arxmatch.corpus import (
    OUTCOME_CLASSIFIER,
    OUTCOME_DOI,
    OUTCOME_UNMATCHED,
    CorpusStore,
    IntegrityError,
    MatchDecision,
    RecordError,
    StoreError,
    _parse_authors,
    decision_from_json,
    doi_map,
    open_store,
    preprint_from_json,
    published_from_json,
    record_to_json,
    validate_arxiv_id,
    write_atomic,
)
from arxmatch.normalize import normalize_doi, split_authors

from conftest import CORPUS_DIR, NOT_STRING_DOIS, make_preprint, make_published, store_with

TS = "2024-01-01T00:00:00Z"


def write_jsonl(path: Path, objects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def preprint_obj(pid="2301.00001", version=1, **kw):
    obj = {
        "id": pid,
        "version": version,
        "title": "On Knot Invariants",
        "authors": ["Jane Doe"],
        "abstract": "We study knots.",
        "categories": ["math.GT"],
        "msc": [],
        "doi": None,
        "withdrawn": False,
    }
    obj.update(kw)
    return obj


def published_obj(accession="zbl00000001", **kw):
    obj = {
        "accession": accession,
        "title": "On Knot Invariants",
        "authors": ["Jane Doe"],
        "abstract": "We study knots.",
        "doi": None,
        "source": "J. Topol. 1, 1-10 (2020)",
        "document_type": "journal_article",
        "msc": [],
    }
    obj.update(kw)
    return obj


class TestValidation:
    @pytest.mark.parametrize("good", ["2312.01234", "1501.0001",
                                      "math/0501001", "math.GT/0501001",
                                      "hep-th/9901001"])
    def test_arxiv_ids_accepted(self, good):
        assert validate_arxiv_id(good) == good

    @pytest.mark.parametrize("bad", ["", "2312.123", "12.01234", "MATH/0501001",
                                     "math/05001", "2312.01234v2", None,
                                     "2301.00001\n", "math.GT/0501001\n",
                                     "\uff12\uff13\uff10\uff11.\uff10\uff10\uff10\uff10\uff11",
                                     "2301.0000\u0661", "math/050100\u0967"])
    def test_arxiv_ids_rejected(self, bad):
        with pytest.raises(RecordError):
            validate_arxiv_id(bad)

    # digits other than 0-9 (fullwidth, Arabic-Indic), and categories that
    # are not one token: each is refused by ingest and fails a load
    @pytest.mark.parametrize("table, obj, reason", [
        ("preprints", preprint_obj("\uff12\uff13\uff10\uff11.\uff10\uff10\uff10\uff10\uff11"),
         "invalid arXiv identifier: "
         "'\uff12\uff13\uff10\uff11.\uff10\uff10\uff10\uff10\uff11'"),
        ("preprints", preprint_obj(msc=["\u0661\u0664G70"]),
         "2301.00001: invalid MSC code '\u0661\u0664G70'"),
        ("published", published_obj(msc=["\uff11\uff14G70"]),
         "zbl00000001: invalid MSC code '\uff11\uff14G70'"),
        *(("preprints", preprint_obj(categories=categories),
           "2301.00001: categories must be a non-empty list of codes")
          for categories in ([" "], ["math.AG\n"], ["math.AG", "math AG"],
                             ["\u00a0math.AG"])),
    ])
    def test_refused_on_ingest_and_load(self, table, obj, reason, tmp_path):
        path = tmp_path / f"{table}.jsonl"
        write_jsonl(path, [obj])
        ingest = getattr(CorpusStore(), f"ingest_{table}")
        assert ingest(path).errors == [(1, reason)]
        good = (preprint_obj("2301.00009") if table == "preprints"
                else published_obj("zbl00000009"))
        store = tmp_path / "store"
        store.mkdir()
        write_jsonl(store / path.name, [good, obj])
        with pytest.raises(RecordError) as exc:
            CorpusStore.load(store)
        assert str(exc.value) == f"{store / path.name}:2: {reason}"

    def test_version_must_be_positive(self):
        with pytest.raises(RecordError):
            preprint_from_json(preprint_obj(version=0))

    def test_boolean_version_rejected(self, tmp_path):
        with pytest.raises(RecordError, match="version"):
            preprint_from_json(preprint_obj(version=True))
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(version=True)])
        assert CorpusStore().ingest_preprints(path).rejected == 1
        store_with([make_preprint()]).save(tmp_path / "store")
        write_jsonl(tmp_path / "store" / "preprints.jsonl", [preprint_obj(version=True)])
        with pytest.raises(RecordError, match="preprints.jsonl:1: .*version"):
            CorpusStore.load(tmp_path / "store")

    def test_msc_syntax(self):
        rec = preprint_from_json(preprint_obj(msc=["05A15", "11-XX"]))
        assert rec.msc == ("05A15", "11-XX")
        with pytest.raises(RecordError):
            preprint_from_json(preprint_obj(msc=["5A15"]))
        with pytest.raises(RecordError, match="invalid MSC code"):
            preprint_from_json(preprint_obj(msc=["14H52\n"]))

    @pytest.mark.parametrize("msc", [{}, {"msc": None}], ids=["absent", "null"])
    def test_msc_absent_or_null_is_stored_empty(self, msc, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        for name, obj in (("preprints", preprint_obj()), ("published", published_obj())):
            del obj["msc"]
            write_jsonl(store / f"{name}.jsonl", [{**obj, **msc}])
        loaded = CorpusStore.load(store)
        assert loaded.preprints["2301.00001"].msc == loaded.published["zbl00000001"].msc == ()
        loaded.save(tmp_path / "copy")
        for name in ("preprints.jsonl", "published.jsonl"):
            assert json.loads((tmp_path / "copy" / name).read_text())["msc"] == []

    def test_invalid_doi_treated_as_absent(self):
        rec = preprint_from_json(preprint_obj(doi="not a doi"))
        assert rec.doi is None

    @pytest.mark.parametrize("doi", NOT_STRING_DOIS)
    def test_doi_that_is_not_a_string_treated_as_absent(self, doi, tmp_path):
        assert preprint_from_json(preprint_obj(doi=doi)).doi is None
        assert published_from_json(published_obj(doi=doi)).doi is None
        write_jsonl(tmp_path / "p.jsonl", [preprint_obj(doi=doi)])
        write_jsonl(tmp_path / "c.jsonl", [published_obj(doi=doi)])
        store = CorpusStore()
        for report in (store.ingest_preprints(tmp_path / "p.jsonl"),
                       store.ingest_published(tmp_path / "c.jsonl")):
            assert (report.added, report.rejected) == (1, 0)
        assert store.preprints["2301.00001"].doi is None
        assert store.published["zbl00000001"].doi is None

    def test_doi_normalized(self):
        rec = preprint_from_json(preprint_obj(doi="https://doi.org/10.1/X"))
        assert rec.doi == "10.1/x"

    def test_document_type_enum(self):
        with pytest.raises(RecordError):
            published_from_json(published_obj(document_type="preprint"))

    def test_decision_invariants(self):
        with pytest.raises(RecordError):
            MatchDecision("2301.00001", OUTCOME_UNMATCHED, "zbl1", None, TS)
        with pytest.raises(RecordError):
            MatchDecision("2301.00001", OUTCOME_DOI, "zbl1", (0, 0, 0), TS)
        with pytest.raises(RecordError):
            MatchDecision("2301.00001", OUTCOME_CLASSIFIER, "zbl1", None, TS)


# mostly DOI characters; a few of them whitespace to strip, or letters
# whose case mapping changes length or form
DOI_PART = st.text(st.sampled_from(list("0123456789abcxyzX.-_()/") * 3
                                   + [" ", "\n", "\t", "\x1c", "\x85", "\u2028",
                                      "\u00a0", "\u0130", "\u212a", "\u00df"]),
                   min_size=1, max_size=12)


@st.composite
def doi_like(draw):
    """DOIs, some with resolver prefixes, padding or in upper case."""
    doi = "10." + draw(DOI_PART) + "/" + draw(DOI_PART)
    if draw(st.booleans()):
        doi = draw(st.sampled_from(["doi:", "https://doi.org/", "DOI: ",
                                    "http://dx.doi.org/", "doi.org/", " "])) + doi
    if draw(st.booleans()):
        doi += draw(st.sampled_from(["\n", "\n", " ", "\u2028"]))
    return doi.upper() if draw(st.booleans()) else doi


def full_path_doi(raw: str) -> str | None:
    """normalize_doi without its shortcut for a DOI already canonical."""
    doi = raw.strip().lower()
    prefixes = ("https://doi.org/", "http://doi.org/", "https://dx.doi.org/",
                "http://dx.doi.org/", "doi.org/", "doi:")
    while doi.startswith(prefixes):
        prefix = next(p for p in prefixes if doi.startswith(p))
        doi = doi[len(prefix):].strip()
    return doi if re.match(r"^10\.[^/\s]+/\S+$", doi) else None


class TestCanonicalDoi:
    """normalize_doi's shortcut for a canonical DOI, which a reload takes,
    gives what the full path gives, a DOI or None."""

    @given(st.one_of(st.text(max_size=30), doi_like()))
    @settings(max_examples=500, deadline=None)
    def test_equals_normalize_doi(self, value):
        assert normalize_doi(value) == full_path_doi(value)

    def test_cases(self):
        for value in ["10.1/x", "10.1/x\n", "10.1/X", " 10.1/x", "doi:10.1/x",
                      "10.1/x\u2028", "10.1\x1c/x", "10.1/\u0130", "11.1/x", ""]:
            assert normalize_doi(value) == full_path_doi(value)
        assert normalize_doi("10.1/x\n") == "10.1/x"
        doi = "10.1/x"
        assert normalize_doi(doi) is doi  # canonical: returned as it is


class TestIngestPreprints:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(f"2301.0000{i}") for i in range(1, 4)])
        store = CorpusStore()
        report = store.ingest_preprints(path)
        assert (report.added, report.replaced, report.rejected) == (3, 0, 0)

    def test_reingest_same_file_counts_all_unchanged(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(f"2301.0000{i}") for i in range(1, 4)])
        store = CorpusStore()
        store.ingest_preprints(path)
        report = store.ingest_preprints(path)
        assert (report.added, report.replaced, report.unchanged, report.rejected) \
            == (0, 0, 3, 0)
        assert report.errors == []

    def test_same_version_with_other_fields_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(), preprint_obj(title="Knots, revised"),
                           preprint_obj()])
        store = CorpusStore()
        report = store.ingest_preprints(path)
        assert (report.added, report.unchanged, report.rejected) == (1, 1, 1)
        assert report.errors == [(2, "2301.00001: version 1 is not newer")]
        assert store.preprints["2301.00001"].title == "On Knot Invariants"

    def test_unchanged_keeps_the_loaded_file_clean(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj()])
        store = CorpusStore()
        store.ingest_preprints(path)
        store.save(tmp_path / "store")
        loaded = CorpusStore.load(tmp_path / "store")
        assert loaded.ingest_preprints(path).unchanged == 1
        before = (tmp_path / "store" / "preprints.jsonl").stat().st_ino
        loaded.save(tmp_path / "store")
        assert (tmp_path / "store" / "preprints.jsonl").stat().st_ino == before

    def test_missing_title_rejected_with_line_number(self, tmp_path):
        obj = preprint_obj()
        del obj["title"]
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [obj])
        report = CorpusStore().ingest_preprints(path)
        assert (report.added, report.replaced, report.rejected) == (0, 0, 1)
        assert report.errors[0][0] == 1
        assert "title" in report.errors[0][1]

    def test_malformed_line_continues(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps(preprint_obj()) + "\n")
        report = CorpusStore().ingest_preprints(path)
        assert (report.added, report.rejected) == (1, 1)
        assert report.errors[0][0] == 1

    def test_line_nested_past_the_recursion_limit_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "\n")
            fh.write(json.dumps(preprint_obj()) + "\n")
        report = CorpusStore().ingest_preprints(path)
        assert (report.added, report.rejected) == (1, 1)
        assert report.errors == [(1, "malformed JSON: nested too deeply")]

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"id": 1' + "9" * 5000 + "}\n")
            fh.write(json.dumps(preprint_obj()) + "\n")
        report = CorpusStore().ingest_preprints(path)
        assert (report.added, report.rejected) == (1, 1)
        assert report.errors[0][0] == 1
        assert report.errors[0][1].startswith("malformed JSON: Exceeds the limit")

    def test_trailing_newline_in_id_or_msc_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(), preprint_obj(pid="2301.00001\n"),
                           preprint_obj(pid="2301.00002", msc=["14H52\n"])])
        store = CorpusStore()
        report = store.ingest_preprints(path)
        assert (report.added, report.rejected) == (1, 2)
        assert report.errors == [(2, "invalid arXiv identifier: '2301.00001\\n'"),
                                 (3, "2301.00002: invalid MSC code '14H52\\n'")]
        assert list(store.preprints) == ["2301.00001"]

    def test_trailing_newline_in_doi_is_stripped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj(doi="10.1/X\n")])
        store = CorpusStore()
        assert store.ingest_preprints(path).added == 1
        assert store.preprints["2301.00001"].doi == "10.1/x"

    def test_higher_version_replaces(self, tmp_path):
        store = CorpusStore()
        p1 = tmp_path / "v1.jsonl"
        p2 = tmp_path / "v2.jsonl"
        write_jsonl(p1, [preprint_obj(version=1, title="Old")])
        write_jsonl(p2, [preprint_obj(version=2, title="New")])
        store.ingest_preprints(p1)
        report = store.ingest_preprints(p2)
        assert (report.added, report.replaced, report.rejected) == (0, 1, 0)
        assert store.preprints["2301.00001"].title == "New"

    def test_lower_version_rejected(self, tmp_path):
        store = CorpusStore()
        p2 = tmp_path / "v2.jsonl"
        p1 = tmp_path / "v1.jsonl"
        write_jsonl(p2, [preprint_obj(version=2)])
        write_jsonl(p1, [preprint_obj(version=1)])
        store.ingest_preprints(p2)
        report = store.ingest_preprints(p1)
        assert report.rejected == 1
        assert store.preprints["2301.00001"].version == 2

    def test_surrogate_escapes(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [preprint_obj("2301.00001", title="A \ud800 B"),
                           preprint_obj("2301.00002", title="\udc00"),
                           preprint_obj("2301.00003", title="Emoji \U0001f600"),
                           preprint_obj("2301.00004", title="A \\ud800 B")])
        assert "\\ud83d\\ude00" in path.read_text()  # a pair, escaped
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(preprint_obj("2301.00005", title="\udbff"))
                     .replace("\\udbff", "\\uDBFF") + "\n")
        report = CorpusStore().ingest_preprints(path)
        assert (report.added, report.rejected) == (2, 3)
        assert report.errors == [(1, "unpaired surrogate escape"),
                                 (2, "unpaired surrogate escape"),
                                 (5, "unpaired surrogate escape")]

    def test_line_of_other_whitespace_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(" \t\r\n\x1c\n\u2028\n", encoding="utf-8")
        report = CorpusStore().ingest_preprints(path)
        assert [n for n, _ in report.errors] == [2, 3]
        assert report.rejected == 2

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            CorpusStore().ingest_preprints(tmp_path / "missing.jsonl")


class TestIngestPublished:
    def test_distinct_dois_indexed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi="10.1/a"),
                           published_obj("zbl2", doi="10.1/b")])
        store = CorpusStore()
        store.ingest_published(path)
        assert doi_map(store.published) == {"10.1/a": "zbl1", "10.1/b": "zbl2"}

    def test_shared_doi_resolves_to_none(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi="10.1/a"),
                           published_obj("zbl2", doi="10.1/a"),
                           published_obj("zbl3", doi="10.1/a")])
        store = CorpusStore()
        store.ingest_published(path)
        assert doi_map(store.published) == {"10.1/a": None}

    def test_no_doi_no_index_entry(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi=None)])
        store = CorpusStore()
        store.ingest_published(path)
        assert doi_map(store.published) == {}

    def test_duplicate_accession_later_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", title="First"),
                           published_obj("zbl1", title="Second")])
        store = CorpusStore()
        report = store.ingest_published(path)
        assert (report.added, report.rejected) == (1, 1)
        assert store.published["zbl1"].title == "First"

    def test_equal_record_under_a_stored_accession_unchanged(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi="10.1/a"),
                           published_obj("zbl1", doi="https://doi.org/10.1/A")])
        store = CorpusStore()
        report = store.ingest_published(path)
        assert (report.added, report.unchanged, report.rejected) == (1, 1, 0)
        assert doi_map(store.published) == {"10.1/a": "zbl1"}  # not shared with itself


def matched_decision(pid="2301.00001", accession="zbl00000001",
                     outcome=OUTCOME_DOI):
    vector = (0.0, 0.0, 0.0) if outcome == OUTCOME_CLASSIFIER else None
    return MatchDecision(pid, outcome, accession, vector, TS)


class TestMerge:
    def _store(self):
        return store_with([make_preprint()], [make_published()])

    def test_merge_links_preprint_to_accession(self):
        store = self._store()
        store.merge_on_publication(matched_decision())
        assert store.merges == {"2301.00001": "zbl00000001"}
        assert "2301.00001" in store.preprints  # the preprint record stays

    def test_idempotent_byte_equal_export(self, tmp_path):
        store = self._store()
        decision = matched_decision()
        store.merge_on_publication(decision)
        store.save(tmp_path / "a")
        store.merge_on_publication(decision)
        store.save(tmp_path / "b")
        for name in ("preprints.jsonl", "published.jsonl", "decisions.jsonl",
                     "merges.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_unmatched_decision_rejected(self):
        store = self._store()
        with pytest.raises(ValueError):
            store.merge_on_publication(
                MatchDecision("2301.00001", OUTCOME_UNMATCHED, None, None, TS))

    def test_dangling_accession_errors_store_unchanged(self):
        store = self._store()
        with pytest.raises(IntegrityError):
            store.merge_on_publication(matched_decision(accession="zbl999"))
        assert not store.merges

    def test_dangling_preprint_errors(self):
        store = self._store()
        with pytest.raises(IntegrityError):
            store.merge_on_publication(matched_decision(pid="9999.99999"))

    def test_decision_for_unknown_preprint_errors(self):
        store = self._store()
        with pytest.raises(IntegrityError, match="unknown preprint 9999.99999"):
            store.record_decision(matched_decision(pid="9999.99999"))
        assert not store.decisions

    @pytest.mark.parametrize("outcome", [OUTCOME_DOI, OUTCOME_CLASSIFIER])
    def test_decision_for_unknown_accession_errors_store_unchanged(self, tmp_path,
                                                                   outcome):
        # a stored decision naming no record would fail every later load
        self._store().save(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.jsonl")}
        with open_store(tmp_path, "w") as store:
            with pytest.raises(IntegrityError,
                               match="unknown accession zbl-no-such-record"):
                store.record_decision(matched_decision(accession="zbl-no-such-record",
                                                       outcome=outcome))
            assert not store.decisions
            store.save(tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.jsonl")} == before
        assert CorpusStore.load(tmp_path).decisions == {}

    def test_remerge_into_other_accession_errors(self):
        store = store_with([make_preprint()],
                           [make_published(), make_published(accession="zbl2")])
        store.merge_on_publication(matched_decision())
        with pytest.raises(IntegrityError):
            store.merge_on_publication(matched_decision(accession="zbl2"))

    def test_unpublished_listing_excludes_matched(self):
        store = self._store()
        assert store.unpublished_preprints() == ["2301.00001"]
        store.record_decision(matched_decision())
        assert store.unpublished_preprints() == []
        assert store.unmerged_preprints() == ["2301.00001"]
        store.merge_on_publication(matched_decision())
        assert store.unmerged_preprints() == []


class TestAuthorSplitMemo:
    def _entries(self):
        for name in ("preprints.jsonl", "published.jsonl"):
            for line in (CORPUS_DIR / name).read_text("utf-8").splitlines():
                yield from json.loads(line)["authors"]

    def test_memo_equals_uncached_split(self):
        entries = list(self._entries())
        assert len(entries) > len(set(entries))  # bylines repeat, so hits occur
        for entry in entries:
            assert _parse_authors([entry], "x") == split_authors.__wrapped__(entry)

    def test_cached_value_is_a_tuple(self):
        entry = next(self._entries())
        assert type(split_authors(entry)) is tuple
        assert split_authors(entry) is split_authors(entry)

    def test_two_loads_give_equal_records(self, tmp_path):
        store = CorpusStore()
        store.ingest_preprints(CORPUS_DIR / "preprints.jsonl")
        store.ingest_published(CORPUS_DIR / "published.jsonl")
        pids, accessions = sorted(store.preprints), sorted(store.published)
        classified = MatchDecision(pids[0], OUTCOME_CLASSIFIER, accessions[0],
                                   (0.125, 1.0, 1 / 3), TS)
        for decision in (classified,
                         MatchDecision(pids[1], OUTCOME_UNMATCHED, None, None, TS),
                         MatchDecision(pids[2], OUTCOME_DOI, accessions[2], None, TS)):
            store.record_decision(decision)
        store.merge_on_publication(classified)
        store.save(tmp_path)
        first, second = CorpusStore.load(tmp_path), CorpusStore.load(tmp_path)
        assert first.preprints == second.preprints == store.preprints
        assert first.published == second.published == store.published
        assert first.decisions == second.decisions == store.decisions
        assert first.merges == second.merges == store.merges
        # each record's stored form, through JSON as in a store file, parses
        # back to the record
        for parse, table in ((preprint_from_json, store.preprints),
                             (published_from_json, store.published),
                             (decision_from_json, store.decisions)):
            for rec in table.values():
                assert parse(json.loads(json.dumps(record_to_json(rec)))) == rec


def _one_object(values) -> bool:
    values = list(values)
    return len(values) > 1 and all(v is values[0] for v in values)


class TestLoadedLayout:
    """A record holds no ``__dict__``, a loaded store one instance of each
    repeated code and stamp, and its decisions and merges hold the key
    objects of the records they name."""

    @pytest.mark.parametrize("rec", [
        make_preprint(authors=("Doe, Jane", "John Roe and Ann Poe")),
        make_published(authors=("Jane Doe",), abstract=None, msc=("57K10",)),
        MatchDecision("2301.00001", OUTCOME_CLASSIFIER, "zbl00000001", (0.5, 1.0, 0.25), TS),
    ], ids=lambda rec: type(rec).__name__)
    def test_records_are_slotted_frozen_and_stored_whole(self, rec):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, dataclasses.fields(rec)[0].name, "x")
        stored = record_to_json(rec)
        names = [f.name for f in dataclasses.fields(rec)]
        assert sorted(stored) == sorted(names)
        for name in names:
            if name == "authors":
                assert stored[name] == [a.raw for a in rec.authors]
            else:
                assert stored[name] is getattr(rec, name)
        if isinstance(rec, corpus.PreprintRecord):
            assert stored["authors"] == ["Doe, Jane", "John Roe", "Ann Poe"]

    def test_author_names_and_profile_entries_are_slotted(self):
        name = make_preprint().authors[0]
        assert not hasattr(name, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            name.family = "Roe"
        entry = authors.DocEntry()
        assert not hasattr(entry, "__dict__")
        entry.on_published_version = False  # not frozen
        assert entry == authors.DocEntry(on_published_version=False)

    @pytest.fixture
    def loaded(self, tmp_path) -> CorpusStore:
        pids = [f"2301.0000{i}" for i in range(1, 5)]
        accessions = [f"zbl0000000{i}" for i in range(1, 5)]
        store = store_with(
            [make_preprint(pid, categories=("math.CO", "math.GT"), msc=("05A15", "57K10"))
             for pid in pids],
            [make_published(accession, document_type="book", msc=("05A15",))
             for accession in accessions])
        for pid, accession in zip(pids[:3], accessions):
            decision = MatchDecision(pid, OUTCOME_DOI, accession, None, TS)
            store.record_decision(decision)
            store.merge_on_publication(decision)
        store.record_decision(MatchDecision(pids[3], OUTCOME_UNMATCHED, None, None, TS))
        store.save(tmp_path)
        return CorpusStore.load(tmp_path)

    def test_decisions_and_merges_hold_the_stored_keys(self, loaded):
        pids = {pid: pid for pid in loaded.preprints}  # value: the stored key
        accessions = {accession: accession for accession in loaded.published}
        assert len(loaded.decisions) == 4 and len(loaded.merges) == 3
        for pid, d in loaded.decisions.items():
            assert pid is d.preprint is pids[pid] is loaded.preprints[pid].id
            if d.matched_accession is not None:
                assert d.matched_accession is accessions[d.matched_accession]
        for pid, accession in loaded.merges.items():
            assert pid is pids[pid]
            assert accession is accessions[accession]

    def test_repeated_strings_are_one_object(self, loaded):
        preprints = list(loaded.preprints.values())
        published = list(loaded.published.values())
        decisions = list(loaded.decisions.values())
        assert _one_object(r.categories[0] for r in preprints)
        assert _one_object(r.categories[1] for r in preprints)
        assert _one_object([r.msc[0] for r in preprints] + [r.msc[0] for r in published])
        assert _one_object(r.msc[1] for r in preprints)
        assert _one_object(r.document_type for r in published)
        assert _one_object(d.outcome for d in decisions[:3])
        assert _one_object(d.decided_at for d in decisions)


class TestStorePersistence:
    def test_roundtrip_and_doi_index_rebuild(self, tmp_path):
        store = store_with(
            [make_preprint(doi="10.1/a")],
            [make_published(doi="10.1/a"),
             make_published(accession="zbl2", doi="10.1/b")],
        )
        store.record_decision(matched_decision())
        store.merge_on_publication(matched_decision())
        store.save(tmp_path)
        loaded = CorpusStore.load(tmp_path)
        assert loaded.preprints.keys() == store.preprints.keys()
        assert doi_map(loaded.published) == doi_map(store.published) \
            == {"10.1/a": "zbl00000001", "10.1/b": "zbl2"}
        assert loaded.merges == store.merges
        assert loaded.decisions["2301.00001"].outcome == OUTCOME_DOI

    @pytest.mark.parametrize("name, line, problem", [
        ("decisions.jsonl", {"preprint": "2301.09999", "outcome": OUTCOME_UNMATCHED,
                             "matched_accession": None, "vector": None,
                             "decided_at": TS}, "unknown preprint"),
        ("decisions.jsonl", {"preprint": "2301.00001", "outcome": OUTCOME_DOI,
                             "matched_accession": "zbl9", "vector": None,
                             "decided_at": TS}, "unknown accession"),
        ("decisions.jsonl", {"preprint": "2301.00001", "matched_accession": None,
                             "vector": None, "decided_at": TS}, "missing field 'outcome'"),
        ("decisions.jsonl", {"preprint": "2301.00001", "outcome": OUTCOME_CLASSIFIER,
                             "matched_accession": "zbl00000001", "vector": ["a", "b", "c"],
                             "decided_at": TS}, "vector"),
        ("decisions.jsonl", {"preprint": "2301.00001", "outcome": OUTCOME_DOI,
                             "matched_accession": "zbl00000001", "vector": None,
                             "decided_at": 5}, "decided_at"),
        ("merges.jsonl", {"preprint": "2301.09999", "accession": "zbl00000001"},
         "unknown preprint"),
        ("merges.jsonl", {"preprint": "2301.00001", "accession": "zbl9"},
         "unknown accession"),
        ("merges.jsonl", {"preprint": "2301.00001"}, "keys preprint and accession"),
        ("merges.jsonl", {"preprint": "2301.00001", "accession": None},
         "unknown accession None"),
        ("decisions.jsonl", ["2301.00001"], "decision must be a JSON object"),
        ("preprints.jsonl", [preprint_obj()], "record must be a JSON object"),
        ("published.jsonl", "zbl00000001", "record must be a JSON object"),
        ("preprints.jsonl", preprint_obj(authors=["Jane Doe", 7]),
         "author entries must be non-empty strings"),
        ("published.jsonl", published_obj(source=None), "source must be a string"),
        ("published.jsonl", published_obj(" "), "accession must be a non-empty string"),
        ("published.jsonl", published_obj(abstract=7), "abstract must be a string or null"),
    ])
    def test_load_rejects_bad_decision_or_merge(self, tmp_path, name, line, problem):
        store_with([make_preprint()], [make_published()]).save(tmp_path)
        write_jsonl(tmp_path / name, [line])
        with pytest.raises(RecordError, match=problem) as exc:
            CorpusStore.load(tmp_path)
        assert name in str(exc.value)

    @pytest.mark.parametrize("name", ["preprints.jsonl", "published.jsonl",
                                      "decisions.jsonl", "merges.jsonl"])
    def test_load_rejects_repeated_key(self, tmp_path, name):
        store = store_with([make_preprint()], [make_published()])
        store.record_decision(matched_decision())
        store.merge_on_publication(matched_decision())
        store.save(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() * 2)
        with pytest.raises(RecordError, match=f"{name}:2: repeated"):
            CorpusStore.load(tmp_path)

    def test_load_rejects_invalid_utf8(self, tmp_path):
        store = store_with([make_preprint()], [make_published()])
        store.merge_on_publication(matched_decision())
        store.save(tmp_path)
        with open(tmp_path / "merges.jsonl", "ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(RecordError, match="merges.jsonl:2: invalid UTF-8"):
            CorpusStore.load(tmp_path)

    def test_load_rejects_surrogate_escape(self, tmp_path):
        store_with([make_preprint()], [make_published()]).save(tmp_path)
        with open(tmp_path / "published.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(published_obj("zbl2", title="\udfff")) + "\n")
        with pytest.raises(RecordError,
                           match="published.jsonl:2: unpaired surrogate escape"):
            CorpusStore.load(tmp_path)

    def test_load_rejects_line_nested_past_the_recursion_limit(self, tmp_path):
        store_with([make_preprint()], [make_published()]).save(tmp_path)
        with open(tmp_path / "published.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{\"a\": " * 100_000 + "\n")
        with pytest.raises(RecordError,
                           match="published.jsonl:2: malformed JSON: nested too deeply"):
            CorpusStore.load(tmp_path)

    def test_load_rejects_integer_past_the_digit_limit(self, tmp_path):
        store_with([make_preprint()], [make_published()]).save(tmp_path)
        with open(tmp_path / "preprints.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"id": 1' + "9" * 5000 + "}\n")
        with pytest.raises(RecordError,
                           match="preprints.jsonl:2: malformed JSON: Exceeds the limit"):
            CorpusStore.load(tmp_path)

    @pytest.mark.parametrize("field, value, problem", [
        ("id", "2301.00002\n", "invalid arXiv identifier"),
        ("msc", ["14H52\n"], "invalid MSC code"),
    ])
    def test_load_rejects_trailing_newline(self, tmp_path, field, value, problem):
        store_with([make_preprint()], [make_published()]).save(tmp_path)
        with open(tmp_path / "preprints.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(preprint_obj(pid="2301.00002", **{field: value})) + "\n")
        with pytest.raises(RecordError, match=f"preprints.jsonl:2: .*{problem}"):
            CorpusStore.load(tmp_path)

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old")
        with pytest.raises(ZeroDivisionError):
            with write_atomic(path) as fh:
                fh.write("new")
                1 / 0
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_ingest_deterministic_export(self, tmp_path):
        objs = [preprint_obj(f"2301.0000{i}", title=f"T {i}") for i in range(1, 5)]
        path = tmp_path / "p.jsonl"
        write_jsonl(path, objs)
        exports = []
        for run in ("x", "y"):
            store = CorpusStore()
            store.ingest_preprints(path)
            out = tmp_path / run
            store.save(out)
            exports.append((out / "preprints.jsonl").read_bytes())
        assert exports[0] == exports[1]

    def test_withdrawn_stays_listed(self, tmp_path):
        # a withdrawal arrives as a newer version carrying the flag
        v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
        write_jsonl(v1, [preprint_obj()])
        write_jsonl(v2, [preprint_obj(version=2, withdrawn=True)])
        store = CorpusStore()
        store.ingest_preprints(v1)
        report = store.ingest_preprints(v2)
        assert (report.added, report.replaced, report.rejected) == (0, 1, 0)
        assert store.preprints["2301.00001"].withdrawn
        assert store.unpublished_preprints() == ["2301.00001"]
        report = store.ingest_preprints(v1)  # an older version cannot undo it
        assert report.rejected == 1
        assert store.preprints["2301.00001"].withdrawn


TABLES = ("preprints.jsonl", "published.jsonl", "decisions.jsonl", "merges.jsonl")


def _stamps(directory: Path) -> dict[str, tuple[int, int]]:
    """(inode, mtime) per table file; a replaced file gets a new inode."""
    return {n: ((directory / n).stat().st_ino, (directory / n).stat().st_mtime_ns)
            for n in TABLES}


def _change_preprints(store, tmp):
    write_jsonl(tmp / "in.jsonl", [preprint_obj("2301.00003")])
    assert store.ingest_preprints(tmp / "in.jsonl").added == 1


def _replace_preprint(store, tmp):
    write_jsonl(tmp / "in.jsonl", [preprint_obj("2301.00002", version=2)])
    assert store.ingest_preprints(tmp / "in.jsonl").replaced == 1


def _change_published(store, tmp):
    write_jsonl(tmp / "in.jsonl", [published_obj("zbl3")])
    assert store.ingest_published(tmp / "in.jsonl").added == 1


def _change_decision(store, tmp):
    store.record_decision(matched_decision("2301.00002", "zbl2"))


def _restamp_decision(store, tmp):
    store.record_decision(MatchDecision("2301.00001", OUTCOME_DOI, "zbl00000001",
                                        None, "2024-01-02T00:00:00Z"))


def _change_merges(store, tmp):
    store.merge_on_publication(matched_decision("2301.00002", "zbl2"))


@pytest.fixture()
def saved(tmp_path) -> Path:
    """A saved store whose four tables each hold a line."""
    store = store_with([make_preprint(), make_preprint("2301.00002")],
                       [make_published(doi="10.1/a"), make_published("zbl2")])
    store.record_decision(matched_decision())
    store.merge_on_publication(matched_decision())
    store.save(tmp_path / "store")
    return tmp_path / "store"


class TestSaveSkipsCleanTables:
    def test_unchanged_store_writes_nothing(self, saved):
        before = _stamps(saved)
        store = CorpusStore.load(saved)
        store.record_decision(matched_decision())  # equal to the stored one
        store.merge_on_publication(matched_decision())  # already merged
        write_jsonl(saved.parent / "old.jsonl", [preprint_obj(), published_obj()])
        store.ingest_preprints(saved.parent / "old.jsonl")  # all rejected
        store.ingest_published(saved.parent / "old.jsonl")
        store.save(saved)
        assert _stamps(saved) == before

    @pytest.mark.parametrize("change, name", [
        (_change_preprints, "preprints.jsonl"),
        (_replace_preprint, "preprints.jsonl"),
        (_change_published, "published.jsonl"),
        (_change_decision, "decisions.jsonl"),
        (_restamp_decision, "decisions.jsonl"),
        (_change_merges, "merges.jsonl"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_a_change_rewrites_only_its_table(self, saved, change, name):
        before = _stamps(saved)
        store = CorpusStore.load(saved)
        change(store, saved.parent)
        store.save(saved)
        after = _stamps(saved)
        assert [n for n in TABLES if after[n] != before[n]] == [name]
        CorpusStore.load(saved).save(saved.parent / "fresh")
        for n in TABLES:
            assert (saved / n).read_bytes() == (saved.parent / "fresh" / n).read_bytes()
        again = _stamps(saved)
        store.save(saved)  # the written file is clean now
        assert _stamps(saved) == again

    def test_save_elsewhere_writes_every_file(self, saved, tmp_path):
        CorpusStore.load(saved).save(tmp_path / "copy")
        for n in TABLES:
            assert (tmp_path / "copy" / n).read_bytes() == (saved / n).read_bytes()

    def test_save_elsewhere_moves_the_home(self, saved, tmp_path):
        copy = tmp_path / "copy"
        store = CorpusStore.load(saved)
        store.save(copy)
        written = _stamps(copy)
        store.save(copy)  # the copy is the store's home now, and all clean
        assert _stamps(copy) == written
        _change_merges(store, tmp_path)
        store.save(copy)
        changed = _stamps(copy)
        assert [n for n in TABLES if changed[n] != written[n]] == ["merges.jsonl"]
        loaded = _stamps(saved)
        store.save(saved)  # no longer the home: every file is replaced
        replaced = _stamps(saved)
        assert [n for n in TABLES if replaced[n][0] != loaded[n][0]] == list(TABLES)
        for n in TABLES:
            assert (saved / n).read_bytes() == (copy / n).read_bytes()

    def test_paths_compare_as_absolute(self, saved, tmp_path, monkeypatch):
        before = _stamps(saved)
        monkeypatch.chdir(tmp_path)
        store = CorpusStore.load("store")
        store.save(saved)  # the same directory, spelled absolute
        assert _stamps(saved) == before
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        store.save("store")  # a relative path that now names another directory
        for n in TABLES:
            assert (tmp_path / "elsewhere" / "store" / n).read_bytes() == \
                (saved / n).read_bytes()

    def test_missing_file_is_written(self, saved):
        before = _stamps(saved)
        (saved / "merges.jsonl").unlink()
        (saved / "decisions.jsonl").unlink()
        CorpusStore.load(saved).save(saved)
        after = _stamps(saved)
        for n in ("preprints.jsonl", "published.jsonl"):
            assert after[n] == before[n]
        assert (saved / "merges.jsonl").read_bytes() == b""
        assert (saved / "decisions.jsonl").read_bytes() == b""

    def test_hand_edited_file_keeps_its_bytes_until_its_table_changes(self, saved):
        path = saved / "published.jsonl"
        edited = b"".join(reversed(path.read_bytes().splitlines(True)))
        path.write_bytes(edited)  # unsorted, but load accepts it
        store = CorpusStore.load(saved)
        store.save(saved)
        assert path.read_bytes() == edited
        _change_published(store, saved.parent)
        store.save(saved)
        CorpusStore.load(saved).save(saved.parent / "fresh")
        assert path.read_bytes() == (saved.parent / "fresh" / path.name).read_bytes()

    def test_failed_encoding_renames_nothing(self, saved, monkeypatch):
        # published.jsonl is encoded before preprints.jsonl is renamed, so an
        # encoder that fails leaves every file as it was and no .tmp file
        before = {n: (saved / n).read_bytes() for n in TABLES}
        store = CorpusStore.load(saved)
        _change_preprints(store, saved.parent)
        _change_published(store, saved.parent)

        encode = corpus.record_to_json

        def fail(rec):
            if isinstance(rec, corpus.PublishedRecord):
                raise RuntimeError("cannot encode")
            return encode(rec)

        fresh = saved.parent / "fresh"
        with monkeypatch.context() as m:
            m.setattr(corpus, "record_to_json", fail)
            for directory in (saved, fresh):
                with pytest.raises(RuntimeError, match="cannot encode"):
                    store.save(directory)
        assert {p.name: p.read_bytes() for p in saved.iterdir()} == before
        assert list(fresh.iterdir()) == []
        store.save(saved)  # both tables are still stale
        assert [n for n in TABLES if (saved / n).read_bytes() != before[n]] == \
            ["preprints.jsonl", "published.jsonl"]
        CorpusStore.load(saved).save(fresh)
        for n in TABLES:
            assert (saved / n).read_bytes() == (fresh / n).read_bytes()


def _full_encode(saved: Path, name: str) -> list[bytes]:
    """The lines of ``name`` as a save of the reloaded store elsewhere
    writes them: every record encoded."""
    fresh = saved.parent / "fresh"
    CorpusStore.load(saved).save(fresh)
    return (fresh / name).read_bytes().splitlines(True)


def _url_doi_line(saved: Path) -> bytes:
    """published.jsonl's first line with its DOI in URL form, which load
    accepts and save would not write."""
    obj = json.loads((saved / "published.jsonl").read_bytes().splitlines()[0])
    obj["doi"] = "https://doi.org/" + obj["doi"]
    return json.dumps(obj).encode() + b"\n"


class TestSaveCopiesUnchangedLines:
    """Save into the home copies the line of every record not written
    since the load from the file load read, when that file is sorted and
    still the one load read; it encodes every other record."""

    def test_a_hand_edited_line_stays_when_its_table_grows(self, saved):
        path = saved / "published.jsonl"
        lines = path.read_bytes().splitlines(True)
        edited = _url_doi_line(saved)
        path.write_bytes(edited + lines[1])
        store = CorpusStore.load(saved)
        _change_published(store, saved.parent)
        store.save(saved)
        expected = _full_encode(saved, path.name)
        assert expected[0] != edited
        assert path.read_bytes() == b"".join([edited, *expected[1:]])
        assert CorpusStore.load(saved).published == store.published

    def test_a_replaced_record_is_encoded(self, saved):
        path = saved / "preprints.jsonl"
        # each line with json.dumps's spaces, which save does not write
        edited = [json.dumps(json.loads(line)).encode() + b"\n"
                  for line in path.read_bytes().splitlines()]
        path.write_bytes(b"".join(edited))
        store = CorpusStore.load(saved)
        _replace_preprint(store, saved.parent)  # 2301.00002, the second line
        store.save(saved)
        expected = _full_encode(saved, path.name)
        assert expected[1] != edited[1]
        assert path.read_bytes().splitlines(True) == [edited[0], expected[1]]

    def test_an_unsorted_file_is_encoded_in_full(self, saved):
        path = saved / "published.jsonl"
        lines = path.read_bytes().splitlines(True)
        path.write_bytes(lines[1] + _url_doi_line(saved))
        store = CorpusStore.load(saved)
        _change_published(store, saved.parent)
        store.save(saved)
        assert path.read_bytes().splitlines(True) == _full_encode(saved, path.name)

    @pytest.mark.parametrize("how", ["renamed-over", "rewritten-in-place"])
    def test_a_file_replaced_after_the_load_is_encoded_from_memory(self, saved, how):
        path = saved / "published.jsonl"
        store = CorpusStore.load(saved)
        lines = path.read_bytes().splitlines(True)
        other = _url_doi_line(saved) + lines[1]  # the same records, other bytes
        if how == "renamed-over":
            (saved / "other").write_bytes(other)
            (saved / "other").replace(path)
        else:
            path.write_bytes(other)
        _change_published(store, saved.parent)
        store.save(saved)
        assert path.read_bytes().splitlines(True) == _full_encode(saved, path.name)

    def test_line_endings_and_blank_lines(self, saved):
        path = saved / "preprints.jsonl"
        first, second = path.read_bytes().splitlines()
        # blank lines are those load skips: only JSON whitespace
        path.write_bytes(b"\n" + first + b"\r\n \t\r\n\n" + second)
        store = CorpusStore.load(saved)
        _change_preprints(store, saved.parent)  # 2301.00003 sorts last
        store.save(saved)
        expected = _full_encode(saved, path.name)
        assert path.read_bytes().splitlines(True) == \
            [first + b"\r\n", second + b"\n", expected[2]]
        assert CorpusStore.load(saved).preprints == store.preprints

    def test_a_new_key_is_written_in_key_order(self, saved):
        path = saved / "preprints.jsonl"
        write_jsonl(saved.parent / "in.jsonl",
                    [preprint_obj("2301.00003"), preprint_obj("2301.00000")])
        store = CorpusStore.load(saved)
        assert store.ingest_preprints(saved.parent / "in.jsonl").added == 2
        store.save(saved)
        assert [json.loads(line)["id"] for line in path.read_bytes().splitlines()] == \
            ["2301.00000", "2301.00001", "2301.00002", "2301.00003"]
        assert path.read_bytes().splitlines(True) == _full_encode(saved, path.name)

    def test_a_failed_copy_renames_nothing(self, saved):
        # published.jsonl is written before preprints.jsonl is opened, so a
        # home file gone before the copy leaves the rest as they were
        store = CorpusStore.load(saved)
        _change_preprints(store, saved.parent)
        _change_published(store, saved.parent)
        kept = (saved / "preprints.jsonl").read_bytes()
        (saved / "preprints.jsonl").unlink()
        before = {p.name: p.read_bytes() for p in saved.iterdir()}
        with pytest.raises(FileNotFoundError):
            store.save(saved)
        assert {p.name: p.read_bytes() for p in saved.iterdir()} == before
        (saved / "preprints.jsonl").write_bytes(kept)
        stamp = _stamps(saved)["preprints.jsonl"]
        store.save(saved)  # the file is back, but not the one load read
        assert _stamps(saved)["preprints.jsonl"] != stamp
        for n in TABLES:
            assert (saved / n).read_bytes().splitlines(True) == _full_encode(saved, n)


class TestTablesLeftOut:
    """A load that leaves a table out does not parse its file: any use of
    the table raises, so it never reads as empty, and save leaves its file
    as it is."""

    @pytest.mark.parametrize("tables, left_out", [
        (["preprints"], ["published", "decisions", "merges"]),
        (["published"], ["preprints", "decisions", "merges"]),
        (["preprints", "published"], ["decisions", "merges"]),
        (["decisions"], ["merges"]),  # decisions name preprints and accessions
        (["merges"], ["decisions"]),
    ])
    def test_reading_a_table_left_out_raises(self, saved, tables, left_out):
        full = CorpusStore.load(saved)
        store = CorpusStore.load(saved, tables)
        for table in corpus.TABLES:
            if table in left_out:
                with pytest.raises(StoreError, match=f"{table}.jsonl was not loaded"):
                    getattr(store, table, {})
            else:
                assert getattr(store, table) == getattr(full, table)
        with pytest.raises(AttributeError, match="has no attribute 'doi_index'"):
            store.doi_index  # not a table, and nothing derived is kept
        if "published" in left_out:
            with pytest.raises(StoreError, match="published.jsonl was not loaded"):
                doi_map(store.published)
        else:
            assert doi_map(store.published)["10.1/a"] == "zbl00000001"

    @pytest.mark.parametrize("tables, change", [
        (["published"], _change_preprints),
        (["preprints"], _change_published),
        (["preprints", "published"], _change_decision),
        (["decisions"], _change_merges),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_writing_a_table_left_out_raises(self, saved, tables, change):
        before = _stamps(saved)
        store = CorpusStore.load(saved, tables)
        with pytest.raises(StoreError, match="was not loaded"):
            change(store, saved.parent)
        store.save(saved)
        assert _stamps(saved) == before

    def test_save_replaces_only_the_changed_table(self, saved):
        before = _stamps(saved)
        oracle = CorpusStore.load(saved)
        _change_preprints(oracle, saved.parent)
        oracle.save(saved.parent / "fresh")
        store = CorpusStore.load(saved, ["preprints"])
        _change_preprints(store, saved.parent)
        store.save(saved)
        after = _stamps(saved)
        assert [n for n in TABLES if after[n] != before[n]] == ["preprints.jsonl"]
        for n in TABLES:
            assert (saved / n).read_bytes() == (saved.parent / "fresh" / n).read_bytes()

    def test_missing_table_left_out_is_written_empty(self, saved):
        before = _stamps(saved)
        (saved / "merges.jsonl").unlink()
        store = CorpusStore.load(saved, ["preprints"])
        assert store.merges == {}
        store.save(saved)
        after = _stamps(saved)
        assert [n for n in TABLES if after[n] != before[n]] == ["merges.jsonl"]
        assert (saved / "merges.jsonl").read_bytes() == b""

    def test_save_elsewhere_with_a_table_left_out_raises(self, saved, tmp_path):
        store = CorpusStore.load(saved, ["preprints", "published"])
        with pytest.raises(StoreError, match="was not loaded"):
            store.save(tmp_path / "copy")
        assert list((tmp_path / "copy").iterdir()) == []

    def test_unknown_table_is_refused(self, saved):
        with pytest.raises(ValueError, match=r"unknown tables: \['profiles'\]"):
            CorpusStore.load(saved, ["preprints", "profiles"])


class TestStoreProperties:
    def test_doi_index_inversion_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            published = []
            for i in range(n):
                doi = f"10.1/d{rng.integers(0, 8)}" if rng.random() < 0.7 else None
                published.append(make_published(accession=f"zbl{i:08d}", doi=doi))
            store = store_with([], published)
            dois = doi_map(store.published)
            assert set(dois) == {rec.doi for rec in published} - {None}
            for doi in dois:
                carriers = [acc for acc, rec in store.published.items() if rec.doi == doi]
                assert dois[doi] == (carriers[0] if len(carriers) == 1 else None)

    def test_one_entry_per_id_version_monotone(self, tmp_path):
        rng = np.random.default_rng(12)
        for round_no in range(30):
            store = CorpusStore()
            last_version = {}
            for batch in range(3):
                objs = []
                for _ in range(int(rng.integers(1, 8))):
                    pid = f"2301.{int(rng.integers(1, 5)):05d}"
                    objs.append(preprint_obj(pid, version=int(rng.integers(1, 6))))
                path = tmp_path / f"r{round_no}_{batch}.jsonl"
                write_jsonl(path, objs)
                store.ingest_preprints(path)
                ids = [r.id for r in store.preprints.values()]
                assert len(ids) == len(set(ids))
                for pid, rec in store.preprints.items():
                    assert rec.version >= last_version.get(pid, 1)
                    last_version[pid] = rec.version

    def test_save_into_the_home_equals_a_save_elsewhere(self, tmp_path):
        # random days of ingests, decisions and merges, each loaded from and
        # saved into the home as a command does: every line save copies
        # equals the line a full encode writes
        rng = np.random.default_rng(13)
        titles = ["On Knots", "Über Knoten", "李 小龙", 'A "quoted" \\ title']
        for round_no in range(12):
            home = tmp_path / f"home{round_no}"
            store_with().save(home)
            for day in range(5):
                tables = corpus.TABLES if rng.random() < 0.5 else \
                    [("preprints", "published")[int(rng.integers(0, 2))]]
                store = CorpusStore.load(home, tables)
                batch = tmp_path / "batch.jsonl"
                if "preprints" in tables:
                    write_jsonl(batch, [preprint_obj(
                        f"2301.{int(rng.integers(0, 300)):05d}",
                        version=int(rng.integers(1, 4)),
                        title=titles[int(rng.integers(0, len(titles)))])
                        for _ in range(int(rng.integers(0, 12)))])
                    store.ingest_preprints(batch)
                if "published" in tables:
                    write_jsonl(batch, [published_obj(
                        f"zbl{int(rng.integers(0, 300)):08d}",
                        title=titles[int(rng.integers(0, len(titles)))])
                        for _ in range(int(rng.integers(0, 12)))])
                    store.ingest_published(batch)
                if "decisions" in tables and store.published:
                    accessions = sorted(store.published)
                    for pid in sorted(store.preprints):
                        if rng.random() < 0.3:
                            continue
                        acc = accessions[int(rng.integers(0, len(accessions)))]
                        if pid in store.merges or rng.random() < 0.5:
                            acc = store.merges.get(pid, acc)
                            decision = matched_decision(pid, acc)
                        else:
                            decision = MatchDecision(pid, OUTCOME_UNMATCHED, None,
                                                     None, f"2024-01-0{day + 1}T00:00:00Z")
                        store.record_decision(decision)
                        if decision.matched and rng.random() < 0.5:
                            store.merge_on_publication(decision)
                store.save(home)
                # the home's files hold the store, and are the full encode of it
                reloaded = CorpusStore.load(home)
                for table in tables:
                    assert getattr(reloaded, table) == getattr(store, table)
                elsewhere = tmp_path / f"elsewhere{round_no}-{day}"
                reloaded.save(elsewhere)
                for name in TABLES:
                    assert (home / name).read_bytes() == (elsewhere / name).read_bytes()

    def test_decision_bound(self):
        store = store_with([make_preprint()], [make_published()])
        store.record_decision(matched_decision())
        store.record_decision(matched_decision())  # overwrite, not append
        matched = [d for d in store.decisions.values()
                   if d.outcome != OUTCOME_UNMATCHED]
        assert len(matched) <= len(store.preprints)
        assert len(store.decisions) == 1


def _fuzz_base_store() -> dict[str, bytes]:
    """The files of a saved 3-record store with every kind of line."""
    store = store_with(
        [make_preprint(f"2301.0000{i}", msc=("05A15",), doi=f"10.1/{i}") for i in (1, 2, 3)],
        [make_published(f"zbl0000000{i}", doi=f"10.1/{i}") for i in (1, 2, 3)],
    )
    store.record_decision(matched_decision("2301.00001", "zbl00000001"))
    store.record_decision(matched_decision("2301.00002", "zbl00000002", OUTCOME_CLASSIFIER))
    store.record_decision(MatchDecision("2301.00003", OUTCOME_UNMATCHED, None, None, TS))
    store.merge_on_publication(matched_decision("2301.00001", "zbl00000001"))
    return _saved_files(store)


def _saved_files(store: CorpusStore) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        store.save(tmp)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


FUZZ_BASE = _fuzz_base_store()
OTHER_JSON = [None, True, 0, 2.5, "x", [], ["x"], {}, {"x": 1}]
NOT_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"]
# json.dumps escapes these; the last is a valid pair
SURROGATES = ["\ud800", "a\udfffb", ["x\udc00"], "\U0001f600"]


def _mutate(data: bytes, op: tuple) -> bytes:
    kind, i, j, k = op
    lines = data.splitlines(keepends=True)
    if kind == "flip" and data:
        at = i % len(data)
        return data[:at] + bytes([data[at] ^ (j % 255 + 1)]) + data[at + 1:]
    if kind == "truncate":
        return data[:i % (len(data) + 1)]
    if kind == "duplicate" and lines:
        line = lines[i % len(lines)]
        lines.insert(j % (len(lines) + 1), line if line.endswith(b"\n") else line + b"\n")
        return b"".join(lines)
    if kind == "not_utf8":
        at = i % (len(data) + 1)
        return data[:at] + NOT_UTF8[j % len(NOT_UTF8)] + data[at:]
    if kind in ("swap", "surrogate") and lines:
        at = i % len(lines)
        try:
            obj = json.loads(lines[at])
        except ValueError:
            return data  # an earlier mutation broke this line
        if not isinstance(obj, dict) or not obj:
            return data
        key = sorted(obj)[j % len(obj)]
        others = SURROGATES if kind == "surrogate" else \
            [v for v in OTHER_JSON if type(v) is not type(obj[key])]
        obj[key] = others[k % len(others)]
        lines[at] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        return b"".join(lines)
    return data


FUZZ_OPS = st.lists(
    st.tuples(st.sampled_from(sorted(FUZZ_BASE)),
              st.tuples(st.sampled_from(["flip", "truncate", "duplicate", "swap"]),
                        st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                        st.integers(0, 1 << 16))),
    min_size=1, max_size=3)


class TestStoreFuzz:
    @settings(max_examples=200, deadline=None)
    @given(FUZZ_OPS)
    def test_corrupt_store_loads_or_is_rejected(self, ops):
        files = dict(FUZZ_BASE)
        for name, op in ops:
            files[name] = _mutate(files[name], op)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                (Path(tmp) / name).write_bytes(data)
            try:
                CorpusStore.load(tmp)
                loaded = True
            except RecordError:
                loaded = False
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["stats", "--store", tmp])
        if loaded:
            assert code == 0
            assert json.loads(out.getvalue())["preprints_total"] <= 3
            assert err.getvalue() == ""
        else:
            assert code == 1
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"].startswith("RecordError: ")


def _dumps(objects) -> bytes:
    return b"".join(json.dumps(o).encode() + b"\n" if o else b"\n" for o in objects)


# a saved 1+1 store and one day's input files: every line is added, replaced
# or rejected, and each file has a blank line
INGEST_STORE = _saved_files(store_with([make_preprint()], [make_published(doi="10.1/1")]))
INGEST_INPUT = {
    "preprints": _dumps([preprint_obj("2301.00002", msc=["05A15"], doi="10.1/2"),
                         preprint_obj("2301.00001", version=2, title="Knots II"),
                         preprint_obj("2301.00002"), None,
                         preprint_obj("2301.00003", authors=["Doe, Jane; Roe, John"])]),
    "published": _dumps([published_obj("zbl00000002", doi="10.1/2"),
                         published_obj("zbl00000001"), None,
                         published_obj("zbl00000003", abstract=None, msc=["05A15"])]),
}
INGEST_OPS = st.lists(
    st.tuples(st.sampled_from(sorted(INGEST_INPUT)),
              st.tuples(st.sampled_from(["flip", "truncate", "duplicate", "swap",
                                         "not_utf8", "surrogate"]),
                        st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                        st.integers(0, 1 << 16))),
    min_size=1, max_size=3)


def _non_blank_lines(data: bytes) -> list[int]:
    """Numbers of the lines ingest reads as records, as it splits them."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [n for n, raw in enumerate(lines, 1) if raw.strip(b" \t\r")]


class TestIngestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(INGEST_OPS)
    def test_each_line_counted_once_or_ingest_fails_whole(self, ops):
        inputs = dict(INGEST_INPUT)
        for name, op in ops:
            inputs[name] = _mutate(inputs[name], op)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            store = tmp / "store"
            store.mkdir()
            for name, data in INGEST_STORE.items():
                (store / name).write_bytes(data)
            for name, data in inputs.items():
                (tmp / f"{name}.jsonl").write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["ingest", "--preprints", str(tmp / "preprints.jsonl"),
                             "--published", str(tmp / "published.jsonl"),
                             "--store", str(store)])
            files = {p.name: p.read_bytes() for p in store.iterdir() if p.name != ".lock"}
            if code == 0:
                loaded = CorpusStore.load(store)
                loaded.save(tmp / "resaved")
                resaved = {p.name: p.read_bytes() for p in (tmp / "resaved").iterdir()}
        if code == 1:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]
            assert files == INGEST_STORE
            return
        assert code == 0
        assert err.getvalue() == ""
        report = json.loads(out.getvalue())
        for name, records in (("preprints", loaded.preprints),
                              ("published", loaded.published)):
            counts = report[name]
            lines = _non_blank_lines(inputs[name])
            assert counts["added"] + counts["replaced"] + counts["unchanged"] \
                + counts["rejected"] == len(lines)
            rejected = [e["line"] for e in counts["errors"]]
            assert len(set(rejected)) == len(rejected) == counts["rejected"]
            assert set(rejected) <= set(lines)
            assert len(records) == 1 + counts["added"]
        assert resaved == files


def _loads_oracle(line: str):
    """What a line read the json.loads way gives: ``("skip",)`` for a blank
    line, ``("value", repr(value))`` or ``("reject", reason)``."""
    if not line.strip(" \t\r\n"):
        return ("skip",)
    try:
        value = json.loads(line)
        if "\\" in line and re.search(r"\\u[dD][89a-fA-F]", line):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        return ("reject", f"malformed JSON: {exc.msg}")
    except RecursionError:
        return ("reject", "malformed JSON: nested too deeply")
    except UnicodeEncodeError:
        return ("reject", "unpaired surrogate escape")
    except ValueError as exc:
        return ("reject", f"malformed JSON: {exc}")
    return ("value", repr(value))  # repr tells 1 from 1.0, and nan equals nan


def _read_one_line(directory: Path, line: str):
    """What ``_read_jsonl`` gives for a file holding only ``line``."""
    path = directory / "one.jsonl"
    path.write_bytes(line.encode("utf-8"))
    rejected = []
    values = list(corpus._read_jsonl(path, lambda v: v,
                                     lambda n, reason: rejected.append(reason)))
    if values:
        return ("value", repr(values[0][1]))
    return ("reject", rejected[0]) if rejected else ("skip",)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# JSON whitespace, other whitespace, a BOM and a few JSON tokens
LINE_EDGES = st.text(alphabet=" \t\r\x0c\xa0\ufeff {}[],:1x\"", max_size=3)
ONE_LINE_TEXTS = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=30),
    st.builds(lambda head, value, tail: head + json.dumps(value) + tail,
              LINE_EDGES, JSON_VALUES, LINE_EDGES),
    st.builds(lambda head, value, tail: head + json.dumps(value, ensure_ascii=False,
                                                         separators=(",", ":")) + tail,
              LINE_EDGES, JSON_VALUES, LINE_EDGES),
)


class TestDecoderPath:
    """_read_jsonl decodes a line in one decoder call, and gives every line
    the value or the reason that json.loads gives it."""

    @pytest.mark.parametrize("line", [
        ' {"a":1}',
        '{"a":1}\x0c',
        '{"a":1}\xa0',
        '\ufeff{"a":1}',
        '{"a":1}{"b":2}',
        '1,2',
        "[" * 100_000,
        "9" * 5000,
        "NaN",
        "-Infinity",
        '"\\ud800"',
        '{"a":1}\r\n',
        '{"a":1} \t\r\n',
    ], ids=["leading-space", "trailing-form-feed", "trailing-nbsp", "bom",
            "two-objects", "two-numbers", "nested-100k", "digits-5000", "nan",
            "minus-infinity", "surrogate", "crlf", "json-whitespace"])
    def test_edge_cases_equal_json_loads(self, tmp_path, line):
        assert _read_one_line(tmp_path, line) == _loads_oracle(line)

    @settings(max_examples=300, deadline=None)
    @given(ONE_LINE_TEXTS, st.sampled_from(["", "\n", "\r\n"]))
    def test_any_line_equals_json_loads(self, text, ending):
        line = text + ending
        with tempfile.TemporaryDirectory() as tmp:
            assert _read_one_line(Path(tmp), line) == _loads_oracle(line)


class TestSharedEncoder:
    def test_lines_equal_json_dumps(self, monkeypatch, tmp_path):
        preprint = make_preprint(title="Über Knoten", authors=("Jürgen Müller",
                                                                "Zoë Ødegård; 李 小龙"))
        published = make_published(abstract=None, doi="10.1/a")
        decision = MatchDecision("2301.00001", OUTCOME_CLASSIFIER, "zbl00000001",
                                 (0.1 + 0.2, 1e-07, 1), TS)
        store = store_with([preprint], [published])
        store.merge_on_publication(decision)
        profile_lines = []
        monkeypatch.setattr(authors, "write_jsonl",
                            lambda path, objects: profile_lines.extend(objects))
        authors.build_profiles(store).export_jsonl("unused")
        objects = [record_to_json(preprint), record_to_json(published),
                   record_to_json(decision),
                   {"preprint": "2301.00001", "accession": "zbl00000001"},
                   *profile_lines]
        assert len(profile_lines) == 3
        corpus.write_jsonl(tmp_path / "lines.jsonl", objects)
        expected = "".join(json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                      separators=(",", ":")) + "\n" for obj in objects)
        assert (tmp_path / "lines.jsonl").read_bytes().decode("utf-8") == expected
        assert "Jürgen Müller" in expected and "0.30000000000000004" in expected


class TestDoiMap:
    """doi_map is computed from the published table it is given: the store
    keeps no copy of it, so a map built after an ingest sees the records
    that ingest added."""

    def test_load_gives_one_accession_per_doi(self, tmp_path):
        store_with([make_preprint()],
                   [make_published(doi="10.1/a"),
                    make_published("zbl2", doi="10.1/a"),
                    make_published("zbl3", doi="10.1/b"),
                    make_published("zbl4")]).save(tmp_path / "store")
        loaded = CorpusStore.load(tmp_path / "store")
        assert doi_map(loaded.published) == {"10.1/a": None, "10.1/b": "zbl3"}
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl5", doi="10.1/b"),
                           published_obj("zbl6", doi="10.1/c")])
        assert loaded.ingest_published(path).added == 2
        # a second carrier of a stored DOI, and a new DOI
        assert doi_map(loaded.published) == {"10.1/a": None, "10.1/b": None,
                                             "10.1/c": "zbl6"}


def _gc_state() -> tuple[bool, int]:
    return gc.isenabled(), gc.get_freeze_count()


class TestOpenStoreCollector:
    """open_store pauses the collector while it loads, freezes what the
    collector tracks for the block, and leaves the collector as it found it
    however the block ends; a caller that manages the collector is left
    alone."""

    @pytest.fixture()
    def store_dir(self, tmp_path) -> Path:
        store_with([make_preprint()], [make_published()]).save(tmp_path / "store")
        assert _gc_state() == (True, 0)
        yield tmp_path / "store"
        gc.enable()
        gc.unfreeze()

    def _load_sees(self, monkeypatch) -> list:
        seen = []
        load = CorpusStore.load.__func__

        def recording(cls, *args):
            seen.append(gc.isenabled())
            return load(cls, *args)

        monkeypatch.setattr(CorpusStore, "load", classmethod(recording))
        return seen

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_normal_block(self, store_dir, monkeypatch, mode):
        seen = self._load_sees(monkeypatch)
        with open_store(store_dir, mode) as store:
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
            assert store.published
        assert seen == [False]
        assert _gc_state() == (True, 0)

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_block_that_raises(self, store_dir, mode):
        with pytest.raises(ZeroDivisionError):
            with open_store(store_dir, mode):
                assert gc.get_freeze_count() > 0
                1 / 0
        assert _gc_state() == (True, 0)

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_load_that_fails(self, store_dir, mode):
        with open(store_dir / "published.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(RecordError, match="published.jsonl:2: malformed JSON"):
            with open_store(store_dir, mode):
                pytest.fail("the block ran")
        assert _gc_state() == (True, 0)

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_store_locked_elsewhere(self, store_dir, mode):
        with open(store_dir / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(StoreError, match="locked by another run"):
                with open_store(store_dir, mode):
                    pytest.fail("the block ran")
        assert _gc_state() == (True, 0)

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_collector_disabled_by_the_caller(self, store_dir, monkeypatch, mode):
        seen = self._load_sees(monkeypatch)
        gc.disable()
        with open_store(store_dir, mode):
            assert _gc_state() == (False, 0)
        assert seen == [False]
        assert _gc_state() == (False, 0)

    @pytest.mark.parametrize("mode", ["r", "w", "c"])
    def test_objects_frozen_by_the_caller(self, store_dir, monkeypatch, mode):
        seen = self._load_sees(monkeypatch)
        gc.freeze()
        with pytest.raises(ZeroDivisionError):
            with open_store(store_dir, mode):
                1 / 0
        assert seen == [True]
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0

    def test_load_alone_leaves_the_collector_alone(self, store_dir):
        assert CorpusStore.load(store_dir).published
        assert _gc_state() == (True, 0)


def _can_lock_exclusively(directory: Path) -> bool:
    """Whether another open file of ``directory/.lock`` gets an exclusive flock."""
    with open(directory / ".lock", "a") as other:
        try:
            fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
    return True


class TestOpenStoreLock:
    """A reader holds its shared lock only while it loads; a writer holds
    its exclusive lock until its block ends."""

    def test_reader_unlocks_once_loaded(self, saved, monkeypatch):
        seen = []
        load = CorpusStore.load.__func__

        def probing(cls, *args):
            seen.append(_can_lock_exclusively(saved))
            return load(cls, *args)

        monkeypatch.setattr(CorpusStore, "load", classmethod(probing))
        with open_store(saved, "r") as store:
            assert store.preprints
            assert _can_lock_exclusively(saved)
        assert seen == [False]

    @pytest.mark.parametrize("mode", ["w", "c"])
    def test_writer_holds_its_lock_for_the_block(self, saved, mode):
        with open_store(saved, mode) as store:
            assert store.preprints
            assert not _can_lock_exclusively(saved)
        assert _can_lock_exclusively(saved)
