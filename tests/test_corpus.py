from __future__ import annotations

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

from arxmatch import corpus
from arxmatch.cli import main
from arxmatch.corpus import (
    OUTCOME_CLASSIFIER,
    OUTCOME_DOI,
    OUTCOME_UNMATCHED,
    CorpusStore,
    IntegrityError,
    MatchDecision,
    RecordError,
    _parse_authors,
    decision_from_json,
    preprint_from_json,
    published_from_json,
    record_to_json,
    validate_arxiv_id,
    write_atomic,
)
from arxmatch.normalize import DoiError, normalize_doi, split_authors

from conftest import CORPUS_DIR, make_preprint, make_published, store_with

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
                                     "2301.00001\n", "math.GT/0501001\n"])
    def test_arxiv_ids_rejected(self, bad):
        with pytest.raises(RecordError):
            validate_arxiv_id(bad)

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

    def test_invalid_doi_treated_as_absent(self):
        rec = preprint_from_json(preprint_obj(doi="not a doi"))
        assert rec.doi is None

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


def doi_outcome(parse, value: str):
    """parse(value), or the message of the DoiError it raises."""
    try:
        return parse(value)
    except DoiError as exc:
        return ("DoiError", str(exc))


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


def full_path_doi(raw: str) -> str:
    """normalize_doi without its shortcut for a DOI already canonical."""
    doi = raw.strip().lower()
    prefixes = ("https://doi.org/", "http://doi.org/", "https://dx.doi.org/",
                "http://dx.doi.org/", "doi.org/", "doi:")
    while doi.startswith(prefixes):
        prefix = next(p for p in prefixes if doi.startswith(p))
        doi = doi[len(prefix):].strip()
    if not re.match(r"^10\.[^/\s]+/\S+$", doi):
        raise DoiError(f"not a DOI: {raw!r}")
    return doi


class TestCanonicalDoi:
    """normalize_doi's shortcut for a canonical DOI, which a reload takes,
    gives what the full path gives, value or error."""

    @given(st.one_of(st.text(max_size=30), doi_like()))
    @settings(max_examples=500, deadline=None)
    def test_equals_normalize_doi(self, value):
        assert doi_outcome(normalize_doi, value) == doi_outcome(full_path_doi, value)

    def test_cases(self):
        for value in ["10.1/x", "10.1/x\n", "10.1/X", " 10.1/x", "doi:10.1/x",
                      "10.1/x\u2028", "10.1\x1c/x", "10.1/\u0130", "11.1/x", ""]:
            assert doi_outcome(normalize_doi, value) == doi_outcome(full_path_doi, value)
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
        assert len(store.doi_index) == 2

    def test_shared_doi_two_element_set(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi="10.1/a"),
                           published_obj("zbl2", doi="10.1/a")])
        store = CorpusStore()
        store.ingest_published(path)
        assert store.doi_index["10.1/a"] == {"zbl1", "zbl2"}

    def test_no_doi_no_index_entry(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [published_obj("zbl1", doi=None)])
        store = CorpusStore()
        store.ingest_published(path)
        assert store.doi_index == {}

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
        assert store.doi_index == {"10.1/a": {"zbl1"}}


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
        assert loaded.doi_index == store.doi_index
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


class TestSaveSkipsCleanTables:
    @pytest.fixture()
    def saved(self, tmp_path) -> Path:
        store = store_with([make_preprint(), make_preprint("2301.00002")],
                           [make_published(), make_published("zbl2")])
        store.record_decision(matched_decision())
        store.merge_on_publication(matched_decision())
        store.save(tmp_path / "store")
        return tmp_path / "store"

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
            for rec in published:
                if rec.doi is not None:
                    assert rec.accession in store.doi_index[rec.doi]
            for doi, accs in store.doi_index.items():
                for acc in accs:
                    assert store.published[acc].doi == doi

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
