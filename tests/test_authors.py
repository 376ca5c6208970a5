from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arxmatch.authors import (
    KIND_PREPRINT,
    KIND_PUBLISHED,
    DocEntry,
    ProfileTable,
    build_profiles,
)
from arxmatch.corpus import IntegrityError, MatchDecision, OUTCOME_DOI
from arxmatch.normalize import author_key, split_authors

from conftest import make_preprint, make_published, store_with

TS = "2024-01-01T00:00:00Z"


def name(raw: str):
    return split_authors(raw)[0]


def doi_decision(pid="2301.00001", accession="zbl00000001"):
    return MatchDecision(pid, OUTCOME_DOI, accession, None, TS)


class TestAssignment:
    def test_first_occurrence_creates_slug_profile(self):
        table = ProfileTable()
        pids = table.assign_record(KIND_PREPRINT, "2301.00001",
                                   [name("Doe, Jane")])
        assert pids == ["doe.jane"]
        assert table.profiles["doe.jane"].preprint_only

    def test_second_paper_reuses_profile(self):
        table = ProfileTable()
        table.assign_record(KIND_PREPRINT, "2301.00001", [name("Doe, Jane")])
        pids = table.assign_record(KIND_PREPRINT, "2301.00002",
                                   [name("Jane Doe")])
        assert pids == ["doe.jane"]
        assert len(table.profiles) == 1
        assert len(table.profiles["doe.jane"].documents) == 2

    def test_coauthor_disambiguates_same_name(self):
        table = ProfileTable()
        # two pre-existing "doe.jane" profiles with distinct coauthor circles
        table.assign_record(KIND_PREPRINT, "2301.00001",
                            [name("Doe, Jane"), name("Roe, John")])
        table.new_profile(name("Doe, Jane"))  # doe.jane.1, empty circle
        table.profiles["doe.jane.1"].documents[(KIND_PREPRINT, "2301.00002")] = \
            table.profiles["doe.jane"].documents[(KIND_PREPRINT, "2301.00001")].__class__()
        table.register_document(KIND_PREPRINT, "2301.00002",
                                [name("Doe, Jane"), name("Moe, Mary")])
        # new record shares coauthor Moe with doe.jane.1's record
        doc = table.register_document(KIND_PREPRINT, "2301.00003",
                                      [name("Doe, Jane"), name("Moe, Mary")])
        assert table.assign_author(name("Doe, Jane"), doc) == "doe.jane.1"

    def test_ambiguous_without_coauthor_takes_smallest_id(self):
        table = ProfileTable()
        table.assign_record(KIND_PREPRINT, "2301.00001", [name("Doe, Jane")])
        table.new_profile(name("Doe, Jane"))
        doc = table.register_document(KIND_PREPRINT, "2301.00009",
                                      [name("Doe, Jane")])
        assert table.assign_author(name("Doe, Jane"), doc) == "doe.jane"

    def test_idempotent_per_name_and_key(self):
        table = ProfileTable()
        doc = table.register_document(KIND_PREPRINT, "2301.00001",
                                      [name("Doe, Jane")])
        p1 = table.assign_author(name("Doe, Jane"), doc)
        p2 = table.assign_author(name("Doe, Jane"), doc)
        assert p1 == p2
        assert len(table.profiles[p1].documents) == 1

    def test_ordinal_suffixes(self):
        table = ProfileTable()
        table.new_profile(name("Doe, Jane"))
        table.new_profile(name("Doe, Jane"))
        table.new_profile(name("Doe, Jane"))
        assert set(table.profiles) == {"doe.jane", "doe.jane.1", "doe.jane.2"}

    def test_multitoken_slug(self):
        table = ProfileTable()
        table.assign_record(KIND_PREPRINT, "2301.00001",
                            [name("van der Berg, Jan")])
        assert "van-der-berg.jan" in table.profiles


class TestUpdateOnMerge:
    def _built(self, preprint_authors=("Jane Doe",), published_authors=("Jane Doe",),
               merged=True):
        store = store_with([make_preprint(authors=preprint_authors)],
                           [make_published(authors=published_authors)])
        if merged:
            store.merge_on_publication(doi_decision())
        return build_profiles(store)

    def test_preprint_only_flips_false(self):
        assert self._built(merged=False).profiles["doe.jane"].preprint_only
        profile = self._built().profiles["doe.jane"]
        assert not profile.preprint_only
        assert (KIND_PUBLISHED, "zbl00000001") in profile.documents
        assert (KIND_PREPRINT, "2301.00001") not in profile.documents

    def test_dropped_author_keeps_arxiv_key_flagged(self):
        # Roe dropped in print
        table = self._built(preprint_authors=("Jane Doe", "John Roe"))
        roe = table.profiles["roe.john"]
        entry = roe.documents[(KIND_PREPRINT, "2301.00001")]
        assert entry.on_published_version is False
        assert roe.preprint_only
        doe = table.profiles["doe.jane"]
        assert (KIND_PUBLISHED, "zbl00000001") in doe.documents

    def test_unknown_preprint_is_integrity_error(self):
        store = store_with([make_preprint()], [make_published()])
        table = build_profiles(store)
        with pytest.raises(IntegrityError):
            table.update_on_merge("2301.00002", store.published["zbl00000001"])


class TestWithdrawn:
    def test_withdrawn_still_listed_with_marker(self):
        store = store_with([make_preprint(withdrawn=True),
                            make_preprint(pid="2301.00002")], [])
        table = build_profiles(store)
        documents = table.profiles["doe.jane"].documents
        assert documents[(KIND_PREPRINT, "2301.00001")].withdrawn
        assert not documents[(KIND_PREPRINT, "2301.00002")].withdrawn
        assert store.unpublished_preprints() == ["2301.00001", "2301.00002"]


class TestInvariants:
    def test_every_mention_assigned_no_orphans(self):
        store = store_with(
            [make_preprint(pid=f"2301.{i:05d}",
                           authors=("Jane Doe", f"A{i} B{i}"))
             for i in range(1, 6)],
            [],
        )
        table = build_profiles(store)
        table.check_invariants()
        mentions = sum(len(r.authors) for r in store.preprints.values())
        held = sum(
            1 for p in table.profiles.values() for _ in p.documents
        )
        assert held == mentions  # one doc entry per (record, author position)

    def test_rebuild_reproduces_identical_ids(self, tmp_path):
        store = store_with(
            [make_preprint(pid=f"2301.{i:05d}",
                           authors=("Jane Doe", "John Roe")[: 1 + i % 2])
             for i in range(1, 8)],
            [],
        )
        t1 = build_profiles(store)
        t2 = build_profiles(store)
        assert sorted(t1.profiles) == sorted(t2.profiles)
        e1 = tmp_path / "a.jsonl"
        e2 = tmp_path / "b.jsonl"
        t1.export_jsonl(e1)
        t2.export_jsonl(e2)
        assert e1.read_bytes() == e2.read_bytes()

    def test_export_schema(self, tmp_path):
        import json

        store = store_with([make_preprint(withdrawn=True)], [])
        table = build_profiles(store)
        out = tmp_path / "profiles.jsonl"
        table.export_jsonl(out)
        row = json.loads(out.read_text().splitlines()[0])
        assert row["profile_id"] == "doe.jane"
        assert row["canonical_name"] == "Doe, Jane"
        assert row["documents"] == [{
            "kind": "preprint", "key": "2301.00001",
            "withdrawn": True, "on_published_version": True,
        }]


class ScanTable(ProfileTable):
    """The reference: find a preprint's holders by scanning every profile."""

    def update_on_merge(self, preprint, published):
        pre_doc = (KIND_PREPRINT, preprint)
        pub_doc = (KIND_PUBLISHED, published.accession)
        pub_names = {author_key(n) for n in published.authors}
        holders = [p for p in self.profiles.values() if pre_doc in p.documents]
        if not holders:
            raise IntegrityError(f"no profile holds preprint {preprint}")
        for profile in holders:
            if author_key(profile.canonical_name) in pub_names:
                del profile.documents[pre_doc]
                profile.documents.setdefault(pub_doc, DocEntry())
            else:
                profile.documents[pre_doc].on_published_version = False


def seed_same_named(table, seeds):
    """Per (author, coauthor) in ``seeds``, give ``table`` a new profile of
    that author holding a document written with that coauthor. Two seeds of
    one name make same-named profiles, which assignment tells apart by
    coauthor; no store preprint can make them."""
    for i, (author, coauthor) in enumerate(seeds):
        doc = table.register_document(KIND_PREPRINT, f"seed{i}",
                                      [name(author), name(coauthor)])
        table.new_profile(name(author)).documents[doc] = DocEntry()


def derive(table, store):
    """``build_profiles``' two passes, on a given table."""
    for pid in sorted(store.preprints):
        rec = store.preprints[pid]
        table.assign_record(KIND_PREPRINT, pid, rec.authors, withdrawn=rec.withdrawn)
    for pid in sorted(store.merges):
        table.update_on_merge(pid, store.published[store.merges[pid]])
    return table


def exported(table, tmp):
    path = Path(tmp, "profiles.jsonl")
    table.export_jsonl(path)
    return path.read_bytes()


# few names, so shared coauthors, dropped authors and names repeated in one
# byline recur; "Jane Doe" and "Doe, Jane" are one name
NAMES = ("Jane Doe", "Doe, Jane", "John Roe", "Mary Moe", "J. Doe")
AUTHOR_LISTS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
MERGES = st.dictionaries(st.integers(0, 3), st.integers(0, 2))  # preprint -> accession
SEEDS = st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=4)


class TestReverseIndex:
    """``update_on_merge`` finds a preprint's holders through ``_assigned``;
    the reference scans every profile."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(AUTHOR_LISTS, min_size=4, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4),
           st.lists(AUTHOR_LISTS, min_size=3, max_size=3), MERGES, SEEDS)
    # two preprints merged into one accession, each dropping an author, a
    # repeated name in one byline, and same-named doe.jane profiles
    @example([["Jane Doe", "Doe, Jane", "John Roe"], ["Jane Doe", "Mary Moe"],
              ["J. Doe"], ["John Roe"]], [False, True, False, False],
             [["Jane Doe"], ["J. Doe"], ["John Roe"]], {0: 0, 1: 0, 3: 2},
             [("Jane Doe", "Mary Moe"), ("Doe, Jane", "John Roe")])
    def test_matches_scan_reference(self, pre_authors, withdrawn, pub_authors,
                                    merges, seeds):
        store = store_with(
            [make_preprint(pid=f"2301.{i:05d}", authors=a, withdrawn=w)
             for i, (a, w) in enumerate(zip(pre_authors, withdrawn))],
            [make_published(accession=f"zbl{j:08d}", authors=a)
             for j, a in enumerate(pub_authors)])
        store.merges = {f"2301.{i:05d}": f"zbl{j:08d}" for i, j in merges.items()}
        built = build_profiles(store)
        built.check_invariants()
        seeded = []
        for table in (ProfileTable(), ScanTable()):
            seed_same_named(table, seeds)
            seeded.append(derive(table, store))
        with tempfile.TemporaryDirectory() as tmp:
            assert exported(built, tmp) == exported(derive(ScanTable(), store), tmp)
            assert exported(seeded[0], tmp) == exported(seeded[1], tmp)

    def test_merge_before_assignment_is_integrity_error(self):
        store = store_with([make_preprint()], [make_published()])
        table = ProfileTable()
        with pytest.raises(IntegrityError):
            table.update_on_merge("2301.00001", store.published["zbl00000001"])
        assert table.profiles == {}
