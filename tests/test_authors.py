from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    def _setup(self, published_authors=("Jane Doe",)):
        store = store_with(
            [make_preprint(authors=("Jane Doe",))],
            [make_published(authors=published_authors)],
        )
        table = build_profiles(store)
        return store, table

    def test_preprint_only_flips_false(self):
        store, table = self._setup()
        assert table.profiles["doe.jane"].preprint_only
        store.merge_on_publication(doi_decision())
        table.update_on_merge(doi_decision(), store)
        profile = table.profiles["doe.jane"]
        assert not profile.preprint_only
        assert (KIND_PUBLISHED, "zbl00000001") in profile.documents
        assert (KIND_PREPRINT, "2301.00001") not in profile.documents

    def test_rerun_is_noop(self):
        store, table = self._setup()
        table.update_on_merge(doi_decision(), store)
        snapshot = {
            pid: dict(p.documents) for pid, p in table.profiles.items()
        }
        table.update_on_merge(doi_decision(), store)
        assert snapshot == {
            pid: dict(p.documents) for pid, p in table.profiles.items()
        }

    def test_dropped_author_keeps_arxiv_key_flagged(self):
        store = store_with(
            [make_preprint(authors=("Jane Doe", "John Roe"))],
            [make_published(authors=("Jane Doe",))],  # Roe dropped in print
        )
        table = build_profiles(store)
        table.update_on_merge(doi_decision(), store)
        roe = table.profiles["roe.john"]
        entry = roe.documents[(KIND_PREPRINT, "2301.00001")]
        assert entry.on_published_version is False
        assert roe.preprint_only
        doe = table.profiles["doe.jane"]
        assert (KIND_PUBLISHED, "zbl00000001") in doe.documents

    def test_unknown_preprint_is_integrity_error(self):
        store, table = self._setup()
        other = MatchDecision("2301.00002", OUTCOME_DOI, "zbl00000001", None, TS)
        store.preprints["2301.00002"] = make_preprint(pid="2301.00002")
        with pytest.raises(IntegrityError):
            table.update_on_merge(other, store)


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
    """The reference: find a document's holders by scanning every profile,
    as the table did before it kept the ``_holders`` reverse index."""

    def update_on_merge(self, decision, store):
        pre_doc = (KIND_PREPRINT, decision.preprint)
        pub = store.published[decision.matched_accession]
        pub_doc = self.register_document(KIND_PUBLISHED, pub.accession, pub.authors)
        pub_names = self._doc_names[pub_doc]
        holders = [p for p in self.profiles.values() if pre_doc in p.documents]
        if not holders:
            if any(pub_doc in p.documents for p in self.profiles.values()):
                return
            raise IntegrityError(f"no profile holds preprint {decision.preprint}")
        for profile in sorted(holders, key=lambda p: p.profile_id):
            key = author_key(profile.canonical_name)
            if key in pub_names:
                profile.documents.pop(pre_doc)
                profile.documents.setdefault(
                    pub_doc, DocEntry(withdrawn=False, on_published_version=True))
                self._assigned[(pub_doc, key)] = profile.profile_id
            else:
                profile.documents[pre_doc].on_published_version = False


def holders_from_documents(table):
    holders = {}
    for pid, profile in table.profiles.items():
        for doc in profile.documents:
            holders.setdefault(doc, set()).add(pid)
    return holders


# few names, so same-named profiles, shared coauthors and dropped authors recur
NAMES = ("Jane Doe", "Doe, Jane", "John Roe", "Mary Moe", "J. Doe")
AUTHOR_LISTS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
OPS = st.lists(st.one_of(
    st.tuples(st.just("assign"), st.integers(0, 3)),
    st.tuples(st.just("merge"), st.integers(0, 3), st.integers(0, 2)),
), max_size=12)


class TestReverseIndex:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(AUTHOR_LISTS, min_size=4, max_size=4),
           st.lists(AUTHOR_LISTS, min_size=3, max_size=3), OPS,
           st.lists(st.booleans(), min_size=4, max_size=4))
    def test_matches_scan_reference(self, pre_authors, pub_authors, ops, withdrawn):
        store = store_with(
            [make_preprint(pid=f"2301.{i:05d}", authors=a, withdrawn=w)
             for i, (a, w) in enumerate(zip(pre_authors, withdrawn))],
            [make_published(accession=f"zbl{j:08d}", authors=a)
             for j, a in enumerate(pub_authors)])
        indexed, scanned = ProfileTable(), ScanTable()
        with tempfile.TemporaryDirectory() as tmp:
            for op in ops:
                pid = f"2301.{op[1]:05d}"
                raised = []
                for table in (indexed, scanned):
                    try:
                        if op[0] == "assign":
                            rec = store.preprints[pid]
                            table.assign_record(KIND_PREPRINT, pid, rec.authors,
                                                withdrawn=rec.withdrawn)
                        else:
                            table.update_on_merge(MatchDecision(
                                pid, OUTCOME_DOI, f"zbl{op[2]:08d}", None, TS), store)
                    except IntegrityError:
                        raised.append(table)
                assert raised in ([], [indexed, scanned])
                assert indexed._holders == holders_from_documents(indexed)
                indexed.check_invariants()
                out = [Path(tmp, "indexed.jsonl"), Path(tmp, "scanned.jsonl")]
                indexed.export_jsonl(out[0])
                scanned.export_jsonl(out[1])
                assert out[0].read_bytes() == out[1].read_bytes()
                assert indexed._assigned == scanned._assigned

    def test_merge_before_assignment_is_integrity_error(self):
        store = store_with([make_preprint()], [make_published()])
        table = ProfileTable()
        with pytest.raises(IntegrityError):
            table.update_on_merge(doi_decision(), store)
        assert table._holders == {}

    def test_check_invariants_catches_a_stale_index(self):
        store = store_with([make_preprint()], [])
        table = build_profiles(store)
        table._holders[(KIND_PREPRINT, "2301.00001")].clear()
        with pytest.raises(AssertionError):
            table.check_invariants()
