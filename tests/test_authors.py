from __future__ import annotations

import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arxmatch.authors import (
    KIND_PREPRINT,
    KIND_PUBLISHED,
    AuthorProfile,
    DocEntry,
    DocKey,
    NameKey,
    ProfileTable,
    build_profiles,
)
from arxmatch.corpus import (
    OUTCOME_DOI,
    CorpusStore,
    IntegrityError,
    MatchDecision,
    PublishedRecord,
    write_jsonl,
)
from arxmatch.normalize import AuthorName, normalize_text, split_authors

from conftest import make_preprint, make_published, store_with

TS = "2024-01-01T00:00:00Z"


def name(raw: str):
    return split_authors(raw)[0]


def doi_decision(pid="2301.00001", accession="zbl00000001"):
    return MatchDecision(pid, OUTCOME_DOI, accession, None, TS)


class TestAssignment:
    def test_first_occurrence_creates_slug_profile(self):
        table = ProfileTable()
        table.assign_preprint("2301.00001", [name("Doe, Jane")], False)
        assert list(table.profiles) == ["doe.jane"]
        assert list(table.profiles["doe.jane"].documents) == \
            [(KIND_PREPRINT, "2301.00001")]

    def test_second_paper_reuses_profile(self):
        table = ProfileTable()
        table.assign_preprint("2301.00001", [name("Doe, Jane")], False)
        table.assign_preprint("2301.00002", [name("Jane Doe")], False)
        assert list(table.profiles) == ["doe.jane"]
        assert len(table.profiles["doe.jane"].documents) == 2

    def test_idempotent_per_name_and_key(self):
        # one name twice in a byline is one mention of one profile
        store = store_with([make_preprint(authors=("Jane Doe", "Doe, Jane"))], [])
        table = build_profiles(store)
        assert list(table.profiles) == ["doe.jane"]
        assert list(table.profiles["doe.jane"].documents) == \
            [(KIND_PREPRINT, "2301.00001")]

    def test_ordinal_suffixes(self):
        # distinct keys "van der berg" and "van-der-berg" share a slug; the
        # name mentioned first gets it bare, whichever key sorts first
        spaced, hyphened = "van der Berg, Jan", "van-der-Berg, Jan"
        for first, second in ((spaced, hyphened), (hyphened, spaced)):
            store = store_with([make_preprint(pid="2301.00001", authors=(first,)),
                                make_preprint(pid="2301.00002", authors=(second,))],
                               [])
            profiles = build_profiles(store).profiles
            assert sorted(profiles) == ["van-der-berg.jan", "van-der-berg.jan.1"]
            assert profiles["van-der-berg.jan"].canonical_name == name(first)
            assert profiles["van-der-berg.jan.1"].canonical_name == name(second)

    def test_multitoken_slug(self):
        table = ProfileTable()
        table.assign_preprint("2301.00001", [name("van der Berg, Jan")], False)
        assert "van-der-berg.jan" in table.profiles

    def test_family_only_name_displays_the_family(self):
        table = ProfileTable()
        table.assign_preprint("2301.00001", [name("Euclid")], False)
        assert table.profiles["euclid"].display_name() == "Euclid"


class TestUpdateOnMerge:
    def _built(self, preprint_authors=("Jane Doe",), published_authors=("Jane Doe",),
               merged=True):
        store = store_with([make_preprint(authors=preprint_authors)],
                           [make_published(authors=published_authors)])
        if merged:
            store.merge_on_publication(doi_decision())
        return build_profiles(store)

    def test_preprint_only_flips_false(self):
        pre_doc = (KIND_PREPRINT, "2301.00001")
        unmerged = self._built(merged=False).profiles["doe.jane"]
        assert list(unmerged.documents) == [pre_doc]
        merged = self._built().profiles["doe.jane"]
        assert list(merged.documents) == [(KIND_PUBLISHED, "zbl00000001")]

    def test_dropped_author_keeps_arxiv_key_flagged(self):
        # Roe dropped in print
        table = self._built(preprint_authors=("Jane Doe", "John Roe"))
        roe = table.profiles["roe.john"]
        assert list(roe.documents) == [(KIND_PREPRINT, "2301.00001")]
        assert roe.documents[(KIND_PREPRINT, "2301.00001")].on_published_version is False
        doe = table.profiles["doe.jane"]
        assert list(doe.documents) == [(KIND_PUBLISHED, "zbl00000001")]


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
        assert all(p.documents for p in table.profiles.values())  # no orphans
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


def author_key(name: AuthorName) -> NameKey:
    """The reference's name key, normalized here rather than read from
    ``AuthorName.key``."""
    return (normalize_text(name.family), normalize_text(name.given))


def _reference_slug(key: NameKey) -> str:
    family, given = key
    parts = [re.sub(r"\s+", "-", part) for part in (family, given) if part]
    return ".".join(parts) or "unknown"


class ReferenceTable:
    """The reference: the profile table as it was when same-named profiles
    were told apart by shared coauthors, with a registry of each
    document's names behind it. Its exports must equal ``ProfileTable``'s.

    ``_assigned`` maps each (preprint, author name) to the profile holding
    that mention, so a merge touches only those profiles.
    """

    def __init__(self) -> None:
        self.profiles: dict[str, AuthorProfile] = {}
        self._by_name: dict[NameKey, list[str]] = {}
        self._doc_names: dict[DocKey, set[NameKey]] = {}
        self._assigned: dict[tuple[DocKey, NameKey], str] = {}

    # -- profile creation ------------------------------------------------------

    def new_profile(self, name: AuthorName) -> AuthorProfile:
        key = author_key(name)
        base = _reference_slug(key)
        pid = base
        ordinal = 0
        while pid in self.profiles:
            ordinal += 1
            pid = f"{base}.{ordinal}"
        profile = AuthorProfile(profile_id=pid, canonical_name=name)
        self.profiles[pid] = profile
        self._by_name.setdefault(key, []).append(pid)
        return profile

    # -- assignment --------------------------------------------------------------

    def register_document(self, kind: str, key: str, authors) -> DocKey:
        doc = (kind, key)
        self._doc_names[doc] = {author_key(n) for n in authors}
        return doc

    def assign_author(self, name: AuthorName, doc: DocKey,
                      withdrawn: bool = False) -> str:
        """Assign one author mention of a registered document to a profile.

        Exact normalized-name match wins; among several same-named
        profiles the one sharing a coauthor on any of its documents is
        preferred (then the smallest profile id). Idempotent per
        (name, document).
        """
        key = author_key(name)
        prior = self._assigned.get((doc, key))
        if prior is not None:
            return prior
        candidates = sorted(self._by_name.get(key, []))
        if not candidates:
            profile = self.new_profile(name)
        elif len(candidates) == 1:
            profile = self.profiles[candidates[0]]
        else:
            coauthors = self._doc_names.get(doc, set()) - {key}
            profile = self.profiles[candidates[0]]
            for pid in candidates:
                cand = self.profiles[pid]
                if any(coauthors & (self._doc_names.get(d, set()) - {key})
                       for d in cand.documents):
                    profile = cand
                    break
        profile.documents.setdefault(doc, DocEntry(withdrawn=withdrawn))
        self._assigned[(doc, key)] = profile.profile_id
        return profile.profile_id

    def assign_record(self, kind: str, key: str, authors,
                      withdrawn: bool = False) -> list[str]:
        doc = self.register_document(kind, key, authors)
        return [self.assign_author(n, doc, withdrawn=withdrawn) for n in authors]

    # -- merge ----------------------------------------------------------------------

    def update_on_merge(self, preprint: str, published: PublishedRecord) -> None:
        """Swap the preprint key for the published key on the profiles
        holding the preprint.

        Authors missing from the published version keep the preprint key,
        flagged as not on the published version. Each preprint is merged
        once; raises IntegrityError when its authors were never assigned.
        """
        pre_doc = (KIND_PREPRINT, preprint)
        names = self._doc_names.get(pre_doc)
        if names is None:
            raise IntegrityError(f"no profile holds preprint {preprint}")
        pub_doc = (KIND_PUBLISHED, published.accession)
        pub_names = {author_key(n) for n in published.authors}
        for key in names:
            profile = self.profiles[self._assigned[(pre_doc, key)]]
            if key in pub_names:
                del profile.documents[pre_doc]
                profile.documents.setdefault(pub_doc, DocEntry())
            else:
                profile.documents[pre_doc].on_published_version = False

    # -- export -------------------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, (
            {
                "profile_id": pid,
                "canonical_name": self.profiles[pid].display_name(),
                "documents": [
                    {
                        "kind": kind,
                        "key": key,
                        "withdrawn": entry.withdrawn,
                        "on_published_version": entry.on_published_version,
                    }
                    for (kind, key), entry in sorted(self.profiles[pid].documents.items())
                ],
            }
            for pid in sorted(self.profiles)
        ))


def reference_build_profiles(store: CorpusStore) -> ReferenceTable:
    """Assign every stored preprint's authors in sorted id order, then
    apply every stored merge in sorted preprint order."""
    table = ReferenceTable()
    for pid in sorted(store.preprints):
        rec = store.preprints[pid]
        table.assign_record(KIND_PREPRINT, pid, rec.authors,
                            withdrawn=rec.withdrawn)
    for pid in sorted(store.merges):
        table.update_on_merge(pid, store.published[store.merges[pid]])
    return table


def exported(table, tmp):
    path = Path(tmp, "profiles.jsonl")
    table.export_jsonl(path)
    return path.read_bytes()


# few names, so dropped authors and names repeated in one byline recur;
# "Jane Doe" and "Doe, Jane" are one name, and the two van der Bergs are
# distinct names that share the slug van-der-berg.jan
NAMES = ("Jane Doe", "Doe, Jane", "John Roe", "Mary Moe", "J. Doe",
         "van der Berg, Jan", "van-der-Berg, Jan")
AUTHOR_LISTS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
MERGES = st.dictionaries(st.integers(0, 3), st.integers(0, 2))  # preprint -> accession


class TestAgainstReference:
    """``build_profiles`` exports the same bytes as the reference table."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(AUTHOR_LISTS, min_size=4, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4),
           st.lists(AUTHOR_LISTS, min_size=3, max_size=3), MERGES)
    # two preprints merged into one accession, each dropping an author, a
    # repeated name in one byline, a withdrawn version, and a slug collision
    @example([["Jane Doe", "Doe, Jane", "John Roe"], ["Jane Doe", "Mary Moe"],
              ["van-der-Berg, Jan"], ["van der Berg, Jan", "John Roe"]],
             [False, True, False, True],
             [["Jane Doe"], ["J. Doe"], ["van der Berg, Jan"]], {0: 0, 1: 0, 3: 2})
    def test_export_matches_reference(self, pre_authors, withdrawn, pub_authors,
                                      merges):
        store = store_with(
            [make_preprint(pid=f"2301.{i:05d}", authors=a, withdrawn=w)
             for i, (a, w) in enumerate(zip(pre_authors, withdrawn))],
            [make_published(accession=f"zbl{j:08d}", authors=a)
             for j, a in enumerate(pub_authors)])
        store.merges = {f"2301.{i:05d}": f"zbl{j:08d}" for i, j in merges.items()}
        built = build_profiles(store)
        assert all(p.documents for p in built.profiles.values())  # no orphans
        with tempfile.TemporaryDirectory() as tmp:
            assert exported(built, tmp) == exported(reference_build_profiles(store), tmp)
