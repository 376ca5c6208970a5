"""Deterministic author-profile assignment.

A stand-in for a full disambiguation system: exact normalized-name match
joins an existing profile, ambiguity between same-named profiles is
resolved through shared coauthors, and anything else creates a new
profile with a readable slug id. The table is derived state:
``build_profiles`` makes it from a store in one call, assigning every
preprint's authors and then applying every recorded merge. A merged
preprint hands its document key over to the published record; authors
dropped from the published version keep the preprint key with a flag.
The module boundary is narrow enough that a stronger disambiguator can
replace it wholesale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CorpusStore, IntegrityError, PublishedRecord, write_jsonl
from .normalize import AuthorName, author_key

KIND_PREPRINT = "preprint"
KIND_PUBLISHED = "published"

DocKey = tuple[str, str]  # (kind, key)
NameKey = tuple[str, str]  # normalized (family, given)


@dataclass
class DocEntry:
    withdrawn: bool = False
    on_published_version: bool = True


@dataclass
class AuthorProfile:
    profile_id: str
    canonical_name: AuthorName
    documents: dict[DocKey, DocEntry] = field(default_factory=dict)

    @property
    def preprint_only(self) -> bool:
        return all(kind == KIND_PREPRINT for kind, _ in self.documents)

    def display_name(self) -> str:
        if self.canonical_name.given:
            return f"{self.canonical_name.family}, {self.canonical_name.given}"
        return self.canonical_name.family


def _slug(key: NameKey) -> str:
    family, given = key
    parts = [re.sub(r"\s+", "-", part) for part in (family, given) if part]
    return ".".join(parts) or "unknown"


class ProfileTable:
    """All profiles plus the preprint->authors registry behind coauthor checks.

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
        base = _slug(key)
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

    # -- consistency and export ---------------------------------------------------------

    def check_invariants(self) -> None:
        for profile in self.profiles.values():
            assert profile.documents, f"orphan profile {profile.profile_id}"

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


def build_profiles(store: CorpusStore) -> ProfileTable:
    """Assign every stored preprint's authors in sorted id order, then
    apply every stored merge in sorted preprint order."""
    table = ProfileTable()
    for pid in sorted(store.preprints):
        rec = store.preprints[pid]
        table.assign_record(KIND_PREPRINT, pid, rec.authors,
                            withdrawn=rec.withdrawn)
    for pid in sorted(store.merges):
        table.update_on_merge(pid, store.published[store.merges[pid]])
    return table
