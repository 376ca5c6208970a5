"""Deterministic author-profile assignment.

A stand-in for a full disambiguation system: every mention of one
normalized (family, given) name joins the one profile of that name. A
name's first mention creates its profile, with a readable slug id; when
distinct names share a slug, later ones get ``.1``, ``.2``, ... in
first-mention order. The table is derived state: ``build_profiles``
makes it from a store in one call, assigning every preprint's authors
and then applying every recorded merge. A merged preprint hands its
document key over to the published record; authors dropped from the
published version keep the preprint key with a flag. The module
boundary is narrow enough that a stronger disambiguator can replace it
wholesale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CorpusStore, PreprintRecord, PublishedRecord, write_jsonl
from .normalize import AuthorName

KIND_PREPRINT = "preprint"
KIND_PUBLISHED = "published"

DocKey = tuple[str, str]  # (kind, key)
NameKey = tuple[str, str]  # AuthorName.key: normalized (family, given)


@dataclass
class DocEntry:
    withdrawn: bool = False
    on_published_version: bool = True


@dataclass
class AuthorProfile:
    profile_id: str
    canonical_name: AuthorName
    documents: dict[DocKey, DocEntry] = field(default_factory=dict)

    def display_name(self) -> str:
        if self.canonical_name.given:
            return f"{self.canonical_name.family}, {self.canonical_name.given}"
        return self.canonical_name.family


def _slug(key: NameKey) -> str:
    family, given = key
    parts = [re.sub(r"\s+", "-", part) for part in (family, given) if part]
    return ".".join(parts) or "unknown"


class ProfileTable:
    """All profiles, by id and by the normalized name they stand for."""

    def __init__(self) -> None:
        self.profiles: dict[str, AuthorProfile] = {}
        self._by_name: dict[NameKey, AuthorProfile] = {}

    def assign_record(self, kind: str, key: str, authors,
                      withdrawn: bool = False) -> None:
        """List one document on the profile of each of its author names,
        creating a profile on a name's first mention."""
        doc = (kind, key)
        for name in authors:
            name_key = name.key
            profile = self._by_name.get(name_key)
            if profile is None:
                base = pid = _slug(name_key)
                ordinal = 0
                while pid in self.profiles:
                    ordinal += 1
                    pid = f"{base}.{ordinal}"
                profile = AuthorProfile(profile_id=pid, canonical_name=name)
                self.profiles[pid] = self._by_name[name_key] = profile
            profile.documents.setdefault(doc, DocEntry(withdrawn=withdrawn))

    def update_on_merge(self, preprint: PreprintRecord,
                        published: PublishedRecord) -> None:
        """Swap the preprint key for the published key on the profiles of
        the preprint's authors, whose names must have been assigned.

        Authors missing from the published version keep the preprint key,
        flagged as not on the published version. Each preprint is merged
        once.
        """
        pre_doc = (KIND_PREPRINT, preprint.id)
        pub_doc = (KIND_PUBLISHED, published.accession)
        pub_names = {n.key for n in published.authors}
        for name_key in {n.key for n in preprint.authors}:
            profile = self._by_name[name_key]
            if name_key in pub_names:
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


def build_profiles(store: CorpusStore) -> ProfileTable:
    """Assign every stored preprint's authors in sorted id order, then
    apply every stored merge in sorted preprint order."""
    table = ProfileTable()
    for pid in sorted(store.preprints):
        rec = store.preprints[pid]
        table.assign_record(KIND_PREPRINT, pid, rec.authors,
                            withdrawn=rec.withdrawn)
    for pid in sorted(store.merges):
        table.update_on_merge(store.preprints[pid],
                              store.published[store.merges[pid]])
    return table
