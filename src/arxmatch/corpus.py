"""Record types, the JSONL-backed corpus store and its directory.

The store keeps three collections (preprint records, published records,
match decisions) plus the merge assignments, persisted as one JSON Lines
file each inside a store directory. A record is stored as its fields,
with its authors as written. One reader parses every line, so a line
that breaks the schema is reported like one that is not JSON: as
``path:line`` on load, as a rejected line on ingest. The DOI index is
derived state, rebuilt deterministically on load; ingest adds to it
record by record. A store remembers which of its files
still hold exactly its in-memory table, and ``save`` rewrites only the
others, in two phases: it writes every such table to its ``.tmp`` file
first, then renames them in ``TABLE_FILES`` order. Mutations require
exclusive access. Commands open a store directory only through
``open_store``.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .normalize import AuthorName, DoiError, normalize_doi, split_authors

# matched with fullmatch: a $ anchor would also match before a final newline
ARXIV_ID_RE = re.compile(r"\d{4}\.\d{4,5}|[a-z-]+(\.[A-Z]{2})?/\d{7}")
MSC_RE = re.compile(r"\d{2}[A-Z-][0-9X-]{2}")
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")  # \ud800 to \udfff

DOCUMENT_TYPES = ("journal_article", "collection_article", "book")

OUTCOME_DOI = "doi_match"
OUTCOME_CLASSIFIER = "classifier_match"
OUTCOME_UNMATCHED = "unmatched"
OUTCOMES = (OUTCOME_DOI, OUTCOME_CLASSIFIER, OUTCOME_UNMATCHED)

# The store directory's files; merge writes the author profiles.
PREPRINTS_FILE = "preprints.jsonl"
PUBLISHED_FILE = "published.jsonl"
DECISIONS_FILE = "decisions.jsonl"
MERGES_FILE = "merges.jsonl"
TABLE_FILES = (PREPRINTS_FILE, PUBLISHED_FILE, DECISIONS_FILE, MERGES_FILE)
PROFILES_FILE = "profiles.jsonl"
LOCK_FILE = ".lock"


class RecordError(ValueError):
    """A record violates its schema or an invariant."""


class IntegrityError(RuntimeError):
    """An operation would leave the store referencing missing records."""


class StoreError(RuntimeError):
    """A store directory is missing or locked by another run."""


def validate_arxiv_id(value: str) -> str:
    if not isinstance(value, str) or not ARXIV_ID_RE.fullmatch(value):
        raise RecordError(f"invalid arXiv identifier: {value!r}")
    return value


@dataclass(frozen=True)
class PreprintRecord:
    id: str
    version: int
    title: str
    authors: tuple[AuthorName, ...]
    abstract: str
    categories: tuple[str, ...]
    msc: tuple[str, ...]
    doi: str | None
    withdrawn: bool = False


@dataclass(frozen=True)
class PublishedRecord:
    accession: str
    title: str
    authors: tuple[AuthorName, ...]
    abstract: str | None
    doi: str | None
    source: str
    document_type: str
    msc: tuple[str, ...]


@dataclass(frozen=True)
class MatchDecision:
    preprint: str
    outcome: str
    matched_accession: str | None
    vector: tuple[float, float, float] | None
    decided_at: str

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise RecordError(f"unknown outcome: {self.outcome!r}")
        matched = self.outcome != OUTCOME_UNMATCHED
        if matched != (self.matched_accession is not None):
            raise RecordError("matched_accession must be present iff matched")
        if (self.vector is not None) != (self.outcome == OUTCOME_CLASSIFIER):
            raise RecordError("vector must be present iff classifier_match")


@dataclass
class IngestReport:
    added: int = 0
    replaced: int = 0
    unchanged: int = 0  # equal to the stored record, as on a rerun
    rejected: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.errors.append((line_no, reason))

    def as_dict(self) -> dict:
        return {
            "added": self.added,
            "replaced": self.replaced,
            "unchanged": self.unchanged,
            "rejected": self.rejected,
            "errors": [{"line": n, "reason": r} for n, r in self.errors],
        }


def _parse_authors(items, where: str) -> tuple[AuthorName, ...]:
    if not isinstance(items, list) or not items:
        raise RecordError(f"{where}: authors must be a non-empty list")
    names: list[AuthorName] = []
    for entry in items:
        if not isinstance(entry, str) or not entry.strip():
            raise RecordError(f"{where}: author entries must be non-empty strings")
        names.extend(split_authors(entry))
    if not names:
        raise RecordError(f"{where}: no parseable author names")
    return tuple(names)


def _parse_msc(items, where: str) -> tuple[str, ...]:
    if items is None:
        return ()
    if not isinstance(items, list):
        raise RecordError(f"{where}: msc must be a list")
    for code in items:
        if not isinstance(code, str) or not MSC_RE.fullmatch(code):
            raise RecordError(f"{where}: invalid MSC code {code!r}")
    return tuple(items)


def _parse_doi(value) -> str | None:
    if not isinstance(value, str):
        return None
    try:
        return normalize_doi(value)
    except DoiError:
        return None  # unusable DOI is treated as absent


def preprint_from_json(obj: dict) -> PreprintRecord:
    if not isinstance(obj, dict):
        raise RecordError("record must be a JSON object")
    try:
        pid = validate_arxiv_id(obj["id"])
        version = obj["version"]
        title = obj["title"]
        abstract = obj["abstract"]
        categories = obj["categories"]
        withdrawn = obj["withdrawn"]
        authors = _parse_authors(obj["authors"], pid)
    except KeyError as exc:
        raise RecordError(f"missing field {exc.args[0]!r}") from exc
    if type(version) is not int or version < 1:
        raise RecordError(f"{pid}: version must be a positive integer")
    if not isinstance(title, str) or not title.strip():
        raise RecordError(f"{pid}: title must be non-empty")
    if not isinstance(abstract, str):
        raise RecordError(f"{pid}: abstract must be a string")
    if not isinstance(categories, list) or not categories or not all(
        isinstance(c, str) and c for c in categories
    ):
        raise RecordError(f"{pid}: categories must be a non-empty list of codes")
    if not isinstance(withdrawn, bool):
        raise RecordError(f"{pid}: withdrawn must be a boolean")
    return PreprintRecord(
        id=pid,
        version=version,
        title=title,
        authors=authors,
        abstract=abstract,
        categories=tuple(categories),
        msc=_parse_msc(obj.get("msc"), pid),
        doi=_parse_doi(obj.get("doi")),
        withdrawn=withdrawn,
    )


def published_from_json(obj: dict) -> PublishedRecord:
    if not isinstance(obj, dict):
        raise RecordError("record must be a JSON object")
    try:
        accession = obj["accession"]
        title = obj["title"]
        abstract = obj["abstract"]
        source = obj["source"]
        document_type = obj["document_type"]
        authors = _parse_authors(obj["authors"], str(obj.get("accession")))
    except KeyError as exc:
        raise RecordError(f"missing field {exc.args[0]!r}") from exc
    if not isinstance(accession, str) or not accession.strip():
        raise RecordError("accession must be a non-empty string")
    if not isinstance(title, str) or not title.strip():
        raise RecordError(f"{accession}: title must be non-empty")
    if abstract is not None and not isinstance(abstract, str):
        raise RecordError(f"{accession}: abstract must be a string or null")
    if not isinstance(source, str):
        raise RecordError(f"{accession}: source must be a string")
    if document_type not in DOCUMENT_TYPES:
        raise RecordError(f"{accession}: unknown document_type {document_type!r}")
    return PublishedRecord(
        accession=accession,
        title=title,
        authors=authors,
        abstract=abstract,
        doi=_parse_doi(obj.get("doi")),
        source=source,
        document_type=document_type,
        msc=_parse_msc(obj.get("msc"), accession),
    )


def record_to_json(rec: PreprintRecord | PublishedRecord | MatchDecision) -> dict:
    """A record's stored form: its fields, each author as written."""
    obj = dict(vars(rec))
    if "authors" in obj:
        obj["authors"] = [name.raw for name in rec.authors]
    return obj


def decision_from_json(obj: dict) -> MatchDecision:
    if not isinstance(obj, dict):
        raise RecordError("decision must be a JSON object")
    vector = obj.get("vector")
    if vector is not None and not (isinstance(vector, list) and len(vector) == 3 and all(
            type(x) in (int, float) and 0.0 <= x <= 1.0 for x in vector)):
        raise RecordError("vector must be three numbers in [0, 1]")
    if not isinstance(obj.get("decided_at", ""), str):
        raise RecordError("decided_at must be a string")
    try:
        return MatchDecision(
            preprint=obj["preprint"],
            outcome=obj["outcome"],
            matched_accession=obj.get("matched_accession"),
            vector=tuple(vector) if vector is not None else None,
            decided_at=obj["decided_at"],
        )
    except KeyError as exc:
        raise RecordError(f"missing field {exc.args[0]!r}") from exc


@contextlib.contextmanager
def write_atomic(path: str | Path):
    """Yield a text file that is renamed over ``path`` once the block ends,
    so a reader sees the old file or the new one, never a part; on error
    ``path`` is left as it was and the temporary file removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(fh, objects) -> None:
    """Write one compact, key-sorted JSON object per line."""
    for obj in objects:
        fh.write(json.dumps(obj, sort_keys=True, ensure_ascii=False,
                            separators=(",", ":")))
        fh.write("\n")


def write_jsonl(path: str | Path, objects) -> None:
    """Replace ``path`` with one compact, key-sorted JSON object per line."""
    with write_atomic(path) as fh:
        _write_lines(fh, objects)


def _read_jsonl(path: str | Path, parse, reject=None):
    """Yield ``(line number, parse(value))`` per non-blank line of ``path``.
    A line that is not UTF-8 raises ``RecordError`` naming it, and so does
    one that is not JSON, nests deeper than the parser's recursion limit,
    holds an integer literal past Python's 4,300-digit conversion limit or
    an unpaired surrogate escape such as ``\\ud800`` (no UTF-8 file can
    store it), or whose value ``parse`` refuses with ``RecordError``,
    unless ``reject(line_no, reason)`` is given to take it."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordError(f"{path}:{line_no}: invalid UTF-8: {exc.reason}") from None
            if not line.strip(" \t\r\n"):  # JSON's whitespace, not str.isspace
                continue
            try:
                value = json.loads(line)
                # the backslash test is cheap and spares most lines the
                # regex; a match may be a valid pair, which encodes fine
                if "\\" in line and _SURROGATE_ESCAPE_RE.search(line):
                    json.dumps(value, ensure_ascii=False).encode("utf-8")
                rec = parse(value)
            except RecordError as exc:  # a ValueError, so first
                reason = str(exc)
            except json.JSONDecodeError as exc:
                reason = f"malformed JSON: {exc.msg}"
            except RecursionError:
                reason = "malformed JSON: nested too deeply"
            except UnicodeEncodeError:
                reason = "unpaired surrogate escape"
            except ValueError as exc:  # after its subclasses above
                reason = f"malformed JSON: {exc}"
            else:
                yield line_no, rec
                continue
            if reject is None:
                raise RecordError(f"{path}:{line_no}: {reason}")
            reject(line_no, reason)


@contextlib.contextmanager
def open_store(directory: str | Path, mode: str = "r"):
    """Load the store in ``directory`` for one command and yield it.

    ``mode`` is ``"r"`` (read), ``"w"`` (write) or ``"c"`` (write, creating
    the directory; only ingest creates a store). A reader holds a shared
    flock on ``.lock`` while the files are read; a writer holds an exclusive
    one from before the load until its block ends, so it replaces its files
    under the lock. The OS drops an flock when its holder dies. When the
    block raises, ``"c"`` removes the directories it made in this call, so
    a failed first ingest leaves no empty store behind.
    """
    directory = Path(directory)
    created = []  # the directories made here, deepest first
    if mode == "c":
        for path in (directory, *directory.parents):
            if path.exists():
                break
            created.append(path)
        directory.mkdir(parents=True, exist_ok=True)
    elif not directory.is_dir():
        raise StoreError(f"store directory not found: {directory}")
    with open(directory / LOCK_FILE, "a") as lock:
        try:
            fcntl.flock(lock, (fcntl.LOCK_SH if mode == "r" else fcntl.LOCK_EX)
                        | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StoreError(f"store {directory} is locked by another run") from None
        store = CorpusStore.load(directory)
        if mode != "r":
            try:
                yield store
            except BaseException:
                if created:  # still under the lock, so nothing else is inside
                    shutil.rmtree(directory, ignore_errors=True)
                    for parent in created[1:]:
                        with contextlib.suppress(OSError):
                            parent.rmdir()
                raise
            return
    yield store


class CorpusStore:
    """In-memory corpus with JSONL persistence and a derived DOI index."""

    def __init__(self) -> None:
        self.preprints: dict[str, PreprintRecord] = {}
        self.published: dict[str, PublishedRecord] = {}
        self.decisions: dict[str, MatchDecision] = {}
        self.merges: dict[str, str] = {}
        self.doi_index: dict[str, set[str]] = {}
        # table file name -> the absolute path of a file that holds exactly
        # that table. Every write to a table drops its entry; the four
        # mutators below are the only code that writes to the tables.
        self._clean: dict[str, Path] = {}

    # -- ingest ----------------------------------------------------------------

    def ingest_preprints(self, path: str | Path) -> IngestReport:
        report = IngestReport()
        for line_no, rec in _read_jsonl(path, preprint_from_json, report.reject):
            old = self.preprints.get(rec.id)
            if rec == old:
                report.unchanged += 1
                continue
            if old is not None and rec.version <= old.version:
                report.reject(line_no, f"{rec.id}: version {rec.version} is not newer")
                continue
            self.preprints[rec.id] = rec
            self._clean.pop(PREPRINTS_FILE, None)
            if old is None:
                report.added += 1
            else:
                report.replaced += 1
        return report

    def ingest_published(self, path: str | Path) -> IngestReport:
        report = IngestReport()
        for line_no, rec in _read_jsonl(path, published_from_json, report.reject):
            old = self.published.get(rec.accession)
            if rec == old:
                report.unchanged += 1
                continue
            if old is not None:
                report.reject(line_no, f"duplicate accession {rec.accession}")
                continue
            self.published[rec.accession] = rec
            self._clean.pop(PUBLISHED_FILE, None)
            self._index_doi(rec)
            report.added += 1
        return report

    # -- decisions and merges ---------------------------------------------------

    def record_decision(self, decision: MatchDecision) -> None:
        if decision.preprint not in self.preprints:
            raise IntegrityError(f"decision for unknown preprint {decision.preprint}")
        if self.decisions.get(decision.preprint) != decision:
            self._clean.pop(DECISIONS_FILE, None)
        # an equal decision still replaces the loaded one, whose strings no
        # other record shares, so that they are freed
        self.decisions[decision.preprint] = decision

    def merge_on_publication(self, decision: MatchDecision) -> None:
        """Make the published record canonical for a matched preprint by
        recording the merge of its arXiv identifier into the accession.
        Idempotent; the store is untouched on error.
        """
        if decision.outcome == OUTCOME_UNMATCHED:
            raise ValueError("cannot merge an unmatched decision")
        pid = decision.preprint
        accession = decision.matched_accession
        if pid not in self.preprints:
            raise IntegrityError(f"unknown preprint {pid}")
        if accession not in self.published:
            raise IntegrityError(f"unknown accession {accession}")
        if self.merges.get(pid) not in (None, accession):
            raise IntegrityError(
                f"{pid} already merged into {self.merges[pid]}, not {accession}"
            )
        if pid not in self.merges:
            self._clean.pop(MERGES_FILE, None)
        self.merges[pid] = accession

    def unmerged_preprints(self) -> list[str]:
        return [pid for pid in sorted(self.preprints) if pid not in self.merges]

    def unpublished_preprints(self) -> list[str]:
        """Preprints with no matched decision — the 'arXiv preprint' listing."""
        out = []
        for pid in sorted(self.preprints):
            d = self.decisions.get(pid)
            if d is None or d.outcome == OUTCOME_UNMATCHED:
                out.append(pid)
        return out

    # -- derived state ----------------------------------------------------------

    def rebuild_doi_index(self) -> None:
        self.doi_index = {}
        for rec in self.published.values():
            self._index_doi(rec)

    def _index_doi(self, rec: PublishedRecord) -> None:
        if rec.doi is not None:
            self.doi_index.setdefault(rec.doi, set()).add(rec.accession)

    def doi_accession(self, doi: str | None) -> str | None:
        """Accession of the one published record carrying ``doi``; None when
        the DOI is absent or no record or several records carry it."""
        hits = self.doi_index.get(doi, ())
        return next(iter(hits)) if len(hits) == 1 else None

    # -- persistence --------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the four table files into ``directory``, skipping each file
        that already holds its table: one this store was loaded from or last
        saved to, when the table has not changed since. Saving to another
        directory writes all four. A skipped file keeps its bytes, so a
        hand-edited file that load accepts but that save would have written
        otherwise (a URL-form DOI, unsorted lines) stays as it is until its
        table changes."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        here = directory.absolute()
        stale = [name for name in TABLE_FILES if self._clean.get(name) != here / name]
        encoded = {  # called only for a stale table: sorted() runs as a generator is made
            PREPRINTS_FILE: lambda: (record_to_json(self.preprints[k])
                                     for k in sorted(self.preprints)),
            PUBLISHED_FILE: lambda: (record_to_json(self.published[k])
                                     for k in sorted(self.published)),
            DECISIONS_FILE: lambda: (record_to_json(self.decisions[k])
                                     for k in sorted(self.decisions)),
            MERGES_FILE: lambda: ({"preprint": k, "accession": self.merges[k]}
                                  for k in sorted(self.merges)),
        }
        # entered last to first, so the stack renames first to last, and
        # only once every stale table is in its .tmp file; an error removes
        # every .tmp file not yet renamed and renames no more
        with contextlib.ExitStack() as renames:
            for name in reversed(stale):
                fh = renames.enter_context(write_atomic(directory / name))
                _write_lines(fh, encoded[name]())
                fh.flush()  # a run killed between renames leaves whole .tmp files
        self._clean.update((name, here / name) for name in stale)

    @classmethod
    def load(cls, directory: str | Path) -> "CorpusStore":
        """Read a saved store. A bad line raises ``RecordError`` naming its
        file and line: every key is stored once, every decision and merge names
        a stored preprint, and every merge and matched decision a stored
        accession."""
        directory = Path(directory)
        store = cls()
        for name, add in ((PREPRINTS_FILE, store._load_preprint),
                          (PUBLISHED_FILE, store._load_published),
                          (DECISIONS_FILE, store._load_decision),
                          (MERGES_FILE, store._load_merge)):
            path = directory / name
            if not path.exists():
                continue
            for _ in _read_jsonl(path, add):  # add parses and stores a line
                pass
            store._clean[name] = path.absolute()
        store.rebuild_doi_index()
        return store

    def _load_preprint(self, obj) -> None:
        rec = preprint_from_json(obj)
        _put_once(self.preprints, rec.id, rec, "preprint")

    def _load_published(self, obj) -> None:
        rec = published_from_json(obj)
        _put_once(self.published, rec.accession, rec, "accession")

    def _load_decision(self, obj) -> None:
        d = decision_from_json(obj)
        self._check_preprint(d.preprint)
        if d.matched_accession is not None:  # an unmatched decision names none
            self._check_accession(d.matched_accession)
        _put_once(self.decisions, d.preprint, d, "decision for preprint")

    def _load_merge(self, obj) -> None:
        if not isinstance(obj, dict) or set(obj) != {"preprint", "accession"}:
            raise RecordError("a merge has exactly the keys preprint and accession")
        self._check_preprint(obj["preprint"])
        self._check_accession(obj["accession"])
        _put_once(self.merges, obj["preprint"], obj["accession"], "merge of preprint")

    def _check_preprint(self, pid) -> None:
        if not isinstance(pid, str) or pid not in self.preprints:
            raise RecordError(f"unknown preprint {pid!r}")

    def _check_accession(self, accession) -> None:
        if not isinstance(accession, str) or accession not in self.published:
            raise RecordError(f"unknown accession {accession!r}")


def _put_once(table: dict, key: str, value, what: str) -> None:
    if key in table:
        raise RecordError(f"repeated {what} {key}")
    table[key] = value
