"""Record types, the JSONL-backed corpus store and its directory.

The store keeps three collections (preprint records, published records,
match decisions) plus the merge assignments, persisted as one JSON Lines
file each inside a store directory. A record is stored as its fields,
with its authors as written. One reader parses every line, so a line
that breaks the schema is reported like one that is not JSON: as
``path:line`` on load, as a rejected line on ingest. An arXiv id or MSC
code takes the ASCII digits only, and a category is one token free of
whitespace. Loaded records are slotted and share one instance of each
repeated code, outcome and stamp; a loaded decision or merge holds the
key objects of the records it names. A store holds its tables and what
its saves need, nothing derived: the DOI join's ``doi_map`` is built by
its callers. A load reads only the tables its caller names; a table
left out is not parsed, and any use of it raises. A store remembers the
directory it was loaded from or last saved to and the keys written to
each table since, and ``save`` into that directory rewrites only the
tables written to: it copies the line of every record not written from
the file load read, and encodes only the others. It does so in two
phases: it writes every such table to its ``.tmp`` file first, then
renames them in ``TABLES`` order.
Mutations require exclusive access. Commands open a store directory only
through ``open_store``.
"""

from __future__ import annotations

import contextlib
import fcntl
import gc
import json
import os
import re
import shutil
import sys
from dataclasses import dataclass, field, fields
from itertools import islice, pairwise
from pathlib import Path

from .normalize import AuthorName, normalize_doi, split_authors

# matched with fullmatch: a $ anchor would also match before a final newline;
# ASCII, so \d is 0-9 and not every Unicode digit
ARXIV_ID_RE = re.compile(r"\d{4}\.\d{4,5}|[a-z-]+(\.[A-Z]{2})?/\d{7}", re.ASCII)
MSC_RE = re.compile(r"\d{2}[A-Z-][0-9X-]{2}", re.ASCII)
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")  # \ud800 to \udfff

# shared by every line read or written: json.dumps with options builds an
# encoder per call, and json.loads wraps the decoder's one call in two more
_raw_decode = json.JSONDecoder().raw_decode
_encode_line = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                separators=(",", ":")).encode

DOCUMENT_TYPES = ("journal_article", "collection_article", "book")

OUTCOME_DOI = "doi_match"
OUTCOME_CLASSIFIER = "classifier_match"
OUTCOME_UNMATCHED = "unmatched"
OUTCOMES = (OUTCOME_DOI, OUTCOME_CLASSIFIER, OUTCOME_UNMATCHED)

# The store directory's files: table t is the CorpusStore attribute t and
# the file f"{t}.jsonl"; merge writes the author profiles.
TABLES = ("preprints", "published", "decisions", "merges")
PROFILES_FILE = "profiles.jsonl"
LOCK_FILE = ".lock"


class RecordError(ValueError):
    """A record violates its schema or an invariant."""


class IntegrityError(RuntimeError):
    """An operation would leave the store referencing missing records."""


class StoreError(RuntimeError):
    """A store directory is missing or locked by another run, or a table
    that was not loaded is used."""


def validate_arxiv_id(value: str) -> str:
    if not isinstance(value, str) or not ARXIV_ID_RE.fullmatch(value):
        raise RecordError(f"invalid arXiv identifier: {value!r}")
    return value


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PublishedRecord:
    accession: str
    title: str
    authors: tuple[AuthorName, ...]
    abstract: str | None
    doi: str | None
    source: str
    document_type: str
    msc: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class MatchDecision:
    preprint: str
    outcome: str
    matched_accession: str | None
    vector: tuple[float, float, float] | None
    decided_at: str

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise RecordError(f"unknown outcome: {self.outcome!r}")
        if self.matched != (self.matched_accession is not None):
            raise RecordError("matched_accession must be present iff matched")
        if (self.vector is not None) != (self.outcome == OUTCOME_CLASSIFIER):
            raise RecordError("vector must be present iff classifier_match")

    @property
    def matched(self) -> bool:
        return self.outcome != OUTCOME_UNMATCHED


@dataclass
class IngestReport:
    added: int = 0
    replaced: int = 0
    unchanged: int = 0  # equal to the stored record, as on a rerun
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return len(self.errors)

    def reject(self, line_no: int, reason: str) -> None:
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
        if not isinstance(entry, str) or not entry or entry.isspace():
            raise RecordError(f"{where}: author entries must be non-empty strings")
        names.extend(split_authors(entry))  # a non-blank entry gives >= 1 name
    return tuple(names)


# every MSC code that has passed MSC_RE, mapped to the one instance that
# records share; at most 100 * 27 * 12 * 12 codes can pass
_MSC_CODES: dict[str, str] = {}


def _parse_msc(items, where: str) -> tuple[str, ...]:
    if items is None:
        return ()
    if not isinstance(items, list):
        raise RecordError(f"{where}: msc must be a list")
    try:
        return tuple([_MSC_CODES[code] for code in items])
    except (KeyError, TypeError):  # a code not seen before, or unhashable
        pass
    for code in items:
        if not isinstance(code, str) or not MSC_RE.fullmatch(code):
            raise RecordError(f"{where}: invalid MSC code {code!r}")
    return tuple([_MSC_CODES.setdefault(code, code) for code in items])


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
        isinstance(c, str) and c.split() == [c] for c in categories  # one token
    ):
        raise RecordError(f"{pid}: categories must be a non-empty list of codes")
    if not isinstance(withdrawn, bool):
        raise RecordError(f"{pid}: withdrawn must be a boolean")
    # positional: a keyword call of a frozen dataclass is slower
    return PreprintRecord(pid, version, title, authors, abstract,
                          tuple(map(sys.intern, categories)),
                          _parse_msc(obj.get("msc"), pid),
                          normalize_doi(obj.get("doi")), withdrawn)


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
    return PublishedRecord(accession, title, authors, abstract,
                           normalize_doi(obj.get("doi")), source,
                           sys.intern(document_type),
                           _parse_msc(obj.get("msc"), accession))


def record_to_json(rec: PreprintRecord | PublishedRecord | MatchDecision) -> dict:
    """A record's stored form: its fields, each author as written."""
    obj = {f.name: getattr(rec, f.name) for f in fields(rec)}
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
        pid, outcome, decided_at = obj["preprint"], obj["outcome"], obj["decided_at"]
    except KeyError as exc:
        raise RecordError(f"missing field {exc.args[0]!r}") from exc
    # a store repeats its outcomes and run stamps: one instance of each
    return MatchDecision(pid, sys.intern(outcome) if outcome in OUTCOMES else outcome,
                         obj.get("matched_accession"),
                         tuple(vector) if vector is not None else None,
                         sys.intern(decided_at))


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


def write_jsonl(path: str | Path, objects) -> None:
    """Replace ``path`` with one compact, key-sorted JSON object per line."""
    with write_atomic(path) as fh:
        for obj in objects:
            fh.write(_encode_line(obj))
            fh.write("\n")


def report_json(obj) -> str:
    """The text of a report: key-sorted JSON indented by two, one newline."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


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
            try:
                try:
                    value, end = _raw_decode(line)
                except (ValueError, RecursionError):
                    # blank only if the decoder refused it: strip would
                    # copy every good line
                    if not line.strip(" \t\r\n"):  # JSON's whitespace, not str.isspace
                        continue
                    end = None
                if end is None or line[end:].strip(" \t\r\n"):
                    # leading whitespace, a BOM, extra data or a refusal:
                    # json.loads gives the value or the reason, as it always has
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
def open_store(directory: str | Path, mode: str = "r", tables=TABLES):
    """Load the store in ``directory`` for one command and yield it.

    ``mode`` is ``"r"`` (read), ``"w"`` (write) or ``"c"`` (write, creating
    the directory; only ingest creates a store). ``tables`` names the tables
    the command reads or writes, out of ``TABLES``; ``CorpusStore.load``
    reads them, and only them, before this yields. A reader holds a shared
    flock on ``.lock`` while the files are read and unlocks as soon as the
    load returns; a writer holds an exclusive one from before the load until
    its block ends, so it replaces its files under the lock. Either keeps
    ``.lock`` open until the block ends. The OS drops an flock when its
    holder dies. When the block raises, ``"c"`` removes the directories it
    made in this call, so a failed first ingest leaves no empty store
    behind.

    The loaded records are acyclic, so the garbage collector could free
    none of them: it is paused while they load, and then skips them, frozen
    with everything else it tracks, until the block ends, so cyclic garbage
    made before the block is collected after it. A caller that has disabled
    the collector or frozen objects finds it as it left it.
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
    own_gc = gc.isenabled() and not gc.get_freeze_count()
    with open(directory / LOCK_FILE, "a") as lock:
        try:
            fcntl.flock(lock, (fcntl.LOCK_SH if mode == "r" else fcntl.LOCK_EX)
                        | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StoreError(f"store {directory} is locked by another run") from None
        if own_gc:
            gc.disable()
        try:
            store = CorpusStore.load(directory, tables)
            if own_gc:
                gc.freeze()  # before enable, so no collection walks the load
        finally:
            if own_gc:
                gc.enable()
        try:
            if mode == "r":
                fcntl.flock(lock, fcntl.LOCK_UN)
            yield store
        except BaseException:
            if created:  # still under the lock, so nothing else is inside
                shutil.rmtree(directory, ignore_errors=True)
                for parent in created[1:]:
                    with contextlib.suppress(OSError):
                        parent.rmdir()
            raise
        finally:
            if own_gc:
                gc.unfreeze()


def doi_map(published: dict[str, PublishedRecord]) -> dict[str, str | None]:
    """DOI -> accession of the one published record carrying it, or None
    when several carry it; a record with no DOI has no entry."""
    dois: dict[str, str | None] = {}
    for rec in published.values():
        if rec.doi is not None:
            dois[rec.doi] = None if rec.doi in dois else rec.accession
    return dois


class CorpusStore:
    """In-memory corpus with JSONL persistence."""

    def __init__(self) -> None:
        self.preprints: dict[str, PreprintRecord] = {}
        self.published: dict[str, PublishedRecord] = {}
        self.decisions: dict[str, MatchDecision] = {}
        self.merges: dict[str, str] = {}
        # the absolute directory this store was loaded from or last saved
        # to; per table whose file there held it then, what save may copy
        # from that file: the number of records load read from it and its
        # identity before the read, or None (a table left out, any table
        # after a save); and per table the keys written since. The four
        # mutators below are the only code that writes to the tables.
        self._home: Path | None = None
        self._files: dict[str, tuple[int, tuple[int, int, int]] | None] = {}
        self._written: dict[str, set[str]] = {t: set() for t in TABLES}

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
            self._written["preprints"].add(rec.id)
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
            self._written["published"].add(rec.accession)
            report.added += 1
        return report

    # -- decisions and merges ---------------------------------------------------

    def record_decision(self, decision: MatchDecision) -> None:
        if decision.preprint not in self.preprints:
            raise IntegrityError(f"decision for unknown preprint {decision.preprint}")
        if decision.matched and decision.matched_accession not in self.published:
            raise IntegrityError(f"decision for unknown accession "
                                 f"{decision.matched_accession}")
        if self.decisions.get(decision.preprint) != decision:
            self._written["decisions"].add(decision.preprint)
        self.decisions[decision.preprint] = decision

    def merge_on_publication(self, decision: MatchDecision) -> None:
        """Make the published record canonical for a matched preprint by
        recording the merge of its arXiv identifier into the accession.
        Idempotent; the store is untouched on error.
        """
        if not decision.matched:
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
            self._written["merges"].add(pid)
        self.merges[pid] = accession

    def unmerged_preprints(self) -> list[str]:
        return [pid for pid in sorted(self.preprints) if pid not in self.merges]

    def unpublished_preprints(self) -> list[str]:
        """Preprints with no matched decision — the 'arXiv preprint' listing."""
        out = []
        for pid in sorted(self.preprints):
            d = self.decisions.get(pid)
            if d is None or not d.matched:
                out.append(pid)
        return out

    # -- persistence --------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the four table files into ``directory``. Into the store's
        home, the directory it was loaded from or last saved to, this skips
        each clean table: one that nothing was written to since and whose
        file there holds it, and one that load left out. It rewrites every
        other table in key order: when load read its file there, that file
        is sorted and it is still the one load read (same inode, size and
        mtime), the line of each record not written since is copied from it
        byte for byte, and only the rest are encoded. Any other table, and
        every table saved into another directory, is encoded in full; there
        a table left out raises ``StoreError`` and no file is renamed. On
        success ``directory`` becomes the home, every table is clean and no
        line may be copied any more.

        A skipped file keeps its bytes, and so does a copied line: a
        hand-edited line that load accepts but save would not write (a
        URL-form DOI) stays until its record changes, and an unsorted file
        until its table changes. A file that load read and that is gone by
        the save raises ``FileNotFoundError``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        here = directory.absolute()
        home = here == self._home
        stale = [t for t in TABLES if not home or t not in self._files or self._written[t]]
        # entered last to first, so the stack renames first to last, and
        # only once every stale table is in its .tmp file; an error removes
        # every .tmp file not yet renamed and renames no more
        with contextlib.ExitStack() as renames:
            for table in reversed(stale):
                rows = getattr(self, table)  # a table left out raises here
                path = directory / f"{table}.jsonl"
                copyable = self._files.get(table) if home else None
                with open(path, "rb") if copyable else contextlib.nullcontext(()) as old:
                    n = 0
                    if copyable and _identity(os.fstat(old.fileno())) == copyable[1] \
                            and all(a < b for a, b in pairwise(islice(rows, copyable[0]))):
                        n = copyable[0]
                    fh = renames.enter_context(write_atomic(path))
                    _write_table(fh, table, rows, n, old, self._written[table])
                    fh.flush()  # a run killed between renames leaves whole .tmp files
        self._home = here
        self._files = dict.fromkeys(TABLES)
        self._written = {t: set() for t in TABLES}

    @classmethod
    def load(cls, directory: str | Path, tables=TABLES) -> "CorpusStore":
        """Read the tables named in ``tables`` (out of ``TABLES``) from a
        saved store. Naming decisions or merges reads preprints and published
        too, since their lines are checked against those keys. A bad line
        raises ``RecordError`` naming its file and line: every key is stored
        once, every decision and merge names a stored preprint, and every
        merge and matched decision a stored accession.

        A table whose file is missing is empty. A table left out whose file
        exists is not read: any use of it raises ``StoreError``, and
        ``save`` leaves its file as it is. The store's home is
        ``directory``, and its clean tables are those whose files exist."""
        wanted = set(tables)
        if not wanted <= set(TABLES):
            raise ValueError(f"unknown tables: {sorted(wanted - set(TABLES))}")
        if wanted & {"decisions", "merges"}:
            wanted |= {"preprints", "published"}
        directory = Path(directory)
        store = cls()
        store._home = directory.absolute()
        for table, add in zip(TABLES, (store._load_preprint, store._load_published,
                                       store._load_decision, store._load_merge)):
            path = directory / f"{table}.jsonl"
            try:
                identity = _identity(os.stat(path))  # before the read: see save
            except FileNotFoundError:
                continue
            if table in wanted:
                for _ in _read_jsonl(path, add):  # add parses and stores a line
                    pass
                store._files[table] = (len(getattr(store, table)), identity)
            else:  # __getattr__ now answers for it
                delattr(store, table)
                store._files[table] = None
        return store

    def __getattr__(self, name: str):
        # called only for an attribute that is not set: a table that load
        # left out, which must not read as empty
        if name in TABLES:
            raise StoreError(f"{name}.jsonl was not loaded")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _load_preprint(self, obj) -> None:
        rec = preprint_from_json(obj)
        _put_once(self.preprints, rec.id, rec, "preprint")

    def _load_published(self, obj) -> None:
        rec = published_from_json(obj)
        _put_once(self.published, rec.accession, rec, "accession")

    # a decision and a merge hold the key objects of the records they name,
    # not the equal copies their lines decode to
    def _load_decision(self, obj) -> None:
        d = decision_from_json(obj)
        # d is new and held nowhere else, so it takes the stored keys in
        # place: a second, checked construction would cost as much again
        object.__setattr__(d, "preprint", self._check_preprint(d.preprint))
        if d.matched_accession is not None:  # an unmatched decision names none
            object.__setattr__(d, "matched_accession",
                               self._check_accession(d.matched_accession))
        _put_once(self.decisions, d.preprint, d, "decision for preprint")

    def _load_merge(self, obj) -> None:
        if not isinstance(obj, dict) or set(obj) != {"preprint", "accession"}:
            raise RecordError("a merge has exactly the keys preprint and accession")
        pid = self._check_preprint(obj["preprint"])
        _put_once(self.merges, pid, self._check_accession(obj["accession"]),
                  "merge of preprint")

    def _check_preprint(self, pid) -> str:
        if not isinstance(pid, str) or pid not in self.preprints:
            raise RecordError(f"unknown preprint {pid!r}")
        return self.preprints[pid].id  # the stored key

    def _check_accession(self, accession) -> str:
        if not isinstance(accession, str) or accession not in self.published:
            raise RecordError(f"unknown accession {accession!r}")
        return self.published[accession].accession  # the stored key


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    """The stat fields that change when a file is replaced or rewritten."""
    return st.st_ino, st.st_size, st.st_mtime_ns


def _write_table(fh, table: str, rows: dict, n: int, old, written: set) -> None:
    """Write ``rows`` to ``fh`` in key order. Its first ``n`` keys are in
    order and are those of the first ``n`` non-blank lines of ``old``, as
    load read them: the line of each that ``written`` does not hold is
    copied, given a newline if it has none. Every other record is encoded."""
    if table == "merges":
        def encoded(key):
            return _encode_line({"preprint": key, "accession": rows[key]}) + "\n"
    else:
        def encoded(key):
            return _encode_line(record_to_json(rows[key])) + "\n"
    added = sorted(islice(rows, n, None))
    i = 0
    # the blank lines are those _read_jsonl skips
    for key, line in zip(islice(rows, n), (line for line in old if line.strip(b" \t\r\n"))):
        while i < len(added) and added[i] < key:
            fh.write(encoded(added[i]))
            i += 1
        if key in written:
            fh.write(encoded(key))
        else:
            fh.write(line.decode("utf-8") if line.endswith(b"\n")
                     else line.decode("utf-8") + "\n")
    for key in added[i:]:
        fh.write(encoded(key))


def _put_once(table: dict, key: str, value, what: str) -> None:
    if key in table:
        raise RecordError(f"repeated {what} {key}")
    table[key] = value
