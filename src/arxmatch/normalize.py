"""Deterministic text, author-string, and DOI normalization.

Titles, abstracts and author names arrive with LaTeX markup, diacritics,
and inconsistent punctuation; every comparison in the matcher runs on the
normalized forms produced here. The pipeline is fixed and ordered so that
exact-equality keys (the naive title+authors match) are reproducible:

1. NFKD decomposition, combining marks dropped
2. math segments ``$...$`` reduced to their content with ``\\commands`` removed
3. ``\\command{arg}`` reduced to ``arg``, bare ``\\command`` removed
4. structural markers ``{ } ^ _ ~`` deleted
5. punctuation mapped to spaces, except hyphens joining word characters
6. lowercased, whitespace collapsed

Step 1's mark removal is one ``str.translate``, and steps 4 and 5 are
another, each over a table that classifies a code point once. Step 1
precedes step 3: a mark after a backslash would otherwise be read as a
command name.

All functions here are total and idempotent.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache


class DoiError(ValueError):
    """Raised when a string cannot be canonicalized into a DOI."""


@dataclass(frozen=True)
class AuthorName:
    """One byline name as written. ``key``, its normalized (family, given)
    pair, is what profiles, the family-name sets and the naive match
    compare; it is derived at construction, so equality, hashing and the
    stored form ignore it."""

    family: str
    given: str
    raw: str
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (normalize_text(self.family),
                                         normalize_text(self.given)))


_MATH_RE = re.compile(r"\$\$?(.*?)\$\$?", re.DOTALL)
_CMD_ARG_RE = re.compile(r"\\([a-zA-Z]+|[^a-zA-Z\s])\s*\{([^{}]*)\}")
_CMD_RE = re.compile(r"\\([a-zA-Z]+|[^a-zA-Z\s])")
_DROPPED = set("{}^_~")


def _strip_latex(text: str) -> str:
    text = _MATH_RE.sub(lambda m: _CMD_RE.sub("", m.group(1)), text)
    # peel nested \cmd{...} from the inside out
    while True:
        text, n = _CMD_ARG_RE.subn(r"\2", text)
        if n == 0:
            break
    return _CMD_RE.sub("", text)


class _CharClasses(dict):
    """Steps 4 and 5 as a translate table, filled in on first sight."""

    def __missing__(self, code: int) -> str | None:
        ch = chr(code)
        if ch in _DROPPED:
            out = None
        elif ch.isalpha() or ch.isdigit():
            out = ch
        elif unicodedata.category(ch) == "Pd" or ch == "-":
            out = "-"
        else:
            out = " "
        self[code] = out
        return out


class _CombiningMarks(dict):
    """Step 1's mark removal as a translate table, filled in on first sight."""

    def __missing__(self, code: int) -> str | None:
        ch = chr(code)
        out = None if unicodedata.combining(ch) else ch
        self[code] = out
        return out


_CHAR_CLASSES = _CharClasses()
_COMBINING_MARKS = _CombiningMarks()
_HYPHEN_RUN_RE = re.compile(r"-{2,}")
# hyphens survive only between word characters
_FREE_HYPHEN_RE = re.compile(r"(?<![^\s])-|-(?![^\s])")


@lru_cache(maxsize=65536)
def normalize_text(raw: str) -> str:
    """Canonical lowercase form of a title, abstract, or name fragment."""
    text = unicodedata.normalize("NFKD", raw).translate(_COMBINING_MARKS)
    text = _strip_latex(text).translate(_CHAR_CLASSES)
    text = _HYPHEN_RUN_RE.sub("-", text)
    text = _FREE_HYPHEN_RE.sub(" ", text)
    text = text.lower()
    return " ".join(text.split())


_AND_RE = re.compile(r"\s+and\s+")


def _parse_given_family(part: str, raw: str) -> AuthorName:
    tokens = part.split()
    if len(tokens) == 1:
        return AuthorName(family=tokens[0], given="", raw=raw)
    return AuthorName(family=tokens[-1], given=" ".join(tokens[:-1]), raw=raw)


def split_authors(raw: str) -> list[AuthorName]:
    """Split an author byline into individual names.

    Separators are ";", " and ", and commas. A single comma reads as
    "Family, Given" unless both sides are multi-token (then it separates
    two natural-order names, the common arXiv byline). Longer comma lists
    are read as alternating "Family, Given" pairs when the part count is
    even and every given slot is a single token; otherwise commas separate
    whole names in "Given Family" order. A string that yields no parseable
    name comes back as a single family-only entry so no mention is lost.
    """
    if not raw.strip():
        return []
    names: list[AuthorName] = []
    for chunk in raw.split(";"):
        for piece in _AND_RE.split(chunk):
            piece = piece.strip()
            if not piece:
                continue
            parts = [p.strip() for p in piece.split(",")]
            parts = [p for p in parts if p]
            if not parts:
                continue
            if len(parts) == 1:
                names.append(_parse_given_family(parts[0], parts[0]))
            elif len(parts) == 2 and (len(parts[0].split()) == 1
                                      or len(parts[1].split()) == 1):
                names.append(AuthorName(family=parts[0], given=parts[1],
                                        raw=f"{parts[0]}, {parts[1]}"))
            elif len(parts) % 2 == 0 and all(
                len(parts[i].split()) == 1 for i in range(1, len(parts), 2)
            ):
                for i in range(0, len(parts), 2):
                    names.append(AuthorName(family=parts[i], given=parts[i + 1],
                                            raw=f"{parts[i]}, {parts[i + 1]}"))
            else:
                for p in parts:
                    names.append(_parse_given_family(p, p))
    good = [n for n in names if n.key[0]]
    if not good:
        return [AuthorName(family=raw.strip(), given="", raw=raw.strip())]
    return good


_DOI_PREFIXES = (
    "https://doi.org/",
    "http://doi.org/",
    "https://dx.doi.org/",
    "http://dx.doi.org/",
    "doi.org/",
    "doi:",
)
_DOI_RE = re.compile(r"^10\.[^/\s]+/\S+$")


def normalize_doi(raw: str) -> str:
    """Canonical lowercase DOI, or DoiError for anything that is not one."""
    doi = raw.strip().lower()
    while doi.startswith(_DOI_PREFIXES):
        prefix = next(p for p in _DOI_PREFIXES if doi.startswith(p))
        doi = doi[len(prefix):].strip()
    if not _DOI_RE.match(doi):
        raise DoiError(f"not a DOI: {raw!r}")
    return doi
