"""Deterministic text, author-string, and DOI normalization.

Titles, abstracts and author names arrive with LaTeX markup, diacritics,
and inconsistent punctuation; every comparison in the matcher runs on the
normalized forms produced here. The pipeline is fixed and ordered so that
exact-equality keys (the naive title+authors match) are reproducible:

1. NFKD decomposition, combining marks dropped
2. math segments ``$...$`` reduced to their content with ``\\commands`` removed
3. ``\\command{arg}`` reduced to ``arg``, bare ``\\command`` removed
4. structural markers ``{ } ^ _ ~`` deleted, dashes mapped to ``-``,
   other punctuation to spaces
5. lowercased
6. per whitespace token, hyphens kept only between non-empty parts
   (``--a-b--`` becomes ``a-b``; a token of dashes alone is dropped)

Step 1's mark removal and step 4 are each one ``str.translate`` over a
table that classifies a code point once. Step 1 precedes step 3: a mark
after a backslash would otherwise be read as a command name. Step 5 may
precede step 6 because hyphen and space are neither cased nor
case-ignorable, so no final sigma changes.

``normalize_tokens`` runs the pipeline and returns the tokens;
``normalize_text`` joins them with spaces. Three shortcuts skip a step
where it cannot change the text, so each is exact:

- an ASCII string skips step 1: ASCII is NFKD-stable and holds no
  combining marks;
- text with neither ``$`` nor ``\\`` after step 1 skips steps 2 and 3,
  whose patterns all need one of the two. It is checked after NFKD,
  which turns compatibility forms such as U+FF04 and U+FF3C into them;
- text with no ``-`` after step 5 skips step 6, which changes only
  tokens that hold one. It is checked after step 4, which maps every
  dash, U+FE63 and U+FF0D among them, to ``-``.

All functions here are total and idempotent; ``normalize_doi`` answers
None for a value that is not a DOI, which the store keeps as no DOI.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True, slots=True)
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


class _TranslateTable(dict):
    """A ``str.translate`` table that asks ``classify`` for a code point's
    replacement (a string, or None to delete it) the first time the code
    point is seen, and remembers the answer."""

    def __init__(self, classify) -> None:
        super().__init__()
        self.classify = classify

    def __missing__(self, code: int) -> str | None:
        out = self[code] = self.classify(chr(code))
        return out


def _char_class(ch: str) -> str | None:
    if ch in _DROPPED:
        return None
    if ch.isalpha() or ch.isdigit():
        return ch
    if unicodedata.category(ch) == "Pd" or ch == "-":
        return "-"
    return " "


_COMBINING_MARKS = _TranslateTable(lambda ch: None if unicodedata.combining(ch) else ch)
_CHAR_CLASSES = _TranslateTable(_char_class)


def normalize_tokens(raw: str) -> list[str]:
    """The tokens of a title, abstract, or name fragment's canonical form."""
    text = raw
    if not text.isascii():
        text = unicodedata.normalize("NFKD", text).translate(_COMBINING_MARKS)
    if "$" in text or "\\" in text:
        text = _strip_latex(text)
    text = text.translate(_CHAR_CLASSES).lower()
    if "-" not in text:
        return text.split()
    tokens = ("-".join(filter(None, token.split("-"))) if "-" in token else token
              for token in text.split())
    return list(filter(None, tokens))


# titles and names repeat across a run, so their forms are cached; an
# abstract is normalized once per record, through normalize_tokens
@lru_cache(maxsize=65536)
def normalize_text(raw: str) -> str:
    """Canonical lowercase form of a title, abstract, or name fragment."""
    return " ".join(normalize_tokens(raw))


_AND_RE = re.compile(r"\s+and\s+")


def _parse_given_family(part: str) -> AuthorName:
    tokens = part.split()
    # positional, here and below: a keyword call of a frozen dataclass is slower
    return AuthorName(tokens[-1], " ".join(tokens[:-1]), part)


@lru_cache(maxsize=65536)
def split_authors(raw: str) -> tuple[AuthorName, ...]:
    """Split an author byline into individual names.

    Separators are ";", " and ", and commas. A single comma reads as
    "Family, Given" unless both sides are multi-token (then it separates
    two natural-order names, the common arXiv byline). Longer comma lists
    are read as alternating "Family, Given" pairs when the part count is
    even and every given slot is a single token; otherwise commas separate
    whole names in "Given Family" order. A string that yields no parseable
    name comes back as a single family-only entry so no mention is lost.

    Cached per byline: a store repeats bylines, and records may share the
    frozen names; a tuple, so no caller can change a cached value.
    """
    if not raw.strip():
        return ()
    names: list[AuthorName] = []
    for chunk in raw.split(";"):
        for piece in _AND_RE.split(chunk):
            parts = [p for p in map(str.strip, piece.split(",")) if p]
            if len(parts) % 2 == 0 and (
                    all(len(given.split()) == 1 for given in parts[1::2])
                    or len(parts) == 2 and len(parts[0].split()) == 1):
                names.extend(AuthorName(family, given, f"{family}, {given}")
                             for family, given in zip(parts[::2], parts[1::2]))
            else:
                names.extend(map(_parse_given_family, parts))
    good = tuple(n for n in names if n.key[0])
    if not good:
        return (AuthorName(raw.strip(), "", raw.strip()),)
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


def normalize_doi(raw) -> str | None:
    """Canonical lowercase DOI, or None for anything else, a value that is
    not a string included: an unusable DOI counts as absent.

    A DOI already canonical, as the store writes it, is its own result, so
    a reload skips the prefix and case passes; fullmatch, since the
    pattern's $ also matches before a final newline, which strip removes.
    """
    if not isinstance(raw, str):
        return None
    if _DOI_RE.fullmatch(raw) and raw == raw.lower():
        return raw
    doi = raw.strip().lower()
    while doi.startswith(_DOI_PREFIXES):
        prefix = next(p for p in _DOI_PREFIXES if doi.startswith(p))
        doi = doi[len(prefix):].strip()
    return doi if _DOI_RE.match(doi) else None
