from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch.normalize import (
    AuthorName,
    DoiError,
    _strip_latex,
    normalize_doi,
    normalize_text,
    split_authors,
)

from conftest import CORPUS_DIR


def normalize_oracle(raw: str) -> str:
    """normalize_text with its character classes as a per-character loop."""
    text = unicodedata.normalize("NFKD", raw)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = _strip_latex(text)
    out: list[str] = []
    for ch in text:
        if ch in "{}^_~":
            continue
        if ch.isalpha() or ch.isdigit():
            out.append(ch)
        elif unicodedata.category(ch) == "Pd" or ch == "-":
            out.append("-")
        else:
            out.append(" ")
    text = re.sub(r"-{2,}", "-", "".join(out))
    text = re.sub(r"(?<![^\s])-|-(?![^\s])", " ", text)
    return " ".join(text.lower().split())


# LaTeX, dashes, combining marks (also after a backslash), non-BMP letters,
# numeric letters and a letter whose lowercase form is two code points
PIECES = ["\\frac{a}{b}", "$x^2$", "$$\\alpha_1$$", "\\'{e}", "\\emph{\\bf B}",
          "\\", "{", "}", "$", "^", "_", "~", "-", "--", "\u2013", "\u2014", "\u2010",
          "\u2e3a", "\u0301", "\u0308", "\\\u0301", "\u20dd", "\U0001d400",
          "\U0001d538", "\U00020000", "\u00bd", "\u0bf0", "\u0130", "\u00df",
          "\ufb01", "\u2167", "\ud800", " ", "\t", "ab", "C3", "x-y"]
ORACLE_TEXT = st.lists(st.sampled_from(PIECES) | st.characters(), max_size=30).map("".join)


class TestNormalizeText:
    def test_hyphen_run_collapse(self):
        assert normalize_text("The  Riemann--Zeta   Function") == \
            "the riemann-zeta function"

    def test_math_segment(self):
        assert normalize_text("On $L^2$-Cohomology") == "on l2-cohomology"

    def test_diacritic_folding(self):
        assert normalize_text("Étale \\'{e}tale") == "etale etale"

    def test_empty(self):
        assert normalize_text("") == ""
        assert normalize_text("").split() == []

    def test_latex_command_with_argument(self):
        assert normalize_text("\\textbf{Bold} \\emph{text}") == "bold text"

    def test_nested_commands(self):
        assert normalize_text("\\a{\\b{core}}") == "core"

    def test_math_commands_dropped(self):
        assert normalize_text("$\\alpha$-mixing of $x_n$") == "mixing of xn"

    def test_unicode_dashes(self):
        assert normalize_text("long–dash em—dash") == \
            "long-dash em-dash"

    def test_free_hyphen_becomes_space(self):
        assert normalize_text("a - b -c d-") == "a b c d"

    # hyphen cases the random oracle input rarely draws: runs at both ends of
    # a token, tokens of dashes alone, a mark after a hyphen and final sigma
    # beside hyphens, which the oracle lowercases only after they are settled
    @pytest.mark.parametrize("raw, expected", [
        ("--a-b--", "a-b"),
        ("a---b", "a-b"),
        ("- – —", ""),
        ("x-\u0301y", "x-y"),
        ("ΑΣ-Β ΑΣ -Β Α-ΣΒ --ΟΔΟΣ--", "ας-β ας β α-σβ οδος"),
    ])
    def test_hyphen_edge_cases_equal_oracle(self, raw, expected):
        assert normalize_text(raw) == normalize_oracle(raw) == expected

    def test_token_count(self):
        assert normalize_text("On the zeta function").split() == \
            ["on", "the", "zeta", "function"]

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_output_charset(self, s):
        out = normalize_text(s)
        assert "  " not in out
        assert out == out.strip()
        for ch in out:
            assert ch.isalpha() or ch.isdigit() or ch in " -"
            if ch.isalpha():
                assert ch == ch.lower()
            assert not unicodedata.category(ch).startswith("C")

    @given(ORACLE_TEXT)
    @settings(max_examples=2000, deadline=None)
    def test_equals_character_loop_oracle(self, s):
        assert normalize_text(s) == normalize_oracle(s)

    def test_equals_oracle_on_corpus(self):
        for name in ("preprints.jsonl", "published.jsonl"):
            for line in (CORPUS_DIR / name).read_text(encoding="utf-8").splitlines():
                obj = json.loads(line)
                for raw in [obj["title"], obj["abstract"] or "", *obj["authors"]]:
                    assert normalize_text(raw) == normalize_oracle(raw), raw

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_hyphens_intraword_only(self, s):
        out = normalize_text(s)
        for i, ch in enumerate(out):
            if ch == "-":
                assert 0 < i < len(out) - 1
                assert out[i - 1] not in " -" and out[i + 1] not in " -"


# fifty raw author strings with hand-assigned (family, given) parses
AUTHOR_FIXTURE = [
    ("Jane Doe", [("Doe", "Jane")]),
    ("Jane Doe and John Roe", [("Doe", "Jane"), ("Roe", "John")]),
    ("Doe, Jane", [("Doe", "Jane")]),
    ("Doe, Jane; Roe, John", [("Doe", "Jane"), ("Roe", "John")]),
    ("Doe, Jane, Roe, John", [("Doe", "Jane"), ("Roe", "John")]),
    ("Jane Doe, John Roe", [("Doe", "Jane"), ("Roe", "John")]),
    ("Jane Doe, John Roe and Mary Moe",
     [("Doe", "Jane"), ("Roe", "John"), ("Moe", "Mary")]),
    ("Jane Doe, John Roe, and Mary Moe",
     [("Doe", "Jane"), ("Roe", "John"), ("Moe", "Mary")]),
    ("J. Doe", [("Doe", "J.")]),
    ("J. M. Doe", [("Doe", "J. M.")]),
    ("Doe, J. M.; Roe, K.", [("Doe", "J. M."), ("Roe", "K.")]),
    ("Jane Marie Doe", [("Doe", "Jane Marie")]),
    ("Jane van der Berg", [("Berg", "Jane van der")]),
    ("Plato", [("Plato", "")]),
    ("Jane Doe; John Roe; Mary Moe",
     [("Doe", "Jane"), ("Roe", "John"), ("Moe", "Mary")]),
    ("Doe, Jane and Roe, John", [("Doe", "Jane"), ("Roe", "John")]),
    ("  Jane   Doe  ", [("Doe", "Jane")]),
    ("Jane Doe and John Roe and Mary Moe",
     [("Doe", "Jane"), ("Roe", "John"), ("Moe", "Mary")]),
    ("Doe, Jane, Roe, John, Moe, Mary",
     [("Doe", "Jane"), ("Roe", "John"), ("Moe", "Mary")]),
    ("Étienne Bézout", [("Bézout", "Étienne")]),
    ("José García and María López",
     [("García", "José"), ("López", "María")]),
    ("O'Brien, Patrick", [("O'Brien", "Patrick")]),
    ("Jean-Pierre Serre", [("Serre", "Jean-Pierre")]),
    ("Doe, Jane M.", [("Doe", "Jane M.")]),
    ("Smith-Jones, Alice", [("Smith-Jones", "Alice")]),
    ("A. Author; B. Author", [("Author", "A."), ("Author", "B.")]),
    ("X", [("X", "")]),
    ("Li Wei", [("Wei", "Li")]),
    ("Wei, Li", [("Wei", "Li")]),
    ("Kim, Min-Jun; Park, Ji-Ho",
     [("Kim", "Min-Jun"), ("Park", "Ji-Ho")]),
    ("van Dyke, Henry", [("van Dyke", "Henry")]),
    ("N. N. Bogoliubov and D. V. Shirkov",
     [("Bogoliubov", "N. N."), ("Shirkov", "D. V.")]),
    ("The ATLAS Collaboration", [("Collaboration", "The ATLAS")]),
    ("Müller, Hans", [("Müller", "Hans")]),
    ("Hans Müller und Fritz", [("Fritz", "Hans Müller und")]),
    ("Doe,Jane", [("Doe", "Jane")]),
    ("Doe , Jane", [("Doe", "Jane")]),
    ("Jane Doe ; John Roe", [("Doe", "Jane"), ("Roe", "John")]),
    ("Mehta, Anil Kumar", [("Mehta", "Anil Kumar")]),
    ("Anil Kumar Mehta", [("Mehta", "Anil Kumar")]),
    ("Ivanov, I.; Petrov, P.; Sidorov, S.",
     [("Ivanov", "I."), ("Petrov", "P."), ("Sidorov", "S.")]),
    ("de la Vallée Poussin, Charles",
     [("de la Vallée Poussin", "Charles")]),
    ("Charles de la Vallée Poussin",
     [("Poussin", "Charles de la Vallée")]),
    ("Y. Zhang, X. Wang", [("Zhang", "Y."), ("Wang", "X.")]),
    ("Zhang, Y., Wang, X.", [("Zhang", "Y."), ("Wang", "X.")]),
    ("  ", []),
    ("Bob", [("Bob", "")]),
    ("Alice and Bob", [("Alice", ""), ("Bob", "")]),
    ("Noether, Emmy and Emil Artin",
     [("Noether", "Emmy"), ("Artin", "Emil")]),
    ("Doe, Jane;", [("Doe", "Jane")]),
]


class TestSplitAuthors:
    def test_fixture_has_fifty_strings(self):
        assert len(AUTHOR_FIXTURE) == 50

    @pytest.mark.parametrize("raw,expected", AUTHOR_FIXTURE,
                             ids=[r for r, _ in AUTHOR_FIXTURE])
    def test_fixture(self, raw, expected):
        names = split_authors(raw)
        assert [(n.family, n.given) for n in names] == expected

    def test_order_and_count_preserved(self):
        for raw, expected in AUTHOR_FIXTURE:
            assert len(split_authors(raw)) == len(expected)

    def test_garbage_is_raw_only(self):
        names = split_authors("!!! ***")
        assert len(names) == 1
        assert names[0].family == "!!! ***"
        assert names[0].given == ""

    def test_author_key_idempotent(self):
        for raw, _ in AUTHOR_FIXTURE:
            for name in split_authors(raw):
                fam, giv = name.key
                assert (fam, giv) == (normalize_text(name.family),
                                      normalize_text(name.given))
                assert (normalize_text(fam), normalize_text(giv)) \
                    == (fam, giv)

    def test_key_is_derived_and_not_compared(self):
        name = AuthorName(family="Núñez", given="Ana", raw="Núñez, Ana")
        assert name.key == ("nunez", "ana")
        assert replace(name, family="Roe").key == ("roe", "ana")
        # equality, hashing and repr see the parsed fields only
        twin = AuthorName(family="Núñez", given="Ana", raw="Núñez, Ana")
        object.__setattr__(twin, "key", ("other", "key"))
        assert twin == name and hash(twin) == hash(name)
        assert "key" not in repr(name)
        assert [f.name for f in fields(name) if f.compare] == ["family", "given", "raw"]


class TestNormalizeDoi:
    def test_resolver_prefix(self):
        assert normalize_doi("https://doi.org/10.1000/ABC") == "10.1000/abc"

    def test_doi_prefix(self):
        assert normalize_doi("doi:10.1000/x.y") == "10.1000/x.y"

    def test_not_a_doi(self):
        with pytest.raises(DoiError):
            normalize_doi("not-a-doi")

    def test_stacked_prefixes(self):
        assert normalize_doi("doi: https://doi.org/10.1/Z") == "10.1/z"
        assert normalize_doi("doi.org/https://dx.doi.org/10.5/B") == "10.5/b"

    def test_whitespace(self):
        assert normalize_doi("  10.99/a-b  ") == "10.99/a-b"
        # the DOI pattern's $ also matches before a final newline
        assert normalize_doi("10.1/x\n") == "10.1/x"

    @pytest.mark.parametrize("bad", ["", "11.1/x", "10.", "10/x", "10.1", "doi:"])
    def test_rejects(self, bad):
        with pytest.raises(DoiError):
            normalize_doi(bad)

    def test_idempotent(self):
        for raw in ["https://DOI.org/10.1000/AbC", "10.5/x/y(z)"]:
            once = normalize_doi(raw)
            assert normalize_doi(once) == once
