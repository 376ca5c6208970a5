"""Editorial scope rules over arXiv category codes.

Which preprints enter the database is pure category-set policy: the
mathematics subcategories minus a fixed exclusion list, mathematical
physics as a whole, and statistics theory (math.ST / stat.TH) only when
the submission carries no cross-listing from a non-mathematical archive.
The rule sets ship as a versioned JSON data file so policy changes need
no code change; the scope report's per-category overlap share, read
after a match run, is what justifies them. The four sets are disjoint, so
each code listed has the one verdict its set gives; a rules file that
lists a code in two of them is refused.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .corpus import CorpusStore

REASON_INCLUDED = "included_subcategory"
REASON_STANDALONE = "standalone_included"
REASON_CONDITIONAL_IN = "conditional_included"
REASON_CONDITIONAL_OUT = "conditional_crosslisted_nonmath"
REASON_EXCLUDED = "excluded_subcategory"
REASON_NO_MATH = "no_mathematical_category"

REPORT_HEADER = ("category", "count", "overlap_share", "in_scope", "reason")


@dataclass(frozen=True)
class ScopeRules:
    included: frozenset[str]
    excluded: frozenset[str]
    conditional: frozenset[str]
    standalone: frozenset[str]

    def __post_init__(self):
        counts = Counter(c for f in fields(self) for c in getattr(self, f.name))
        shared = sorted(c for c, n in counts.items() if n > 1)
        if shared:
            raise ValueError(f"scope rules: {shared} in two category sets")


@dataclass(frozen=True)
class ScopeDecision:
    in_scope: bool
    reason: str


def load_rules(path: str | Path | None = None) -> ScopeRules:
    """Read a rule set: a JSON object whose keys ``included``, ``excluded``,
    ``conditional`` and ``standalone`` each hold a list of category codes,
    each one token free of whitespace like a stored category. Other keys
    are ignored. Any other file raises ValueError, naming the file when it
    is not JSON, the key (and code) at fault when there is one, and the
    codes listed under two keys."""
    source = resources.files("arxmatch.data").joinpath("scope_rules.json") \
        if path is None else Path(path)
    try:
        obj = json.loads(source.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also not UTF-8
        raise ValueError(f"unreadable scope rules {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("scope rules must be a JSON object")
    sets = {}
    for key in (f.name for f in fields(ScopeRules)):
        codes = obj.get(key)
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise ValueError(f"scope rules: {key!r} must be a list of strings")
        for c in codes:
            if c.split() != [c]:  # empty, or not one token
                raise ValueError(f"scope rules: {key!r} lists {c!r}, not a category code")
        sets[key] = frozenset(codes)
    return ScopeRules(**sets)


def _is_nonmath(category: str, rules: ScopeRules) -> bool:
    """Whether one category code counts as non-mathematical: any code
    outside the rule sets and the math and math-ph archives does."""
    if (category in rules.included or category in rules.excluded
            or category in rules.conditional or category in rules.standalone):
        return False
    return category.split(".", 1)[0] not in ("math", "math-ph")


def decide_categories(categories, rules: ScopeRules) -> ScopeDecision:
    cats = list(categories)
    if not cats:
        raise ValueError("a preprint must carry at least one category")
    if any(c in rules.included for c in cats):
        return ScopeDecision(True, REASON_INCLUDED)
    if any(c in rules.standalone for c in cats):
        return ScopeDecision(True, REASON_STANDALONE)
    if any(c in rules.conditional for c in cats):
        if any(_is_nonmath(c, rules) for c in cats):
            return ScopeDecision(False, REASON_CONDITIONAL_OUT)
        return ScopeDecision(True, REASON_CONDITIONAL_IN)
    if any(c in rules.excluded for c in cats):
        return ScopeDecision(False, REASON_EXCLUDED)
    return ScopeDecision(False, REASON_NO_MATH)


def scope_report(store: CorpusStore, rules: ScopeRules) -> str:
    """Per-category CSV: count, overlap share, and the policy verdict.

    A category's count is its occurrences over all preprints. Its overlap
    share is the matched preprints over the preprints that carry it, each
    preprint counted once however often it lists the category. The verdict
    is decide_categories([category]): the category judged on its own, so
    conditional_crosslisted_nonmath, which needs a non-mathematical
    cross-listing beside it, never appears in the report."""
    counts: dict[str, int] = {}
    carrying: dict[str, int] = {}
    matched: dict[str, int] = {}
    for pid, rec in store.preprints.items():
        for cat in rec.categories:
            counts[cat] = counts.get(cat, 0) + 1
        decision = store.decisions.get(pid)
        hit = decision is not None and decision.matched
        for cat in set(rec.categories):
            carrying[cat] = carrying.get(cat, 0) + 1
            matched[cat] = matched.get(cat, 0) + hit
    rows = []
    for cat in sorted(counts, key=lambda c: (-counts[c], c)):
        share = matched[cat] / carrying[cat]
        verdict = decide_categories([cat], rules)
        rows.append((
            cat,
            str(counts[cat]),
            f"{share:.4f}",
            "true" if verdict.in_scope else "false",
            verdict.reason,
        ))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    writer.writerows(rows)
    return buf.getvalue()
